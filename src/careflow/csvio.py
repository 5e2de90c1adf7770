"""CSV ingestion and export for event logs.

The layout is fixed: RFC-4180, UTF-8, with a header that names the core
columns ``case_id``, ``activity`` and ``timestamp`` (an ISO-8601 instant), in
any order. Extra columns become event attributes; columns prefixed ``case:``
become trace attributes (written once per case, repeated on every row). Extra
values are read as strings unless a ``types`` map gives their column one of
the kinds ``string``, ``int``, ``float``, ``boolean`` (or ``bool``) and
``date``, so nothing is silently coerced. Values are parsed and spelled by the
attribute codec in ``eventlog`` (``_PARSERS`` and ``_attr_text``), which XES
shares, so a value reads the same in both formats.
"""

from __future__ import annotations

import csv
import io
from sys import intern

from .errors import CsvFormatError
from .eventlog import (_PARSERS, AttrValue, Event, EventLog, Trace, _attr_text,
                       _without_cycle_collection)
from .timeutil import format_timestamp, parse_timestamp

CASE_PREFIX = "case:"
CORE = ("case_id", "activity", "timestamp")


def _lines(text: str, start: int = 0):
    """Lines of ``text`` from ``start`` on, split after each ``"\\n"`` as ``io.StringIO`` splits.

    Only slices of ``text`` are made; ``io.StringIO`` would hold a copy of it
    at four bytes a character.
    """
    end = len(text)
    while start < end:
        stop = text.find("\n", start) + 1 or end
        yield text[start:stop]
        start = stop


def _quoted(cell: str) -> str:
    """``cell`` as a CSV field, quoted only where ``csv.writer`` quotes it (by default)."""
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cell(parse, raw: str, types: dict[str, str], column: str, row: int) -> AttrValue:
    try:
        return parse(raw)
    except ValueError:
        raise CsvFormatError(f"cannot parse {raw!r} as {types[column]} in column {column!r}",
                             row=row)


@_without_cycle_collection
def parse_csv(text: str, types: dict[str, str] | None = None) -> EventLog:
    """Parse CSV text into an event log; ``types`` maps extra columns to kinds.

    Every kind in ``types`` is checked before the first row is read. One trace
    per distinct case id, in order of first appearance; ``Trace`` sorts its
    events by timestamp (stable for ties). Empty input gives an empty log. A
    leading byte order mark (U+FEFF), which spreadsheet tools write, is skipped.
    """
    types = types or {}
    parsers = {}
    for column, kind in types.items():
        parser = _PARSERS.get("boolean" if kind == "bool" else kind)
        if parser is None:
            raise CsvFormatError(f"unknown type {kind!r} for column {column!r}")
        parsers[column] = parser
    reader = csv.reader(_lines(text, 1 if text.startswith("\ufeff") else 0))
    try:
        header = next(reader)
    except StopIteration:
        return EventLog()
    for core in CORE:
        if core not in header:
            raise CsvFormatError(f"missing column {core!r} in header")
    idx = {col: i for i, col in enumerate(header)}
    if len(idx) != len(header):  # idx keeps the last index of a repeated column
        repeated = next(col for i, col in enumerate(header) if idx[col] != i)
        raise CsvFormatError(f"repeated column {repeated!r} in header", row=1)
    case_at, activity_at, timestamp_at = (idx[core] for core in CORE)
    # (position, column, parser, attribute key, converted texts or None for an event
    # column): a case column repeats its case's value on every row, so it converts each
    # distinct text once, and a bad one still fails on the first row that has it
    extra = []
    for col in header:
        if col not in CORE:
            is_case = col.startswith(CASE_PREFIX)
            extra.append((idx[col], col, parsers.get(col, str),
                          col[len(CASE_PREFIX):] if is_case else col, {} if is_case else None))

    cases: dict[str, tuple[list[Event], dict[str, AttrValue]]] = {}
    for row_no, row in enumerate(reader, start=2):
        if not any(row):
            continue
        if len(row) < len(header):
            row = row + [""] * (len(header) - len(row))
        case_id = row[case_at]
        activity = intern(row[activity_at])  # one copy of each label
        ts_raw = row[timestamp_at]
        if not case_id or not activity:
            raise CsvFormatError(f"empty {'activity' if case_id else 'case_id'!r} cell", row=row_no)
        try:
            ts = parse_timestamp(ts_raw)
        except ValueError:
            raise CsvFormatError(f"unparseable timestamp {ts_raw!r}", row=row_no)
        case = cases.get(case_id)
        if case is None:
            case = cases[case_id] = ([], {})
        attrs: dict[str, AttrValue] = {}
        for at, col, parse, key, seen in extra:
            raw = row[at]
            if raw == "":
                continue
            if seen is None:
                attrs[key] = _cell(parse, raw, types, col, row_no)
                continue
            value = seen.get(raw)
            if value is None:  # no kind parses to None
                value = seen[raw] = _cell(parse, raw, types, col, row_no)
            case[1][key] = value
        case[0].append(Event(activity, ts, attrs))
    return EventLog(tuple(Trace(case_id, tuple(events), attrs)
                          for case_id, (events, attrs) in cases.items()))


def write_csv(log: EventLog) -> str:
    """Serialize a log to CSV, deterministically.

    Traces keep input order; attribute columns are sorted by name. Trace
    attributes are emitted under ``case:``-prefixed columns.
    """
    event_keys = sorted({k for t in log for e in t.events for k in e.attributes})
    trace_keys = sorted({k for t in log for k in t.attributes})
    header = [*CORE, *event_keys, *(CASE_PREFIX + k for k in trace_keys)]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for trace in log:
        case_cells = [_attr_text(trace.attributes[k])[1] if k in trace.attributes else ""
                      for k in trace_keys]
        for event in trace.events:
            row = [trace.case_id, event.activity, format_timestamp(event.timestamp)]
            row += [_attr_text(event.attributes[k])[1] if k in event.attributes else ""
                    for k in event_keys]
            row += case_cells
            writer.writerow(row)
    return buf.getvalue()


def roundtrip_mapping(log: EventLog) -> dict[str, str]:
    """The ``types`` map that re-reads write_csv output with original types.

    Kinds are taken from the values present in the log, so
    parse_csv(write_csv(log), roundtrip_mapping(log)) reproduces it exactly.
    """
    types: dict[str, str] = {}
    for trace in log:
        for key, value in trace.attributes.items():
            types.setdefault(CASE_PREFIX + key, _attr_text(value)[0])
        for event in trace.events:
            for key, value in event.attributes.items():
                types.setdefault(key, _attr_text(value)[0])
    return types
