"""CSV ingestion and export for event logs.

The layout is fixed: RFC-4180, UTF-8, with a header that names the core
columns ``case_id``, ``activity`` and ``timestamp`` (an ISO-8601 instant), in
any order. Extra columns become event attributes; columns prefixed ``case:``
become trace attributes (written once per case, repeated on every row). Extra
values are read as strings unless a ``types`` map gives their column one of
the kinds ``string``, ``int``, ``float``, ``boolean`` (or ``bool``) and
``date``, so nothing is silently coerced. The one exception is
``case:complete``, which marks ongoing cases: it is read as ``boolean`` unless
``types`` names another kind, so ``false`` marks an ongoing case in CSV as in
XES. Values are parsed and spelled by the attribute codec in ``eventlog``
(``_PARSERS`` and ``_attr_text``), which XES shares, so a value reads the same
in both formats.
"""

from __future__ import annotations

import csv
import re
from collections.abc import Iterator
from itertools import chain
from sys import intern

from .errors import CsvFormatError
from .eventlog import (_PARSERS, AttrValue, Event, EventLog, Trace, _attr_text,
                       _normalize_attrs, _text, _without_cycle_collection)
from .timeutil import _utc_speller, parse_timestamp

CASE_PREFIX = "case:"
CORE = ("case_id", "activity", "timestamp")


# a line of text: up to and with its "\n", or the text's last characters
_LINE = re.compile("[^\n]*\n|[^\n]+")
_CHUNK = 1 << 16  # characters split into lines at a time


def _lines(text: str, start: int = 0) -> Iterator[str]:
    """Lines of ``text`` from ``start`` on, split after each ``"\\n"`` as ``io.StringIO`` splits.

    Only slices of ``text`` are made, a chunk's lines at a time; ``io.StringIO``
    would hold a copy of it at four bytes a character, and the list of all its
    lines would hold every line at once.
    """
    return chain.from_iterable(_chunks(text, start))


def _chunks(text: str, start: int) -> Iterator[list[str]]:
    end = len(text)
    while start < end:
        stop = text.find("\n", start + _CHUNK) + 1 or end
        yield _LINE.findall(text, start, stop)
        start = stop


def _quoted(cell: str) -> str:
    """``cell`` as a CSV field, quoted only where ``csv.writer`` quotes it (by default)."""
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cell(parse, raw: str, kinds: dict[str, str], column: str, row: int) -> AttrValue:
    try:
        return parse(raw)
    except ValueError:
        raise CsvFormatError(f"cannot parse {raw!r} as {kinds[column]} in column {column!r}",
                             row=row)


def _unreadable(error: csv.Error, row: int) -> CsvFormatError:
    """A row the csv module refuses: a field past ``csv.field_size_limit()``, a NUL (3.10),
    a bare CR outside quotes."""
    return CsvFormatError(f"cannot read the row: {error}", row=row)


@_without_cycle_collection
def parse_csv(text: str, types: dict[str, str] | None = None) -> EventLog:
    """Parse CSV text into an event log; ``types`` maps extra columns to kinds.

    ``case:complete`` is ``boolean`` unless ``types`` says otherwise. Every kind
    in ``types`` is checked before the first row is read. One trace
    per distinct case id, in order of first appearance; ``Trace`` sorts its
    events by timestamp (stable for ties). Empty input gives an empty log. A
    leading byte order mark (U+FEFF), which spreadsheet tools write, is skipped.
    Short rows are padded; a non-empty cell past the header's columns is an error.
    """
    kinds = {CASE_PREFIX + "complete": "boolean", **(types or {})}  # Trace.complete reads a bool
    parsers = {}
    for column, kind in kinds.items():
        parser = _PARSERS.get("boolean" if kind == "bool" else kind)
        if parser is None:
            raise CsvFormatError(f"unknown type {kind!r} for column {column!r}")
        parsers[column] = parser
    reader = csv.reader(_lines(text, 1 if text.startswith("\ufeff") else 0))
    try:
        header = next(reader)
    except StopIteration:
        return EventLog()
    except csv.Error as exc:
        raise _unreadable(exc, 1) from None
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
    event_columns = any(seen is None for *_, seen in extra)

    width = len(header)
    cases: dict[str, tuple[list[Event], dict[str, AttrValue]]] = {}
    row_no = 1
    try:
        for row_no, row in enumerate(reader, start=2):
            if not any(row):
                continue
            if len(row) < width:
                row = row + [""] * (width - len(row))
            elif len(row) > width and any(row[width:]):
                raise CsvFormatError(f"a cell beyond the header's {width} columns", row=row_no)
            case_id = row[case_at]
            activity = intern(row[activity_at])  # one copy of each label
            ts_raw = row[timestamp_at]
            if not case_id or not activity:
                raise CsvFormatError(f"empty {'activity' if case_id else 'case_id'!r} cell",
                                     row=row_no)
            try:
                ts = parse_timestamp(ts_raw)
            except ValueError:
                raise CsvFormatError(f"unparseable timestamp {ts_raw!r}", row=row_no)
            case = cases.get(case_id)
            if case is None:
                case = cases[case_id] = ([], {})
            attrs: dict[str, AttrValue] | None = {} if event_columns else None
            for at, col, parse, key, seen in extra:
                raw = row[at]
                if raw == "":
                    continue
                if seen is None:
                    attrs[key] = _cell(parse, raw, kinds, col, row_no)
                    continue
                value = seen.get(raw)
                if value is None:  # no kind parses to None
                    value = seen[raw] = _cell(parse, raw, kinds, col, row_no)
                case[1][key] = value
            case[0].append(Event(activity, ts, attrs))
    except csv.Error as exc:  # the reader's own, on the row after row_no
        raise _unreadable(exc, row_no + 1) from None
    # one read-only dict per set of case values told apart by identity (the seen memos keep
    # each alive and give equal texts one object), so 1, True, 1.0 and -0.0, 0.0 stay apart
    shared: dict[tuple[tuple[str, int], ...], dict[str, AttrValue]] = {}
    traces = []
    for case_id, (events, attrs) in cases.items():
        key = tuple([(k, id(v)) for k, v in attrs.items()])
        attrs = shared.get(key) or shared.setdefault(key, _normalize_attrs(attrs))
        traces.append(Trace(case_id, tuple(events), attrs))
    return EventLog(tuple(traces))


def _cells(attrs: dict[str, AttrValue], keys: list[str]) -> str:
    """The cells of ``keys`` in ``attrs``, each after a comma, empty where a key is absent."""
    return "".join("," + _quoted(_attr_text(attrs[k])[1]) if k in attrs else "," for k in keys)


def _document(log: EventLog) -> Iterator[str]:
    """The lines of ``log``'s CSV document, each with its CRLF. An event attribute named like a
    core or a ``case:`` column, which parse_csv would refuse or misread, raises here."""
    event_keys = sorted({k for t in log for e in t.events for k in e.attributes})
    for key in event_keys:
        if key in CORE or key.startswith(CASE_PREFIX):
            raise CsvFormatError(f"an event has an attribute {key!r}, a column name CSV reserves")
    return _rows(log, event_keys)


def _rows(log: EventLog, event_keys: list[str]) -> Iterator[str]:
    trace_keys = sorted({k for t in log for k in t.attributes})
    header = [*CORE, *event_keys, *(CASE_PREFIX + k for k in trace_keys)]
    no_event_cells = "," * len(event_keys)
    labels: dict[str, str] = {}  # each activity quoted once
    spell = _utc_speller()  # an Event's timestamp is UTC
    yield ",".join(map(_quoted, header)) + "\r\n"
    for trace in log:
        case_id = _quoted(trace.case_id)
        case_cells = _cells(trace.attributes, trace_keys)
        for event in trace.events:
            label = labels.get(event.activity)
            if label is None:
                label = labels[event.activity] = _quoted(event.activity)
            event_cells = _cells(event.attributes, event_keys) if event.attributes else no_event_cells
            yield f"{case_id},{label},{spell(event.timestamp)}{event_cells}{case_cells}\r\n"


def write_csv(log: EventLog) -> str:
    """Serialize a log to CSV, deterministically.

    Traces keep input order; attribute columns are sorted by name. Trace
    attributes are emitted under ``case:``-prefixed columns. Rows end in CRLF
    and are quoted as ``csv.writer`` quotes them. An event attribute named
    ``case_id``, ``activity``, ``timestamp`` or ``case:...`` raises CsvFormatError.
    """
    return _text(_document(log))


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
