"""CSV ingestion and export for event logs.

The default column layout is ``case_id,activity,timestamp`` (RFC-4180, UTF-8).
Extra columns become event attributes; columns prefixed ``case:`` become trace
attributes (written once per case, repeated on every row). All non-core values
are ingested as strings unless a type map says otherwise, so nothing is
silently coerced. Values are parsed and spelled by the attribute codec in
``eventlog`` (``_PARSERS`` and ``_attr_text``), which XES shares, so a value
reads the same in both formats.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .errors import CsvFormatError
from .eventlog import _PARSERS, AttrValue, Event, EventLog, Trace, _attr_text
from .timeutil import format_timestamp, parse_timestamp

CASE_PREFIX = "case:"


@dataclass(frozen=True)
class ColumnMapping:
    """Names of the core columns plus parse options."""

    case: str = "case_id"
    activity: str = "activity"
    timestamp: str = "timestamp"
    timestamp_format: str | None = None
    # column name -> one of 'string' | 'int' | 'float' | 'boolean' (or 'bool') | 'date'
    type_map: dict[str, str] = field(default_factory=dict)


DEFAULT_MAPPING = ColumnMapping()


def _convert(column: str, raw: str, mapping: ColumnMapping, row_no: int) -> AttrValue:
    kind = mapping.type_map.get(column, "string")
    try:
        parser = _PARSERS["boolean" if kind == "bool" else kind]
    except KeyError:
        raise CsvFormatError(f"unknown type {kind!r} for column {column!r}")
    try:
        return parser(raw)
    except ValueError:
        raise CsvFormatError(f"cannot parse {raw!r} as {kind} in column {column!r}", row=row_no)


def parse_csv(text: str, mapping: ColumnMapping = DEFAULT_MAPPING, name: str = "") -> EventLog:
    """Parse CSV text into an event log.

    One trace per distinct case id, in order of first appearance; events are
    sorted by timestamp within each trace (stable for ties). Empty input gives
    an empty log.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        return EventLog((), name=name)
    for core in (mapping.case, mapping.activity, mapping.timestamp):
        if core not in header:
            raise CsvFormatError(f"missing mapped column {core!r} in header")
    idx = {col: i for i, col in enumerate(header)}
    extra_cols = [c for c in header if c not in (mapping.case, mapping.activity, mapping.timestamp)]

    order: list[str] = []
    events: dict[str, list[Event]] = {}
    trace_attrs: dict[str, dict[str, AttrValue]] = {}
    for row_no, row in enumerate(reader, start=2):
        if not row or all(cell == "" for cell in row):
            continue
        if len(row) < len(header):
            row = row + [""] * (len(header) - len(row))
        case_id = row[idx[mapping.case]]
        activity = row[idx[mapping.activity]]
        ts_raw = row[idx[mapping.timestamp]]
        if not case_id or not activity:
            column = mapping.activity if case_id else mapping.case
            raise CsvFormatError(f"empty {column!r} cell", row=row_no)
        try:
            ts = parse_timestamp(ts_raw, mapping.timestamp_format)
        except ValueError:
            raise CsvFormatError(f"unparseable timestamp {ts_raw!r}", row=row_no)
        if case_id not in events:
            events[case_id] = []
            trace_attrs[case_id] = {}
            order.append(case_id)
        attrs: dict[str, AttrValue] = {}
        for col in extra_cols:
            raw = row[idx[col]]
            if raw == "":
                continue
            value = _convert(col, raw, mapping, row_no)
            if col.startswith(CASE_PREFIX):
                trace_attrs[case_id][col[len(CASE_PREFIX):]] = value
            else:
                attrs[col] = value
        events[case_id].append(Event(activity, ts, attrs))

    traces = []
    for case_id in order:
        evs = sorted(events[case_id], key=lambda e: e.timestamp)
        traces.append(Trace(case_id, tuple(evs), trace_attrs[case_id]))
    return EventLog(tuple(traces), name=name)


def write_csv(log: EventLog, mapping: ColumnMapping = DEFAULT_MAPPING) -> str:
    """Serialize a log to CSV, deterministically.

    Traces keep input order; attribute columns are sorted by name. Trace
    attributes are emitted under ``case:``-prefixed columns.
    """
    event_keys = sorted({k for t in log for e in t.events for k in e.attributes})
    trace_keys = sorted({k for t in log for k in t.attributes})
    header = [mapping.case, mapping.activity, mapping.timestamp]
    header += event_keys + [CASE_PREFIX + k for k in trace_keys]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for trace in log:
        case_cells = [_attr_text(trace.attributes[k])[1] if k in trace.attributes else ""
                      for k in trace_keys]
        for event in trace.events:
            row = [trace.case_id, event.activity,
                   format_timestamp(event.timestamp) if mapping.timestamp_format is None
                   else event.timestamp.strftime(mapping.timestamp_format)]
            row += [_attr_text(event.attributes[k])[1] if k in event.attributes else ""
                    for k in event_keys]
            row += case_cells
            writer.writerow(row)
    return buf.getvalue()


def roundtrip_mapping(log: EventLog, mapping: ColumnMapping = DEFAULT_MAPPING) -> ColumnMapping:
    """Build the mapping that re-reads write_csv output with original types.

    Attribute types are taken from the values present in the log, so
    parse_csv(write_csv(log), roundtrip_mapping(log)) reproduces it exactly.
    """
    type_map = dict(mapping.type_map)
    for trace in log:
        for key, value in trace.attributes.items():
            type_map.setdefault(CASE_PREFIX + key, _attr_text(value)[0])
        for event in trace.events:
            for key, value in event.attributes.items():
                type_map.setdefault(key, _attr_text(value)[0])
    return ColumnMapping(mapping.case, mapping.activity, mapping.timestamp,
                         mapping.timestamp_format, type_map)
