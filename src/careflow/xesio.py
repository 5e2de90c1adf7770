"""XES (XML event log) reading and writing.

Supported subset: ``<log>/<trace>/<event>`` with typed attribute elements
(string, int, float, boolean, date). ``concept:name`` carries case ids and
activity labels, ``time:timestamp`` the event instant. Any other child element
(extensions, classifiers, globals, nested lists) is kept as an opaque XML
snippet and written back verbatim, so foreign logs survive a round trip.
How a typed value is spelled is decided by the attribute codec in
``eventlog`` (``_PARSERS`` and ``_attr_text``), which CSV shares.
"""

from __future__ import annotations

import warnings
import xml.etree.ElementTree as ET
from datetime import datetime
from xml.sax.saxutils import quoteattr

from .errors import XesFormatError
from .eventlog import _PARSERS, AttrValue, Event, EventLog, Trace, _attr_text


class XesWarning(UserWarning):
    """Recoverable oddity in an XES document (e.g. a trace without a case id)."""


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _collect(elem: ET.Element) -> tuple[dict[str, AttrValue], list[str], list[ET.Element]]:
    """Split children into typed attributes, opaque snippets, and containers."""
    attrs: dict[str, AttrValue] = {}
    raw: list[str] = []
    containers: list[ET.Element] = []
    for child in elem:
        tag = _local(child.tag)
        if tag in ("trace", "event"):
            containers.append(child)
            continue
        key = child.get("key")
        value = child.get("value")
        if tag in _PARSERS and key is not None and value is not None and len(child) == 0:
            try:
                attrs[key] = _PARSERS[tag](value)
            except ValueError:
                raise XesFormatError(f"bad {tag} literal {value!r} for key {key!r}")
        else:
            raw.append(ET.tostring(child, encoding="unicode").strip())
    return attrs, raw, containers


def parse_xes(text: str) -> EventLog:
    """Parse an XES document into an event log.

    Traces without a ``concept:name`` get a synthetic case id and a warning is
    emitted; events must carry both an activity and a timestamp.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position
        raise XesFormatError(f"malformed XML: {exc.msg.split(':')[0]}", line=line, column=column)
    if _local(root.tag) != "log":
        raise XesFormatError(f"expected <log> root element, found <{_local(root.tag)}>")

    log_attrs, log_raw, traces_xml = _collect(root)
    log_name = log_attrs.pop("concept:name", "")
    if not isinstance(log_name, str):
        log_name = str(log_name)

    used_ids: set[str] = set()
    traces: list[Trace] = []
    for position, trace_xml in enumerate(traces_xml, start=1):
        if _local(trace_xml.tag) != "trace":
            raise XesFormatError("<event> element outside of a <trace>")
        trace_attrs, trace_raw, events_xml = _collect(trace_xml)
        case_id = trace_attrs.pop("concept:name", None)
        if case_id in (None, ""):
            case_id = f"case_{position}"
            while case_id in used_ids:
                case_id += "_x"
            warnings.warn(f"trace #{position} lacks concept:name; assigned {case_id!r}", XesWarning)
        case_id = str(case_id)
        if case_id in used_ids:
            raise XesFormatError(f"trace #{position} repeats case id {case_id!r}")
        used_ids.add(case_id)

        events: list[Event] = []
        for event_xml in events_xml:
            if _local(event_xml.tag) != "event":
                raise XesFormatError("<trace> nested inside a <trace>")
            event_attrs, event_raw, nested = _collect(event_xml)
            if nested:
                raise XesFormatError("<trace>/<event> nested inside an <event>")
            activity = event_attrs.pop("concept:name", None)
            if activity in (None, ""):
                raise XesFormatError(f"event without concept:name in case {case_id!r}")
            timestamp = event_attrs.pop("time:timestamp", None)
            if not isinstance(timestamp, datetime):
                raise XesFormatError(f"event without time:timestamp in case {case_id!r}")
            events.append(Event(str(activity), timestamp, event_attrs, tuple(event_raw)))
        traces.append(Trace(case_id, tuple(events), trace_attrs, tuple(trace_raw)))

    return EventLog(tuple(traces), name=log_name, attributes=log_attrs,
                    raw_extensions=tuple(log_raw))


def _emit_attrs(lines: list[str], indent: str, attrs: dict[str, AttrValue], raw: tuple[str, ...]):
    for key in sorted(attrs):
        kind, text = _attr_text(attrs[key])
        lines.append(f"{indent}<{kind} key={quoteattr(key)} value={quoteattr(text)}/>")
    for snippet in raw:
        lines.append(indent + snippet)


def write_xes(log: EventLog) -> str:
    """Serialize a log as XES; output is deterministic and round-trip safe.

    Traces keep input order, attributes are sorted by key, opaque snippets are
    written back after the typed attributes of their owner.
    """
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', '<log xes.version="1.0">']
    log_attrs = dict(log.attributes)
    if log.name:
        log_attrs["concept:name"] = log.name
    _emit_attrs(lines, "  ", log_attrs, log.raw_extensions)
    for trace in log:
        lines.append("  <trace>")
        trace_attrs = dict(trace.attributes)
        trace_attrs["concept:name"] = trace.case_id
        _emit_attrs(lines, "    ", trace_attrs, trace.raw_extensions)
        for event in trace.events:
            lines.append("    <event>")
            event_attrs = dict(event.attributes)
            event_attrs["concept:name"] = event.activity
            event_attrs["time:timestamp"] = event.timestamp
            _emit_attrs(lines, "      ", event_attrs, event.raw_extensions)
            lines.append("    </event>")
        lines.append("  </trace>")
    lines.append("</log>")
    lines.append("")
    return "\n".join(lines)


def sniff_format(path: str) -> str:
    """Guess 'xes' or 'csv' from a file name."""
    lowered = path.lower()
    if lowered.endswith(".xes") or lowered.endswith(".xml"):
        return "xes"
    if lowered.endswith(".csv"):
        return "csv"
    raise ValueError(f"cannot infer log format from {path!r}; expected .xes or .csv")
