"""XES (XML event log) reading and writing.

Supported subset: ``<log>/<trace>/<event>`` with typed attribute elements
(string, int, float, boolean, date). ``concept:name`` carries case ids and
activity labels, ``time:timestamp`` the event instant. Any other child element
(extensions, classifiers, globals, nested lists) is kept as an opaque XML
snippet and written back verbatim, so foreign logs survive a round trip.
How a typed value is spelled is decided by the attribute codec in
``eventlog`` (``_PARSERS`` and ``_attr_text``), which CSV shares.

The reader streams: it reads each ``<trace>`` as it closes and drops its
elements, so memory follows the log rather than a tree of the document.
"""

from __future__ import annotations

import re
import warnings
import xml.etree.ElementTree as ET
from datetime import datetime
from sys import intern
from xml.sax.saxutils import quoteattr

from .errors import CareflowError, XesFormatError
from .eventlog import _PARSERS, AttrValue, Event, EventLog, Trace, _attr_text

# characters fed to the parser at a time: with few parsed elements waiting to be read,
# few live long enough for the garbage collector to promote them and collect in full
_CHUNK = 1 << 12


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
        tag = child.tag
        tag = _local(tag) if "}" in tag else tag
        if tag in ("trace", "event"):
            containers.append(child)
            continue
        key = child.get("key")
        value = child.get("value")
        if tag in _PARSERS and key is not None and value is not None and len(child) == 0:
            try:
                attrs[intern(key)] = _PARSERS[tag](value)  # one copy of each key
            except ValueError:
                raise XesFormatError(f"bad {tag} literal {value!r} for key {key!r}")
        else:
            raw.append(ET.tostring(child, encoding="unicode").strip())
    return attrs, raw, containers


def _trace(trace_xml: ET.Element, position: int, used_ids: set[str], notes: list[str]) -> Trace:
    """A child container of ``<log>`` read as a trace; warnings go to ``notes``."""
    if _local(trace_xml.tag) != "trace":
        raise XesFormatError("<event> element outside of a <trace>")
    trace_attrs, trace_raw, events_xml = _collect(trace_xml)
    case_id = trace_attrs.pop("concept:name", None)
    if case_id in (None, ""):
        case_id = f"case_{position}"
        while case_id in used_ids:
            case_id += "_x"
        notes.append(f"trace #{position} lacks concept:name; assigned {case_id!r}")
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
        events.append(Event(intern(str(activity)), timestamp, event_attrs, tuple(event_raw)))
    return Trace(case_id, tuple(events), trace_attrs, tuple(trace_raw))


def _pull(text: str):
    """The ``(event, element)`` pairs of a start/end pull parse of ``text``."""
    parser = ET.XMLPullParser(("start", "end"))
    for at in range(0, len(text), _CHUNK):
        parser.feed(text[at:at + _CHUNK])
        yield from parser.read_events()
    parser.close()


def parse_xes(text: str) -> EventLog:
    """Parse an XES document into an event log.

    Traces without a ``concept:name`` get a synthetic case id and a warning is
    emitted; events must carry both an activity and a timestamp. Errors rank as
    in a reader that parses first: malformed XML, the root, the log's own
    attributes, the first bad container (after the warnings of the traces before it).
    """
    root, depth, traces, used_ids, notes, error = None, 0, [], set(), [], None
    try:
        for kind, elem in _pull(text):
            if kind == "start":
                root = elem if root is None else root
                depth += 1
                continue
            depth -= 1
            if depth == 1 and _local(elem.tag) in ("trace", "event"):
                del root[-1]  # the container closing is the log's last child
                if error is None:
                    try:
                        traces.append(_trace(elem, len(traces) + 1, used_ids, notes))
                    except XesFormatError as exc:
                        error = exc
    except ET.ParseError as exc:
        line, column = exc.position
        raise XesFormatError(f"malformed XML: {exc.msg.split(':')[0]}", line=line, column=column)
    if _local(root.tag) != "log":
        raise XesFormatError(f"expected <log> root element, found <{_local(root.tag)}>")

    log_attrs, log_raw, _ = _collect(root)
    log_name = log_attrs.pop("concept:name", "")
    if not isinstance(log_name, str):
        log_name = str(log_name)
    for note in notes:
        warnings.warn(note, XesWarning)
    if error is not None:
        raise error
    return EventLog(tuple(traces), name=log_name, attributes=log_attrs,
                    raw_extensions=tuple(log_raw))


_ESCAPED = re.compile('[&<>"\n\r\t]')  # what quoteattr escapes, and '"', which it may single-quote


def _quote(text: str) -> str:
    """``quoteattr(text)``, without its replace passes where nothing needs escaping."""
    return quoteattr(text) if _ESCAPED.search(text) else f'"{text}"'


def _emit_attrs(lines: list[str], indent: str, attrs: dict[str, AttrValue], raw: tuple[str, ...]):
    for key in sorted(attrs):
        kind, text = _attr_text(attrs[key])
        lines.append(f"{indent}<{kind} key={_quote(key)} value={_quote(text)}/>")
    for snippet in raw:
        lines.append(indent + snippet)


def _free(attrs: dict[str, AttrValue], owner: str, *reserved: str) -> dict[str, AttrValue]:
    """A copy of ``attrs``, which must not hold the keys XES spells ``owner``'s own fields with."""
    for key in reserved:
        if key in attrs:
            raise XesFormatError(f"{owner} has an attribute {key!r}, a key XES reserves")
    return dict(attrs)


def write_xes(log: EventLog) -> str:
    """Serialize a log as XES; output is deterministic and round-trip safe.

    Traces keep input order, attributes are sorted by key, opaque snippets are
    written back after the typed attributes of their owner. An attribute named
    like a field XES spells as an attribute (``concept:name`` of the log, a
    trace or an event, an event's ``time:timestamp``) raises XesFormatError.
    """
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', '<log xes.version="1.0">']
    log_attrs = _free(log.attributes, "the log", "concept:name")
    if log.name:
        log_attrs["concept:name"] = log.name
    _emit_attrs(lines, "  ", log_attrs, log.raw_extensions)
    for trace in log:
        lines.append("  <trace>")
        trace_attrs = _free(trace.attributes, f"case {trace.case_id!r}", "concept:name")
        trace_attrs["concept:name"] = trace.case_id
        _emit_attrs(lines, "    ", trace_attrs, trace.raw_extensions)
        in_trace = f"an event of case {trace.case_id!r}"
        for event in trace.events:
            lines.append("    <event>")
            event_attrs = _free(event.attributes, in_trace, "concept:name", "time:timestamp")
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
    raise CareflowError(f"cannot infer log format from {path!r}; expected .xes or .csv")
