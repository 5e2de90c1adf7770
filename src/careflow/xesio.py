"""XES (XML event log) reading and writing.

Supported subset: ``<log>/<trace>/<event>`` with typed attribute elements
(string, int, float, boolean, date). ``concept:name`` carries case ids and
activity labels, ``time:timestamp`` the event instant. Any other child element
(extensions, classifiers, globals, nested lists) is kept as an opaque XML
snippet and written back verbatim, so foreign logs survive a round trip.
How a typed value is spelled is decided by the attribute codec in
``eventlog`` (``_PARSERS`` and ``_attr_text``), which CSV shares.

``parse_xes`` first tries a canonical reader, which takes only the layout
``write_xes`` emits for events that carry just an activity and a timestamp. It
matches each trace with one regex and its events with one ``findall`` (linear
in the text), and builds the same records as the fallback reader. It declines
any other document: a value holding markup or a character XML normalises or
forbids, a trace without a case id or with a repeated one, an empty activity, a
bad typed literal, text after ``</log>``. ``parse_xes`` then reads the whole
text with the fallback, so every warning and error comes from the fallback.

The fallback streams through ElementTree's pull parser: each ``<trace>`` is read
when it closes and then removed from the tree, so the tree holds the log's own
children and the traces of one chunk of text, never the whole document.
"""

from __future__ import annotations

import re
import warnings
import xml.etree.ElementTree as ET
from collections.abc import Iterator
from datetime import datetime
from sys import intern

from .errors import XesFormatError
from .eventlog import (_PARSERS, AttrValue, Event, EventLog, Trace, _attr_text,
                       _normalize_attrs, _text, _without_cycle_collection)
from .timeutil import _utc_speller

# characters fed to the pull parser at a time: it encodes each feed to UTF-8, and holds
# every trace the feed closes until they are read, so one feed of the whole text would
# hold a copy of it and a tree of it at once
_CHUNK = 1 << 16


class XesWarning(UserWarning):
    """Recoverable oddity in an XES document (e.g. a trace without a case id)."""


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _collect(elem: ET.Element, keys: dict[str, str]
             ) -> tuple[dict[str, AttrValue], list[str], list[ET.Element]]:
    """Split children into typed attributes, opaque snippets, and containers.

    ``keys`` holds one copy of each attribute key: sys.intern would drop and re-add
    the keys popped from every event, churning the interpreter's table.
    """
    attrs: dict[str, AttrValue] = {}
    raw: list[str] = []
    containers: list[ET.Element] = []
    for child in elem:
        tag = _local(child.tag)
        if tag == "trace" or tag == "event":
            containers.append(child)
            continue
        key, value = child.get("key"), child.get("value")
        if tag in _PARSERS and key is not None and value is not None and len(child) == 0:
            try:
                attrs[keys.setdefault(key, key)] = _PARSERS[tag](value)
            except ValueError:
                raise XesFormatError(f"bad {tag} literal {value!r} for key {key!r}")
        else:
            raw.append(ET.tostring(child, encoding="unicode").strip())
    return attrs, raw, containers


def _trace(trace_xml: ET.Element, position: int, used_ids: set[str], notes: list[str],
           keys: dict[str, str]) -> Trace:
    """A child container of ``<log>`` read as a trace; warnings go to ``notes``."""
    if _local(trace_xml.tag) != "trace":
        raise XesFormatError("<event> element outside of a <trace>")
    trace_attrs, trace_raw, events_xml = _collect(trace_xml, keys)
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
        event_attrs, event_raw, nested = _collect(event_xml, keys)
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
    yield from parser.read_events()  # what a parser that defers reparsing held back


# write_xes's own layout: a key or value free of markup, of what XML normalises
# (tab, LF, CR) and of what it forbids (C0 controls, U+FFFE, U+FFFF, surrogates)
_TEXT = '[^&<"\\x00-\\x1f\\ud800-\\udfff\\ufffe\\uffff]*'
_KINDS = "|".join(_PARSERS)
_LINE = f'<(?:{_KINDS}) key="{_TEXT}" value="{_TEXT}"/>\n'
_CANONICAL_LOG = re.compile(
    f'<\\?xml version="1\\.0" encoding="UTF-8"\\?>\n<log xes\\.version="1\\.0">\n(?:  {_LINE})*')
_CANONICAL_TRACE = re.compile(
    f'  <trace>\n((?:    {_LINE})*)((?:    <event>\n      <string key="concept:name" '
    f'value="{_TEXT}"/>\n      <date key="time:timestamp" value="{_TEXT}"/>\n    </event>\n)*)'
    '  </trace>\n')
_CANONICAL_TYPED = re.compile(f'<({_KINDS}) key="({_TEXT})" value="({_TEXT})"/>')
_CANONICAL_EVENT = re.compile(
    f'"concept:name" value="({_TEXT})"/>\n      <date key="time:timestamp" value="({_TEXT})"/>')


def _read_canonical(text: str) -> EventLog | None:
    """The log of a document in the canonical layout, or None for the fallback to read it."""
    head = _CANONICAL_LOG.match(text)
    if head is None:
        return None
    keys: dict[str, str] = {}  # one copy of each attribute key, as the fallback keeps

    def typed(items: list | tuple) -> dict[str, AttrValue]:
        return {keys.setdefault(key, key): _PARSERS[kind](value) for kind, key, value in items}

    date = _PARSERS["date"]
    traces: list[Trace] = []
    # a trace's attributes other than its case id, decoded once per distinct set of
    # (kind, key, value) texts: equal values of other kinds or signs stay apart
    shared: dict[tuple[tuple[str, str, str], ...], dict[str, AttrValue]] = {}
    at = head.end()
    try:
        log_attrs = typed(_CANONICAL_TYPED.findall(text, 0, at))
        while (trace := _CANONICAL_TRACE.match(text, at)) is not None:
            items = _CANONICAL_TYPED.findall(text, *trace.span(1))
            names = typed([item for item in items if item[1] == "concept:name"])
            rest = tuple(item for item in items if item[1] != "concept:name")
            attrs = shared.get(rest) or shared.setdefault(rest, _normalize_attrs(typed(rest)))
            events = tuple([Event(intern(activity), date(timestamp)) for activity, timestamp
                            in _CANONICAL_EVENT.findall(text, *trace.span(2))])
            traces.append(Trace(str(names.get("concept:name", "")), events, attrs))
            at = trace.end()
        if text[at:] != "</log>\n":
            return None
        return EventLog(tuple(traces), name=str(log_attrs.pop("concept:name", "")),
                        attributes=log_attrs)
    except ValueError:  # a bad literal, an empty activity or case id, a repeated case id
        return None


@_without_cycle_collection
def parse_xes(text: str) -> EventLog:
    """Parse an XES document into an event log.

    Traces without a ``concept:name`` get a synthetic case id and a warning is
    emitted; events must carry both an activity and a timestamp. Errors rank as in a
    reader that encodes and parses the whole text first: a surrogate, malformed XML, the
    root, the log's attributes, the first bad container (after the warnings before it).
    """
    log = _read_canonical(text)
    if log is not None:
        return log
    surrogate = re.search("[\ud800-\udfff]", text)
    if surrogate is not None:  # UTF-8 cannot encode it: fail as encoding the whole text would
        at = surrogate.start()
        raise XesFormatError(f"unencodable surrogate {surrogate.group()!r}",
                             line=text.count("\n", 0, at) + 1,
                             column=at - text.rfind("\n", 0, at) - 1)
    root, depth, traces, used_ids, notes, keys, error = None, 0, [], set(), [], {}, None
    try:
        for kind, elem in _pull(text):
            if kind == "start":
                root = elem if root is None else root
                depth += 1
                continue
            depth -= 1
            if depth == 1 and _local(elem.tag) in ("trace", "event"):
                root.remove(elem)  # later children of the log may have been read already
                if error is None:
                    try:
                        traces.append(_trace(elem, len(traces) + 1, used_ids, notes, keys))
                    except XesFormatError as exc:
                        error = exc
    except ET.ParseError as exc:
        exc.__traceback__ = None  # it holds the frame that holds it: a reference cycle
        line, column = exc.position
        raise XesFormatError(f"malformed XML: {exc.msg.split(':')[0]}", line=line, column=column)
    if _local(root.tag) != "log":
        raise XesFormatError(f"expected <log> root element, found <{_local(root.tag)}>")
    log_attrs, log_raw, _ = _collect(root, keys)
    log_name = str(log_attrs.pop("concept:name", ""))
    for note in notes:
        warnings.warn(note, XesWarning)
    if error is not None:
        raise error
    return EventLog(tuple(traces), name=log_name, attributes=log_attrs,
                    raw_extensions=tuple(log_raw))


# what XML 1.0 forbids in a document: C0 controls but tab, LF and CR, lone surrogates
# (which UTF-8 cannot encode either), U+FFFE and U+FFFF
_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_ESCAPED = re.compile('[&<>"\n\r\t]')  # what _quote escapes, and '"', which it may single-quote


def _escape(text: str) -> str:
    """``text`` as XML element text: CR as a reference, which end-of-line handling would
    read back as LF."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;").replace(
        "\r", "&#13;")


def _quote(text: str) -> str:
    """``text`` as a quoted XML attribute value, spelled as ``xml.sax.saxutils.quoteattr``
    spells it: single quotes when it holds '"' but no "'", else '"' as ``&quot;``."""
    if _ESCAPED.search(text) is None:
        return f'"{text}"'
    text = _escape(text).replace("\n", "&#10;").replace("\t", "&#9;")
    if '"' in text and "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _emit_attrs(indent: str, fields: dict[str, AttrValue | None], attrs: dict[str, AttrValue],
                raw: tuple[str, ...]) -> Iterator[str]:
    """The lines of a record's fields, keyed as XES reserves (None: not written), and of
    its other ``attrs`` (none reserved: see ``_document``), sorted by key; then its snippets."""
    for key in sorted([*attrs, *fields]):
        value = attrs[key] if key in attrs else fields[key]
        if value is not None:
            kind, text = _attr_text(value)
            yield f"{indent}<{kind} key={_quote(key)} value={_quote(text)}/>\n"
    for snippet in raw:
        yield f"{indent}{snippet}\n"


def _trace_head(attrs: dict[str, AttrValue]) -> tuple[str, str]:
    """What ``_emit_attrs`` spells for a trace with these ``attrs`` (which hold no case id,
    see ``_refusal``) before and after its quoted case id, up to its snippets."""
    before = {key: value for key, value in attrs.items() if key < "concept:name"}
    after = {key: value for key, value in attrs.items() if key > "concept:name"}
    return ("".join(["  <trace>\n", *_emit_attrs("    ", {}, before, ()),
                     '    <string key="concept:name" value=']),
            "".join(["/>\n", *_emit_attrs("    ", {}, after, ())]))


_EVENT_TAIL = '"/>\n    </event>\n'


def _lines(log: EventLog) -> Iterator[str]:
    yield '<?xml version="1.0" encoding="UTF-8"?>\n<log xes.version="1.0">\n'
    yield from _emit_attrs("  ", {"concept:name": log.name or None}, log.attributes,
                           log.raw_extensions)
    # each label's event without attributes, spelled up to its timestamp, and each trace
    # attribute dict's lines, by its id: the log holds every dict while it is written
    heads: dict[str, str] = {}
    trace_heads: dict[int, tuple[str, str]] = {}
    spell = _utc_speller()  # an Event's timestamp is UTC
    for trace in log:
        around = trace_heads.get(id(trace.attributes))
        if around is None:
            around = trace_heads[id(trace.attributes)] = _trace_head(trace.attributes)
        yield f"{around[0]}{_quote(trace.case_id)}{around[1]}"
        for snippet in trace.raw_extensions:
            yield f"    {snippet}\n"
        for event in trace.events:
            if not event.attributes and not event.raw_extensions:  # what _emit_attrs spells
                head = heads.get(event.activity)
                if head is None:
                    head = heads[event.activity] = (
                        '    <event>\n      <string key="concept:name" value='
                        f'{_quote(event.activity)}/>\n      <date key="time:timestamp" value="')
                yield f"{head}{spell(event.timestamp)}{_EVENT_TAIL}"
                continue
            yield "    <event>\n"
            yield from _emit_attrs("      ", {"concept:name": event.activity,
                                              "time:timestamp": event.timestamp},
                                   event.attributes, event.raw_extensions)
            yield "    </event>\n"
        yield "  </trace>\n"
    yield "</log>\n"


def _refusal(log: EventLog) -> str | None:
    """Why ``log`` cannot be written, for its first record in document order that has an
    attribute named like a field XES spells (it would read back as that field) or a text
    holding a character XML forbids (the document would not read back); None if it can.
    Each label and attribute dict is searched once, however many records share it."""
    labels: set[str] = set()
    searched: set[int] = set()  # ids of attribute dicts

    def fault(reserved: tuple[str, ...], field: str, text: str,
              attrs: dict[str, AttrValue]) -> str | None:
        for key in reserved:
            if key in attrs:
                return f"has an attribute {key!r}, a key XES reserves"
        found = _FORBIDDEN.search(text)
        if found is None and id(attrs) not in searched:
            searched.add(id(attrs))
            for key, value in attrs.items():
                if (found := _FORBIDDEN.search(key)) is not None:
                    field = f"the key {key!r}"
                    break
                if isinstance(value, str) and (found := _FORBIDDEN.search(value)) is not None:
                    field = f"the value of {key!r}"
                    break
        return None if found is None else (f"holds {found.group()!r} in {field}, "
                                           "a character XML cannot carry")

    if (found := fault(("concept:name",), "its name", log.name, log.attributes)) is not None:
        return f"the log {found}"
    for trace in log:
        found = fault(("concept:name",), "its case id", trace.case_id, trace.attributes)
        if found is not None:
            return f"case {trace.case_id!r} {found}"
        for event in trace.events:
            if event.attributes or event.activity not in labels:
                labels.add(event.activity)
                found = fault(("concept:name", "time:timestamp"), "its activity",
                              event.activity, event.attributes)
                if found is not None:
                    return f"an event of case {trace.case_id!r} {found}"
    return None


def _document(log: EventLog) -> Iterator[str]:
    """The lines of ``log``'s XES document, each with its line end. A log ``_refusal``
    refuses raises XesFormatError here, before the first line, so a caller that writes
    the lines as they come leaves no partial file."""
    refused = _refusal(log)
    if refused is not None:
        raise XesFormatError(refused)
    return _lines(log)


def write_xes(log: EventLog) -> str:
    """Serialize a log as XES; output is deterministic and round-trip safe.

    Traces keep input order, attributes are sorted by key, opaque snippets are
    written back after the typed attributes of their owner. An attribute named
    like a field XES spells as an attribute (``concept:name`` of the log, a
    trace or an event, an event's ``time:timestamp``) raises XesFormatError, and
    so does a name, case id, activity, key or string value holding a character
    XML forbids (``_FORBIDDEN``).
    """
    return _text(_document(log))
