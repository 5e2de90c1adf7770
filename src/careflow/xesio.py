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
in the text), and builds the same records as the expat reader. It declines any
other document: a value holding markup or a character XML normalises or
forbids, a trace without a case id or with a repeated one, an empty activity, a
bad typed literal, text after ``</log>``. ``parse_xes`` then reads the whole
text with expat, so every warning and error comes from the expat reader.

The expat reader runs on expat's start, end and text handlers and builds no
element for the log's own structure: a typed attribute is decoded from the
attribute dict of its start tag, and each event and trace is built when its
end tag is read. Only an opaque snippet, or a typed element that turns out to
hold a child, is built as an ElementTree subtree and serialised when it closes.
"""

from __future__ import annotations

import re
import warnings
import xml.etree.ElementTree as ET
from datetime import datetime
from sys import intern
from xml.parsers import expat
from xml.sax.saxutils import quoteattr

from .errors import CareflowError, XesFormatError
from .eventlog import (_PARSERS, AttrValue, Event, EventLog, Trace, _attr_text,
                       _without_cycle_collection)
from .timeutil import format_timestamp

# characters fed to expat at a time: one UTF-8 copy of the whole text would be held
# at once, and smaller chunks cost more calls for no saving
_CHUNK = 1 << 16


class XesWarning(UserWarning):
    """Recoverable oddity in an XES document (e.g. a trace without a case id)."""


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _qname(name: str) -> str:
    """ElementTree's spelling of an expat name: ``uri}local`` becomes ``{uri}local``."""
    return "{" + name if "}" in name else name


class _Container:
    """An open ``<log>``, ``<trace>`` or ``<event>`` and what its children gave so far."""

    __slots__ = ("attrs", "raw", "error", "events", "problem")

    def __init__(self):
        self.attrs: dict[str, AttrValue] = {}
        self.raw: list[str] = []
        self.error = None  # the first bad typed literal among its own children
        self.events: list[Event] = []  # a trace's events, up to its first bad one
        # a trace's first bad event (an error, or the name of the field it lacks),
        # or the container nested in an event
        self.problem = None


class _Reader:
    """expat handlers that build the log as the text is fed (see ``parse_xes``).

    The handlers in place follow where the parser is: at container level, in a
    typed attribute, in an opaque snippet or a skipped container, or right after
    a snippet, whose tail text is still to come. Text is read only where it can
    end up in a snippet. No handler raises for a bad container: the first one
    is kept in ``error`` and raised after the parse, so a later malformed-XML
    error still ranks first.
    """

    def __init__(self, parser):
        self.parser = parser
        self.root = None  # the local name of the root element
        self.log = _Container()
        self.open = [self.log]  # the log, then the open trace, then the open event
        self.traces: list[Trace] = []
        self.used_ids: set[str] = set()
        self.notes: list[str] = []  # warnings of the traces read before any error
        self.error = None  # the first bad container of the log
        self.names: dict[str, str] = {}  # expat name -> local name
        # one copy of each attribute key; sys.intern would drop and re-add the keys
        # popped from every event, churning (and regrowing) the interpreter's table
        self.keys: dict[str, str] = {}
        self.typed = None  # (kind, attributes, name) of an open typed attribute element
        self.typed_text: list[str] = []  # its text, for a child that makes it a snippet
        self.keep_typed_text = self.typed_text.append
        self.inner = 0  # depth inside an opaque snippet (builder set) or a skipped container
        self.builder = None
        self.closed = None  # the last snippet, while its tail text is read
        self.tail: list[str] = []
        parser.buffer_text = True
        parser.StartElementHandler = self.start_root
        parser.EndElementHandler = self.end
        parser.SkippedEntityHandler = self.skipped_entity

    def skipped_entity(self, name: str, is_parameter_entity: bool):
        # an entity an external DTD may declare: a parse error, as ElementTree reports it
        if not is_parameter_entity:
            error = expat.ExpatError(f"undefined entity &{name};")
            error.lineno, error.offset = self.parser.ErrorLineNumber, self.parser.ErrorColumnNumber
            raise error

    def _handlers(self, start, end, text=None):
        parser = self.parser
        parser.StartElementHandler, parser.EndElementHandler = start, end
        parser.CharacterDataHandler = text

    def start_root(self, name: str, attrib: dict[str, str]):
        self.root = _local(name)
        self.parser.StartElementHandler = self.start

    def start(self, name: str, attrib: dict[str, str]):
        if self.typed is not None:  # a typed attribute element with a child is a snippet
            _, typed_attrib, typed_name = self.typed
            self.typed = None
            self._open_snippet(typed_name, typed_attrib)
            if self.typed_text:
                self.builder.data("".join(self.typed_text))
            self.start_inner(name, attrib)
            return
        local = self.names.get(name)
        if local is None:
            local = self.names[name] = _local(name)
        if local in _PARSERS and "key" in attrib and "value" in attrib:
            self.typed = (local, attrib, name)
            self.typed_text.clear()
            self.parser.CharacterDataHandler = self.keep_typed_text
        elif local == "trace" or local == "event":
            self._open_container(local)
        else:
            self._open_snippet(name, attrib)

    def end(self, name: str):
        typed = self.typed
        if typed is not None:
            self.typed = None
            self.parser.CharacterDataHandler = None
            owner = self.open[-1]
            if owner.error is None:
                kind, attrib, _ = typed
                key, value = attrib["key"], attrib["value"]
                try:
                    owner.attrs[self.keys.setdefault(key, key)] = _PARSERS[kind](value)
                except ValueError:
                    owner.error = XesFormatError(f"bad {kind} literal {value!r} for key {key!r}")
            return
        open_ = self.open
        closing = open_.pop()
        if len(open_) == 2:
            self._end_event(closing, open_[-1])
        elif len(open_) == 1:
            self._end_trace(closing)

    def _open_container(self, local: str):
        """Open a container, or skip it whole where no later check reads its contents."""
        open_ = self.open
        owner = open_[-1]
        if len(open_) == 1:  # a child of the log
            if self.error is None and local == "event":
                self.error = XesFormatError("<event> element outside of a <trace>")
            if self.error is None:
                open_.append(_Container())
                return
        elif len(open_) == 2:  # a child of a trace
            if owner.error is None and owner.problem is None:
                if local == "event":
                    open_.append(_Container())
                    return
                owner.problem = XesFormatError("<trace> nested inside a <trace>")
        elif owner.problem is None:
            owner.problem = XesFormatError("<trace>/<event> nested inside an <event>")
        self.inner = 1
        self._handlers(self.start_inner, self.end_inner)

    def _open_snippet(self, name: str, attrib: dict[str, str]):
        self.builder = builder = ET.TreeBuilder()
        builder.start(_qname(name), {_qname(key): value for key, value in attrib.items()})
        self.inner = 1
        self._handlers(self.start_inner, self.end_inner, builder.data)

    def start_inner(self, name: str, attrib: dict[str, str]):
        self.inner += 1
        if self.builder is not None:
            self.builder.start(_qname(name), {_qname(key): value for key, value in attrib.items()})

    def end_inner(self, name: str):
        self.inner -= 1
        builder = self.builder
        if builder is not None:
            builder.end(_qname(name))
            if not self.inner:
                self.closed = builder.close()
                self.builder = None
                self._handlers(self.start_after, self.end_after, self.tail.append)
        elif not self.inner:
            self._handlers(self.start, self.end)

    def _end_snippet(self):
        """Serialise the last snippet, with its tail, into its container's raw snippets."""
        self.closed.tail = "".join(self.tail) or None
        self.open[-1].raw.append(ET.tostring(self.closed, encoding="unicode").strip())
        self.closed = None
        self.tail.clear()
        self._handlers(self.start, self.end)

    def start_after(self, name: str, attrib: dict[str, str]):
        self._end_snippet()
        self.start(name, attrib)

    def end_after(self, name: str):
        self._end_snippet()
        self.end(name)

    @staticmethod
    def _end_event(event: _Container, trace: _Container):
        problem = event.error or event.problem
        if problem is None:
            attrs = event.attrs
            activity = attrs.pop("concept:name", None)
            timestamp = attrs.pop("time:timestamp", None)
            if activity in (None, ""):
                problem = "concept:name"
            elif not isinstance(timestamp, datetime):
                problem = "time:timestamp"
            else:
                trace.events.append(Event(intern(str(activity)), timestamp, attrs,
                                          tuple(event.raw)))
                return
        trace.problem = problem

    def _end_trace(self, trace: _Container):
        if trace.error is not None:
            self.error = trace.error
            return
        position = len(self.traces) + 1
        used_ids = self.used_ids
        case_id = trace.attrs.pop("concept:name", None)
        if case_id in (None, ""):
            case_id = f"case_{position}"
            while case_id in used_ids:
                case_id += "_x"
            self.notes.append(f"trace #{position} lacks concept:name; assigned {case_id!r}")
        case_id = str(case_id)
        if case_id in used_ids:
            self.error = XesFormatError(f"trace #{position} repeats case id {case_id!r}")
            return
        used_ids.add(case_id)
        problem = trace.problem
        if isinstance(problem, str):
            self.error = XesFormatError(f"event without {problem} in case {case_id!r}")
        elif problem is not None:
            self.error = problem
        else:
            self.traces.append(Trace(case_id, tuple(trace.events), trace.attrs, tuple(trace.raw)))


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
    """The log of a document in the canonical layout, or None for expat to read it."""
    head = _CANONICAL_LOG.match(text)
    if head is None:
        return None
    keys: dict[str, str] = {}  # one copy of each attribute key, as the expat reader keeps

    def typed(start: int, end: int) -> dict[str, AttrValue]:
        return {keys.setdefault(key, key): _PARSERS[kind](value)
                for kind, key, value in _CANONICAL_TYPED.findall(text, start, end)}

    date = _PARSERS["date"]
    traces: list[Trace] = []
    at = head.end()
    try:
        log_attrs = typed(0, at)
        while (trace := _CANONICAL_TRACE.match(text, at)) is not None:
            attrs = typed(*trace.span(1))
            events = tuple([Event(intern(activity), date(timestamp)) for activity, timestamp
                            in _CANONICAL_EVENT.findall(text, *trace.span(2))])
            traces.append(Trace(str(attrs.pop("concept:name", "")), events, attrs))
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
    emitted; events must carry both an activity and a timestamp. Errors rank as
    in a reader that parses first: malformed XML, the root, the log's own
    attributes, the first bad container (after the warnings of the traces before it).
    """
    log = _read_canonical(text)
    if log is not None:
        return log
    parser = expat.ParserCreate(None, "}")
    reader = _Reader(parser)
    try:
        for at in range(0, len(text), _CHUNK):
            parser.Parse(text[at:at + _CHUNK], False)
        parser.Parse("", True)
    except expat.ExpatError as exc:
        raise XesFormatError(f"malformed XML: {str(exc).split(':')[0]}",
                             line=exc.lineno, column=exc.offset)
    finally:
        # the parser holds the reader's handlers: without this cycle the parser, and with
        # it whatever the reader holds, is freed on return, not at the next full collection
        reader.parser = None
    if reader.root != "log":
        raise XesFormatError(f"expected <log> root element, found <{reader.root}>")
    log = reader.log
    if log.error is not None:
        raise log.error
    log_name = log.attrs.pop("concept:name", "")
    if not isinstance(log_name, str):
        log_name = str(log_name)
    for note in reader.notes:
        warnings.warn(note, XesWarning)
    if reader.error is not None:
        raise reader.error
    return EventLog(tuple(reader.traces), name=log_name, attributes=log.attrs,
                    raw_extensions=tuple(log.raw))


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
            if not event.attributes and not event.raw_extensions:  # what _emit_attrs spells
                lines.append(f'    <event>\n      <string key="concept:name" value='
                             f'{_quote(event.activity)}/>\n      <date key="time:timestamp" '
                             f'value="{format_timestamp(event.timestamp)}"/>\n    </event>')
                continue
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
