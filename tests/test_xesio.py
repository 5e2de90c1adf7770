import random
import re
import time
import warnings
import xml.etree.ElementTree as ET
from datetime import timedelta
from unittest import mock
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given, settings, strategies as st

from careflow.errors import XesFormatError
from careflow.eventlog import Event, EventLog, Trace, log_stats
from careflow import xesio
from careflow.xesio import XesWarning, parse_xes, write_xes
from helpers import T0, make_trace, oracle_parse_xes, paper_logs, random_log

MINIMAL = """<?xml version="1.0" encoding="UTF-8"?>
<log>
  <trace>
    <string key="concept:name" value="c1"/>
    <event>
      <string key="concept:name" value="A"/>
      <date key="time:timestamp" value="2020-02-01T00:00:00+00:00"/>
    </event>
  </trace>
</log>
"""


def test_minimal_document():
    log = parse_xes(MINIMAL)
    assert len(log) == 1
    assert log.traces[0].case_id == "c1"
    assert log.traces[0].activities() == ("A",)


def test_malformed_xml_reports_location():
    with pytest.raises(XesFormatError) as err:
        parse_xes("<log><trace></log>")
    assert err.value.line == 1


def test_trace_without_case_id_gets_synthetic_id():
    for name in ("", '<string key="concept:name" value=""/>'):
        text = MINIMAL.replace('<string key="concept:name" value="c1"/>', name)
        with pytest.warns(XesWarning):
            log = parse_xes(text)
        assert log.traces[0].case_id == "case_1"


def test_event_without_timestamp_is_an_error():
    text = MINIMAL.replace('<date key="time:timestamp" value="2020-02-01T00:00:00+00:00"/>', "")
    with pytest.raises(XesFormatError, match="time:timestamp"):
        parse_xes(text)


def test_namespaced_document_parses():
    text = MINIMAL.replace("<log>", '<log xmlns="http://www.xes-standard.org/">')
    assert len(parse_xes(text)) == 1


def test_write_empty_log_is_valid():
    text = write_xes(EventLog())
    assert parse_xes(text) == EventLog()
    assert "<log" in text


def test_roundtrip_identity_small():
    log = EventLog((make_trace("c1", ["A", "B"], ards=True),
                    make_trace("c2", ["B"], complete=False)), name="unit")
    assert parse_xes(write_xes(log)) == log


def test_roundtrip_preserves_unknown_elements():
    text = """<?xml version="1.0" encoding="UTF-8"?>
<log>
  <extension name="Concept" prefix="concept" uri="http://example.org/concept"/>
  <classifier name="act" keys="concept:name"/>
  <trace>
    <string key="concept:name" value="c1"/>
    <list key="odd"><string key="x" value="y"/></list>
    <event>
      <string key="concept:name" value="A"/>
      <date key="time:timestamp" value="2020-02-01T00:00:00+00:00"/>
      <container key="weird"><int key="depth" value="2"/></container>
    </event>
  </trace>
</log>
"""
    log = parse_xes(text)
    assert len(log.raw_extensions) == 2
    assert len(log.traces[0].raw_extensions) == 1
    assert len(log.traces[0].events[0].raw_extensions) == 1
    again = parse_xes(write_xes(log))
    assert again == log


def test_typed_attributes_roundtrip():
    event = Event("A", T0, {"n": 4, "x": 0.125, "ok": False, "s": "text",
                            "when": T0 + timedelta(minutes=1)})
    log = EventLog((Trace("c1", (event,), {"ards": True}),), name="typed")
    back = parse_xes(write_xes(log))
    assert back == log
    attrs = back.traces[0].events[0].attributes
    assert isinstance(attrs["n"], int) and not isinstance(attrs["n"], bool)
    assert isinstance(attrs["ok"], bool)


def test_roundtrip_random_logs_preserves_stats():
    rnd = random.Random(11)
    for _ in range(25):
        log = random_log(rnd)
        again = parse_xes(write_xes(log))
        assert again == log
        assert log_stats(again) == log_stats(log)


_name = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, include_characters="\t\n\r"),
                min_size=1, max_size=12)
# names write_xes spells without escapes, which the canonical reader takes
_plain_name = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                    exclude_characters='&<>"'), min_size=1, max_size=12)


def _values(names):
    return st.one_of(
        names,
        st.integers(-10**6, 10**6),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.booleans(),
        st.datetimes(min_value=T0.replace(tzinfo=None),
                     max_value=T0.replace(tzinfo=None) + timedelta(days=400)),
    )


@st.composite
def xes_logs(draw, names=_name, max_event_attrs=2):
    # write_xes rejects these as attribute keys (test_writer_rejects_reserved_keys)
    keys = names.filter(lambda key: key not in ("concept:name", "time:timestamp"))
    values = _values(names)
    traces = []
    for index in range(draw(st.integers(0, 4))):
        events = []
        ts = T0
        for _ in range(draw(st.integers(0, 4))):
            ts = ts + timedelta(minutes=draw(st.integers(1, 500)))
            attrs = draw(st.dictionaries(keys, values, max_size=max_event_attrs))
            events.append(Event(draw(names), ts, attrs))
        traces.append(Trace(f"case{index}", tuple(events),
                            draw(st.dictionaries(keys, values, max_size=2))))
    return EventLog(tuple(traces), name=draw(names))


@given(xes_logs())
def test_roundtrip_property(log):
    assert parse_xes(write_xes(log)) == log


# activities made of what the writer escapes, or of any printable character
_activity = st.one_of(st.text(st.sampled_from("a&<>\"'\t\n"), min_size=1, max_size=6), _name)
_EVENT_BLOCK = re.compile(r"    <event>\n(?:.*\n)*?    </event>")


@given(xes_logs(_activity))
def test_writer_spells_each_event_as_emit_attrs_does(log):
    # events without attributes are written as one preformatted string
    expected = []
    for trace in log:
        for event in trace.events:
            lines = xesio._emit_attrs("      ", {"concept:name": event.activity,
                                                 "time:timestamp": event.timestamp},
                                      event.attributes, event.raw_extensions)
            expected.append("".join(["    <event>\n", *lines, "    </event>"]))
    text = write_xes(log)
    assert _EVENT_BLOCK.findall(text) == expected
    assert parse_xes(text) == log


@given(xes_logs(_activity))
def test_writer_spells_each_trace_head_as_emit_attrs_does(log):
    # a trace's lines up to its events are spelled once per attribute dict
    text, at = write_xes(log), 0
    for trace in log:
        head = "".join(["  <trace>\n", *xesio._emit_attrs("    ", {"concept:name": trace.case_id},
                                                            trace.attributes, trace.raw_extensions)])
        at = text.index(head, at) + len(head)
        assert text.startswith(("    <event>\n", "  </trace>\n"), at)


@pytest.mark.parametrize("text", ["a&b<c>d\"e'f\tg\nh\ri", "a&b<c>d\"e\tg\nh\ri"],
                         ids=["both-quotes", "double-quote-only"])
def test_writer_escapes_like_quoteattr(text):
    log = EventLog((Trace(text, (Event(text, T0, {text: text}),)),), name=text)
    xes = write_xes(log)
    assert parse_xes(xes) == log
    spelled = quoteattr(text)
    assert xes.count(f"<string key={spelled} value={spelled}/>") == 1
    assert xes.count(f'<string key="concept:name" value={spelled}/>') == 3  # log, case, activity


@pytest.mark.parametrize("log", [
    EventLog(attributes={"concept:name": "x"}),
    EventLog((Trace("c", (), {"concept:name": "0"}),)),
    EventLog((Trace("c", (Event("A", T0, {"concept:name": "B"}),)),)),
    EventLog((Trace("c", (Event("A", T0, {"time:timestamp": T0}),)),)),
], ids=["log-name", "case-id", "activity", "timestamp"])
def test_writer_rejects_reserved_keys(log):
    # written, the attribute would be overwritten or read back as the field itself
    with pytest.raises(XesFormatError, match="a key XES reserves"):
        write_xes(log)


@pytest.mark.parametrize("char", ["\x01", "\x0b", "\ufffe", "\ud800"])
@pytest.mark.parametrize("build, owner", [
    (lambda c: EventLog(name=f"L{c}"), lambda c: "the log holds {!r} in its name".format(c)),
    (lambda c: EventLog((Trace(f"c{c}", ()),)),
     lambda c: "case {!r} holds {!r} in its case id".format(f"c{c}", c)),
    (lambda c: EventLog((Trace("c", (Event(f"A{c}", T0),)),)),
     lambda c: "an event of case 'c' holds {!r} in its activity".format(c)),
    (lambda c: EventLog((Trace("c", (), {f"k{c}": 1}),)),
     lambda c: "case 'c' holds {!r} in the key {!r}".format(c, f"k{c}")),
    (lambda c: EventLog((Trace("c", (Event("A", T0, {"k": f"v{c}"}),)),)),
     lambda c: "an event of case 'c' holds {!r} in the value of 'k'".format(c)),
], ids=["log-name", "case-id", "activity", "trace-key", "event-value"])
def test_writer_refuses_what_xml_cannot_carry(char, build, owner):
    # written, the document would not read back: XML 1.0 forbids the character
    with pytest.raises(XesFormatError) as caught:
        write_xes(build(char))
    assert str(caught.value) == owner(char) + ", a character XML cannot carry"


# --- the streaming reader against the tree-based one ---------------------------

def _outcome(reader, text: str):
    """The log a reader returns, or its error, plus the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = reader(text)
        except Exception as exc:
            result = (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))
    return result, [(w.category, str(w.message)) for w in caught]


def _oracle(text: str) -> EventLog:
    """``oracle_parse_xes``, whose UnicodeEncodeError at offset k, from encoding the whole
    text before it parses, is the XesFormatError ``parse_xes`` raises with k's line and
    column in the document."""
    try:
        return oracle_parse_xes(text)
    except UnicodeEncodeError as exc:
        lines = text[:exc.start].split("\n")
        raise XesFormatError(f"unencodable surrogate {text[exc.start]!r}",
                             line=len(lines), column=len(lines[-1])) from None


def assert_readers_agree(text: str):
    assert _outcome(parse_xes, text) == _outcome(_oracle, text)


_EVENT = ('<event><string key="concept:name" value="A"/>'
          '<date key="time:timestamp" value="2020-02-01T00:00:00+00:00"/>{}</event>')


def _doc(prolog="", log="", trace="", event="", root="log", root_attrs=""):
    return (f'{prolog}<{root}{root_attrs}>{log}<trace><string key="concept:name" value="c1"/>'
            f'{trace}{_EVENT.format(event)}</trace></{root}>')


READER_CASES = {
    "opaque-children-and-tails": _doc(
        trace='<container key="k">text<int key="d" value="2"/>inner tail</container>after',
        event='<list key="l"><string key="x" value="y"/>t1</list>\n  t2 <!-- c --> t3\n'),
    "typed-with-child": _doc(event='<string key="s" value="v">before<child a="1"/>x</string>tail'),
    "typed-with-text": _doc(event='<string key="s" value="v">just text</string>'),
    "typed-with-child-and-text-at-log-and-trace": _doc(
        log='<int key="n" value="1"><x/></int><date key="d" value="2020-01-01">t</date>',
        trace='<boolean key="b" value="true">t<x>u</x>v</boolean>w<float key="f" value="1">t</float>'),
    "typed-with-child-replaces-no-decoded-value": _doc(
        event='<string key="s" value="1"/><string key="s" value="2">a<b/></string>'),
    "namespaces": _doc(
        root_attrs=' xmlns="http://www.xes-standard.org/" xmlns:x="urn:x"',
        event='<x:string key="k" value="v"/><x:foo x:a="1" b="2"><x:bar/></x:foo>'
              '<string x:key="k" value="v"/>'),
    "prefixed-root": '<x:log xmlns:x="urn:x"><x:trace><x:string key="concept:name" value="c"/>'
                     '<x:event><x:string key="concept:name" value="A"/>'
                     '<x:date key="time:timestamp" value="2020-02-01T00:00:00Z"/></x:event>'
                     '</x:trace></x:log>',
    "dtd-internal-entity": _doc(prolog='<!DOCTYPE log [<!ENTITY who "Dr &amp; Co">]>',
                                trace='<foo>&who;</foo>').replace('value="A"', 'value="&who;"'),
    "dtd-default-attribute": _doc(prolog='<!DOCTYPE log [<!ATTLIST foo extra CDATA "d">]>',
                                  event='<foo a="1"/>'),
    "comments-and-pis": _doc(prolog='<?xml version="1.0"?><?pi head?><!-- head -->',
                             event='<?p inner?><!-- c --><foo/><?p?>x<!--y-->z<![CDATA[<&]]>'),
    "bom": "\ufeff" + _doc(prolog='<?xml version="1.0" encoding="UTF-8"?>'),
    # read in the same feed as the traces, so it is in the tree before they are removed
    "log-attribute-after-the-traces": _doc().replace(
        "</log>", '<trace><string key="concept:name" value="c2"/></trace>'
                  '<string key="k" value="v"/></log>'),
    "bad-literals-in-order": _doc(trace='<float key="f" value="y"/>').replace(
        "</log>", '<int key="n" value="x"/><int key="m" value="z"/></log>'),
    "bad-literal-then-malformed": '<log><int key="n" value="x"/><trace></log>',
    "bad-trace-then-malformed": '<log><trace><int key="n" value="x"/></trace><trace></log>',
    "warning-then-malformed": '<log><trace/><trace></log>',
    "two-bad-traces": '<log><trace><int key="n" value="x"/></trace>'
                      '<trace><float key="f" value="y"/></trace></log>',
    "date-out-of-range-then-malformed":
        '<log><date key="d" value="0001-01-01T00:00:00+01:00"/><trace></log>',
    "bad-literal-then-date-out-of-range":
        '<log><int key="n" value="x"/><date key="d" value="0001-01-01T00:00:00+01:00"/></log>',
    "trace-date-out-of-range-then-malformed":
        '<log><trace><date key="d" value="0001-01-01T00:00:00+01:00"/></trace><trace></log>',
    "date-out-of-range": _doc(event='<date key="d" value="9999-12-31T23:59:59-01:00"/>'),
    "misplaced-containers": _doc(log='<event/>'),
    "nested-event": _doc(event='<event/>'),
    "warning-then-error": '<log><trace/><trace><string key="concept:name" value="case_1"/>'
                          '</trace></log>',
    "non-log-root": _doc(root="foo"),
    "empty": "",
    "junk-after-root": _doc() + "<x/>",
    "undefined-entity": _doc(event="<foo>&undef;</foo>"),
    "undefined-entity-external-dtd": _doc(prolog='<!DOCTYPE log SYSTEM "log.dtd">',
                                          event="<foo>&undef;</foo>"),
    "mismatched-tag": "<log><trace></log>",
}


@pytest.mark.parametrize("text", READER_CASES.values(), ids=READER_CASES.keys())
def test_streaming_reader_matches_tree_reader(text):
    assert_readers_agree(text)


def test_streaming_reader_matches_tree_reader_on_paper_logs():
    for log in paper_logs():
        assert_readers_agree(write_xes(log))


@given(xes_logs())
def test_streaming_reader_matches_tree_reader_property(log):
    assert_readers_agree(write_xes(log))


def test_typed_element_with_a_child_is_a_snippet_and_with_text_a_value():
    log = parse_xes(_doc(event='<string key="s" value="v">before<child a="1"/>x</string>tail'
                               '<int key="n" value="3">only text</int>'))
    event = log.traces[0].events[0]
    assert event.attributes == {"n": 3}
    assert event.raw_extensions == ('<string key="s" value="v">before<child a="1" />x</string>tail',)


def test_document_longer_than_a_chunk_with_a_label_across_the_boundary():
    label = "Intubación, día 1"
    head = '<log><trace><string key="concept:name" value="c1"/><event><string key="pad" value="'
    middle = '"/><string key="concept:name" value="'
    # the pad places the chunk boundary right after the label's "ó"
    pad = "p" * (xesio._CHUNK - len(head) - len(middle) - label.index("ó") - 1)
    text = (head + pad + middle + label + '"/><date key="time:timestamp" '
            'value="2020-02-01T00:00:00+00:00"/></event></trace></log>')
    assert text[xesio._CHUNK - 1:xesio._CHUNK + 1] == "ón"
    event = parse_xes(text).traces[0].events[0]
    assert (event.activity, event.attributes) == (label, {"pad": pad})
    assert_readers_agree(text)


def test_a_surrogate_past_the_first_chunk_is_located_in_the_document():
    log = EventLog(tuple(make_trace(f"c{i}", ["A", "B"]) for i in range(400)))
    text = write_xes(log)
    at = text.index('value="B"', xesio._CHUNK + 1000) + len('value="')
    text = text[:at] + "\udc80" + text[at:]
    with pytest.raises(XesFormatError, match="unencodable surrogate") as caught:
        parse_xes(text)
    line, column = caught.value.line, caught.value.column
    assert line > 1000 and column == len('      <string key="concept:name" value="')
    assert text.split("\n")[line - 1][column] == "\udc80"
    assert_readers_agree(text)


class _ParsingAtClose(ET.XMLPullParser):
    """A pull parser that holds every feed until ``close``, as one deferring reparses may."""

    def __init__(self, events):
        super().__init__(events)
        self.held = []

    def feed(self, data):
        self.held.append(data)

    def close(self):
        super().feed("".join(self.held))
        super().close()


@pytest.mark.parametrize("name", ["opaque-children-and-tails", "log-attribute-after-the-traces"])
def test_events_the_parser_yields_only_at_close_are_read(name):
    with mock.patch.object(ET, "XMLPullParser", _ParsingAtClose):
        assert_readers_agree(READER_CASES[name])


def test_bad_log_attribute_outranks_an_earlier_bad_trace_and_its_warnings():
    text = ('<log><trace/><trace><int key="n" value="x"/></trace>'
            '<string key="ok" value="y"/><float key="f" value="z"/></log>')
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the warning of trace #1 must not be emitted
        with pytest.raises(XesFormatError, match="bad float literal 'z' for key 'f'"):
            parse_xes(text)
    assert_readers_agree(text)


# --- the canonical reader against the fallback reader and the tree oracle ----------

def _parse_with_fallback(text: str) -> EventLog:
    """``parse_xes`` with the canonical reader declining every document."""
    with mock.patch.object(xesio, "_read_canonical", lambda text: None):
        return parse_xes(text)


def test_canonical_reader_takes_the_paper_logs():
    # a drift in its regexes that declines every document would lose the fast path silently
    for log in paper_logs():
        text = write_xes(log)
        fast = xesio._read_canonical(text)
        assert fast is not None
        assert fast == _parse_with_fallback(text) == log


def test_canonical_reader_declines_a_long_cut_document_in_linear_time():
    events = tuple(Event("A", T0 + timedelta(seconds=i)) for i in range(8000))
    text = write_xes(EventLog((Trace("c1", events),)))
    assert len(text) > 1_000_000
    for cut in (text[:-len("</log>\n")], text.replace("  </trace>\n", "")):
        started = time.perf_counter()
        assert xesio._read_canonical(cut) is None
        assert time.perf_counter() - started < 0.5


# (pattern, replacement) pairs: one match of the pattern in a written log is replaced
_MUTATIONS = [
    (r"\A", ""),  # unchanged
    ("\n", "\n<!-- c -->"),
    ("\n", "\n<?pi x?>"),
    ("\n", "\n<![CDATA[<&]]>"),
    ("\n", '\n<foo a="1"/>'),
    ("\n", '\n<x:e xmlns:x="urn:x"/>'),
    ("\n", "\r\n"),
    (r"\?>\n", '?>\n<!DOCTYPE log [<!ENTITY e "v">]>\n'),
    (r"\A", "\ufeff"),
    (r"\Z", "x"),
    (r"\Z", "<x/>"),
    (r"\Z", "\n"),
    ('value="', 'value="&#65;'),
    ('value="', 'value="&amp;'),
    ('value="', 'value="&lt;'),
    ('value="([^"]*)"', "value='\\1'"),
    ("<string key=", "<strings key="),
    ('(      <string key="concept:name" value="[^"]*"/>\n)(      <date [^\n]*\n)', "\\2\\1"),
    ("<event>\n", '<event>\n      <int key="n" value="1"/>\n'),
    ("<trace>\n", '<trace>\n    <int key="n" value="x"/>\n'),
    ('key="time:timestamp" value="', 'key="time:timestamp" value="x'),
    ('<string key="concept:name" value="case', '<string key="concept:nam" value="case'),
    ('<string key="concept:name" value="case1"', '<string key="concept:name" value="case0"'),
    ('<string key="concept:name" value="case1"', '<int key="concept:name" value="1"'),
    ('(      <string key="concept:name" value=")[^"]*(")', "\\1\\2"),  # empty activity
    # instants spelled other than as write_xes spells them, which parse_timestamp reads
    # through its general path: another offset, Z, none, microseconds
    ('(value="[^"]*)\\+00:00"', '\\1+02:00"'),
    ('(value="[^"]*)\\+00:00"', '\\1Z"'),
    ('(value="[^"]*)\\+00:00"', '\\1z"'),
    ('(value="[^"]*)\\+00:00"', '\\1"'),
    ('(value="[^".]*)(\\+00:00")', "\\1.000001\\2"),
] + [('value="', f'value="{char}') for char in
     ["\x01", "\x1f", "\t", "\n", "\r", "\ufffe", "\uffff", "\ud800", "\udfff",
      # characters XML allows, which the canonical reader must read as an XML parser does
      ">", "'", "\x7f", "\x85", "\u2028", "\ufdd0", "\U0001f600", "é"]]


@st.composite
def mutated_logs(draw):
    """write_xes of a random log, some with attribute-free events, and one mutation."""
    text = write_xes(draw(st.one_of(xes_logs(), xes_logs(_plain_name, max_event_attrs=0))))
    pattern, replacement = draw(st.sampled_from(_MUTATIONS))
    found = list(re.finditer(pattern, text))
    if not found:
        return text
    match = found[draw(st.integers(0, len(found) - 1))]
    return text[:match.start()] + match.expand(replacement) + text[match.end():]


@settings(max_examples=200, deadline=None)
@given(mutated_logs())
def test_canonical_reader_declines_or_reads_as_the_oracle(text):
    expected = _outcome(_oracle, text)
    fast = xesio._read_canonical(text)
    assert fast is None or (fast, []) == expected
    assert _outcome(_parse_with_fallback, text) == expected
    assert_readers_agree(text)
