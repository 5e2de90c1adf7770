import random
from datetime import timedelta

import pytest
from hypothesis import given, strategies as st

from careflow.errors import XesFormatError
from careflow.eventlog import Event, EventLog, Trace, log_stats
from careflow.xesio import XesWarning, parse_xes, sniff_format, write_xes
from helpers import T0, make_trace, random_log

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


def test_sniff_format():
    assert sniff_format("a/b/log.XES") == "xes"
    assert sniff_format("x.csv") == "csv"
    with pytest.raises(ValueError):
        sniff_format("notes.txt")


_name = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1, max_size=12)
_value = st.one_of(
    _name,
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.datetimes(min_value=T0.replace(tzinfo=None),
                 max_value=T0.replace(tzinfo=None) + timedelta(days=400)),
)


@st.composite
def xes_logs(draw):
    traces = []
    for index in range(draw(st.integers(0, 4))):
        events = []
        ts = T0
        for _ in range(draw(st.integers(0, 4))):
            ts = ts + timedelta(minutes=draw(st.integers(1, 500)))
            attrs = draw(st.dictionaries(_name, _value, max_size=2))
            events.append(Event(draw(_name), ts, attrs))
        traces.append(Trace(f"case{index}", tuple(events),
                            draw(st.dictionaries(_name, _value, max_size=2))))
    return EventLog(tuple(traces), name=draw(_name))


@given(xes_logs())
def test_roundtrip_property(log):
    assert parse_xes(write_xes(log)) == log
