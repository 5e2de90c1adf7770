import csv
import io
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from careflow.csvio import CASE_PREFIX, CORE, _lines, parse_csv, roundtrip_mapping, write_csv
from careflow.errors import CsvFormatError
from careflow.eventlog import Event, EventLog, Trace, _attr_text
from careflow.timeutil import format_timestamp
from careflow.xesio import parse_xes, write_xes
from helpers import T0, make_trace, paper_logs

CSV = """case_id,activity,timestamp
c1,A,2020-02-01T00:00:00+00:00
c1,B,2020-02-01T01:00:00+00:00
"""


def test_two_rows_one_trace_ordered():
    log = parse_csv(CSV)
    assert len(log) == 1
    assert log.traces[0].activities() == ("A", "B")


def test_out_of_order_rows_are_sorted():
    text = ("case_id,activity,timestamp\n"
            "c1,B,2020-02-01T05:00:00+00:00\n"
            "c1,A,2020-02-01T01:00:00+00:00\n")
    log = parse_csv(text)
    assert log.traces[0].activities() == ("A", "B")


def test_empty_input_is_empty_log():
    assert len(parse_csv("")) == 0
    assert len(parse_csv("case_id,activity,timestamp\n")) == 0


def test_blank_lines_are_skipped_and_still_counted_as_rows():
    assert parse_csv(CSV.replace("00:00\nc1,B", "00:00\n\n,,\nc1,B")) == parse_csv(CSV)
    with pytest.raises(CsvFormatError, match="row 5"):
        parse_csv(CSV + "\nc2,A,not-a-time\n")


def test_leading_byte_order_mark_is_skipped():
    assert parse_csv("\ufeff" + CSV) == parse_csv(CSV)
    with pytest.raises(CsvFormatError, match="case_id"):
        parse_csv("\ufeff\ufeff" + CSV)  # only the first is a byte order mark


def _rows(lines, strict: bool) -> list:
    """What ``csv.reader`` reads from ``lines``: its rows, then its error text if it raises."""
    rows = []
    try:
        rows.extend(csv.reader(lines, strict=strict))
    except csv.Error as exc:
        rows.append(str(exc))
    return rows


@given(st.text('a ,"\r\n\x0c\x85\u2028'), st.booleans(), st.data())
def test_line_source_reads_like_stringio(text, strict, data):
    """Only "\\n" ends a line, as in ``io.StringIO``; other line breaks stay inside it."""
    start = data.draw(st.integers(0, len(text)))
    assert _rows(_lines(text, start), strict) == _rows(io.StringIO(text[start:]), strict)


@pytest.mark.parametrize("fmt", ["xes", "csv"])
def test_equal_labels_are_one_object(fmt):
    clean, _ = paper_logs()
    log = parse_xes(write_xes(clean)) if fmt == "xes" else parse_csv(write_csv(clean))
    labels = [e.activity for t in log for e in t.events]
    assert len({id(label) for label in labels}) == len(set(labels)) < len(labels)


def test_missing_column_is_structural_error():
    with pytest.raises(CsvFormatError, match="activity"):
        parse_csv("case_id,timestamp\nc1,2020-01-01T00:00:00+00:00\n")


def test_bad_timestamp_reports_row():
    text = CSV + "c2,A,not-a-time\n"
    with pytest.raises(CsvFormatError, match="row 4"):
        parse_csv(text)


def test_short_rows_are_padded_and_extra_cells_must_be_empty():
    short = parse_csv("case_id,activity,timestamp,ward\nc1,A,2020-02-01T00:00:00+00:00\n")
    assert short.traces[0].events[0].attributes == {}
    assert parse_csv(CSV.replace("00:00\n", "00:00,,\n")) == parse_csv(CSV)
    with pytest.raises(CsvFormatError, match=r"beyond the header's 3 columns \(row 3\)"):
        parse_csv(CSV.replace("01:00:00+00:00\n", "01:00:00+00:00,,extra\n"))


def test_unmapped_columns_become_attributes():
    text = ("case_id,activity,timestamp,ward\n"
            "c1,A,2020-02-01T00:00:00+00:00,icu\n")
    log = parse_csv(text)
    assert log.traces[0].events[0].attributes == {"ward": "icu"}


def test_case_prefixed_columns_become_trace_attributes():
    text = ("case_id,activity,timestamp,case:ards\n"
            "c1,A,2020-02-01T00:00:00+00:00,true\n")
    log = parse_csv(text, {"case:ards": "bool"})
    assert log.traces[0].attributes == {"ards": True}


def test_type_map_coercion_and_errors():
    text = ("case_id,activity,timestamp,n\n"
            "c1,A,2020-02-01T00:00:00+00:00,12\n")
    log = parse_csv(text, {"n": "int"})
    assert log.traces[0].events[0].attributes == {"n": 12}
    with pytest.raises(CsvFormatError, match="row 2"):
        parse_csv(text.replace("12", "oops"), {"n": "int"})
    # every kind is checked before any row is read, used by a cell or not
    for types in ({"n": "decimal"}, {"case:nosuch": "decimal"}):
        with pytest.raises(CsvFormatError, match="unknown type 'decimal'"):
            parse_csv(text, types)
        with pytest.raises(CsvFormatError, match="unknown type 'decimal'"):
            parse_csv(text.replace("12", ""), types)


def test_bad_case_column_literal_names_the_first_row_that_has_it():
    # rows 2-4 convert other texts of the column; row 6 repeats the bad one
    rows = ["c1,A,2020-02-01T00:00:00+00:00,true", "c1,B,2020-02-01T01:00:00+00:00,true",
            "c2,A,2020-02-01T00:00:00+00:00,False", "c3,A,2020-02-01T00:00:00+00:00,maybe",
            "c4,A,2020-02-01T00:00:00+00:00,maybe"]
    text = "case_id,activity,timestamp,case:ards\n" + "\n".join(rows) + "\n"
    with pytest.raises(CsvFormatError, match=r"cannot parse 'maybe' as bool in column 'case:ards'"
                                             r" \(row 5\)"):
        parse_csv(text, {"case:ards": "bool"})


def test_write_csv_single_trace_layout():
    log = EventLog((make_trace("c1", ["A", "B"]),))
    text = write_csv(log)
    lines = text.strip().splitlines()
    assert lines[0] == "case_id,activity,timestamp"
    assert len(lines) == 3


@pytest.mark.parametrize("key", ["case_id", "activity", "timestamp", "case:ward"])
def test_write_csv_refuses_an_event_attribute_it_would_spell_as_another_column(key):
    # a core name repeats a header column, which parse_csv refuses; a case: name would read
    # back as a trace attribute
    log = EventLog((Trace("c1", (Event("A", T0), Event("B", T0, {key: "x"}))),))
    with pytest.raises(CsvFormatError, match=f"an event has an attribute '{key}'"):
        write_csv(log)


def test_write_is_deterministic():
    log = EventLog((make_trace("c1", ["A"], ards=True), make_trace("c2", ["B"])))
    assert write_csv(log) == write_csv(log)


def test_roundtrip_with_typed_attributes():
    events = (
        Event("A", T0, {"score": 3, "ratio": 0.25, "flag": True, "ward": "icu",
                        "seen": T0 + timedelta(hours=2)}),
        Event("B", T0 + timedelta(hours=1)),
    )
    trace = Trace("c1", events, {"ards": True, "complete": False})
    log = EventLog((trace, make_trace("c2", ["A"])))
    text = write_csv(log)
    back = parse_csv(text, roundtrip_mapping(log))
    assert back == log


def test_roundtrip_quoting():
    trace = Trace("c,1", (Event('say "hi"', T0, {"note": "line1\nline2"}),))
    log = EventLog((trace,))
    back = parse_csv(write_csv(log), roundtrip_mapping(log))
    assert back == log


def _write_with_csv_writer(log: EventLog) -> str:
    """The reference for ``write_csv``: the same rows, written by ``csv.writer``."""
    event_keys = sorted({k for t in log for e in t.events for k in e.attributes})
    trace_keys = sorted({k for t in log for k in t.attributes})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow([*CORE, *event_keys, *(CASE_PREFIX + k for k in trace_keys)])
    for trace in log:
        for event in trace.events:
            writer.writerow([trace.case_id, event.activity, format_timestamp(event.timestamp),
                             *(_attr_text(event.attributes[k])[1] if k in event.attributes
                               else "" for k in event_keys),
                             *(_attr_text(trace.attributes[k])[1] if k in trace.attributes
                               else "" for k in trace_keys)])
    return buf.getvalue()


QUOTABLE = ',"\r\n a'
ATTRIBUTES = st.dictionaries(st.text(QUOTABLE, max_size=3),
                             st.one_of(st.text(QUOTABLE, max_size=3), st.integers(), st.booleans()),
                             max_size=2)
QUOTABLE_LOGS = st.lists(
    st.tuples(st.text(QUOTABLE, min_size=1, max_size=3),
              st.lists(st.tuples(st.text(QUOTABLE, min_size=1, max_size=3), st.integers(0, 99),
                                 ATTRIBUTES), max_size=3),
              ATTRIBUTES),
    max_size=3, unique_by=lambda case: case[0],
).map(lambda cases: EventLog(tuple(
    Trace(case_id, tuple(Event(label, T0 + timedelta(hours=h), attrs) for label, h, attrs in events),
          attrs) for case_id, events, attrs in cases)))


@given(QUOTABLE_LOGS)
def test_write_csv_writes_what_csv_writer_writes(log):
    assert write_csv(log) == _write_with_csv_writer(log)


def test_each_kind_reads_and_writes_alike_in_xes_and_csv():
    """XES and CSV share one attribute codec: same kind, same text, same value back."""
    cest = timezone(timedelta(hours=2))
    expected = {  # key: (value, XES tag, text in both formats)
        "ratio": (0.1, "float", "0.1"),
        "tiny": (1e-07, "float", "1e-07"),
        "big": (2 ** 70, "int", "1180591620717411303424"),
        "yes": (True, "boolean", "true"),
        "no": (False, "boolean", "false"),
        "seen": (datetime(2020, 4, 13, 10, 30, tzinfo=cest), "date", "2020-04-13T08:30:00+00:00"),
        "note": ('said "stop", then, left', "string", 'said "stop", then, left'),
    }
    attrs = {key: value for key, (value, _, _) in expected.items()}
    log = EventLog((Trace("c1", (Event("A", T0, attrs),)),))

    xes, csv_text = write_xes(log), write_csv(log)
    event_xml = ET.fromstring(xes).find("trace/event")
    in_xes = {child.get("key"): (child.tag, child.get("value")) for child in event_xml}
    header, row = csv.reader(io.StringIO(csv_text))
    in_csv = dict(zip(header, row))
    mapping = roundtrip_mapping(log)
    for key, (_, tag, text) in expected.items():
        assert in_xes[key] == (tag, text), key
        assert in_csv[key] == text, key
        assert mapping[key] == tag, key
    assert parse_xes(xes) == log
    assert parse_csv(csv_text, mapping) == log
