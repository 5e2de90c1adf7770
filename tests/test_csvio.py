import csv
import io
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from careflow.csvio import ColumnMapping, _lines, parse_csv, roundtrip_mapping, write_csv
from careflow.errors import CsvFormatError
from careflow.eventlog import Event, EventLog, Trace
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


def test_unmapped_columns_become_attributes():
    text = ("case_id,activity,timestamp,ward\n"
            "c1,A,2020-02-01T00:00:00+00:00,icu\n")
    log = parse_csv(text)
    assert log.traces[0].events[0].attributes == {"ward": "icu"}


def test_case_prefixed_columns_become_trace_attributes():
    text = ("case_id,activity,timestamp,case:ards\n"
            "c1,A,2020-02-01T00:00:00+00:00,true\n")
    log = parse_csv(text, ColumnMapping(type_map={"case:ards": "bool"}))
    assert log.traces[0].attributes == {"ards": True}


def test_type_map_coercion_and_errors():
    text = ("case_id,activity,timestamp,n\n"
            "c1,A,2020-02-01T00:00:00+00:00,12\n")
    log = parse_csv(text, ColumnMapping(type_map={"n": "int"}))
    assert log.traces[0].events[0].attributes == {"n": 12}
    with pytest.raises(CsvFormatError, match="row 2"):
        parse_csv(text.replace("12", "oops"), ColumnMapping(type_map={"n": "int"}))
    with pytest.raises(CsvFormatError, match="unknown type"):
        parse_csv(text, ColumnMapping(type_map={"n": "decimal"}))


def test_custom_timestamp_format():
    text = "case_id,activity,timestamp\nc1,A,01/02/2020 13:30\n"
    mapping = ColumnMapping(timestamp_format="%d/%m/%Y %H:%M")
    log = parse_csv(text, mapping)
    assert log.traces[0].events[0].timestamp == datetime(2020, 2, 1, 13, 30, tzinfo=timezone.utc)


def test_write_csv_single_trace_layout():
    log = EventLog((make_trace("c1", ["A", "B"]),))
    text = write_csv(log)
    lines = text.strip().splitlines()
    assert lines[0] == "case_id,activity,timestamp"
    assert len(lines) == 3


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
    log = EventLog((trace, make_trace("c2", ["A"])), name="unit")
    text = write_csv(log)
    back = parse_csv(text, roundtrip_mapping(log), name="unit")
    assert back == log


def test_roundtrip_quoting():
    trace = Trace("c,1", (Event('say "hi"', T0, {"note": "line1\nline2"}),))
    log = EventLog((trace,))
    back = parse_csv(write_csv(log), roundtrip_mapping(log))
    assert back == log


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
        assert mapping.type_map[key] == tag, key
    assert parse_xes(xes) == log
    assert parse_csv(csv_text, mapping) == log
