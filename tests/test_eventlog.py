import copy
import json
import math
import pickle
import random
import sys
from dataclasses import FrozenInstanceError, asdict, replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from careflow import xesio
from careflow.analytics import DottedChartCase, DottedChartRow
from careflow.csvio import parse_csv, roundtrip_mapping, write_csv
from careflow.eventlog import (_NO_ATTRIBUTES, Event, EventLog, Trace, drop_activities,
                               filter_complete, log_stats, split_by_time, variants)
from careflow.timeutil import _utc_speller, format_timestamp, parse_timestamp, to_utc
from careflow.xesio import parse_xes, write_xes
from helpers import T0, make_log, make_trace, oracle_parse_timestamp, paper_logs, random_log


def test_event_requires_activity():
    with pytest.raises(ValueError):
        Event("", T0)


def test_event_normalizes_to_utc():
    naive = Event("A", datetime(2020, 3, 1, 12, 0))
    assert naive.timestamp.tzinfo == timezone.utc
    # the writers spell a record's timestamp with isoformat, so its tzinfo is UTC itself
    for when in (datetime(2020, 2, 1), datetime(2020, 2, 1, 2, tzinfo=timezone(timedelta(hours=2))),
                 T0):
        for record in (Event("A", when), DottedChartRow(0, "c1", when, "unknown")):
            assert record.timestamp == T0 and record.timestamp.tzinfo is timezone.utc


def test_event_copies_its_attributes_and_stays_frozen():
    attrs = {"when": datetime(2020, 3, 1, 14, tzinfo=timezone(timedelta(hours=2)))}
    event = Event("A", T0, attrs)
    attrs["x"] = 1
    assert event.attributes == {"when": datetime(2020, 3, 1, 12, tzinfo=timezone.utc)}
    assert event.attributes["when"].tzinfo is timezone.utc
    assert Event("A", T0).attributes == {} and Event("A", T0).raw_extensions == ()
    assert replace(event, activity="B") == Event("B", T0, event.attributes)
    with pytest.raises(FrozenInstanceError):
        event.activity = "B"


def _outcome(parse, text: str):
    try:
        return parse(text)
    except ValueError as exc:
        return ValueError, str(exc)


_offsets = st.integers(-(24 * 60 - 1), 24 * 60 - 1).map(
    lambda minutes: timezone(timedelta(minutes=minutes)))
_instants = st.datetimes(timezones=st.one_of(_offsets, st.just(timezone.utc)))
_timestamp_texts = st.one_of(
    _instants.map(datetime.isoformat),
    st.datetimes().map(datetime.isoformat),  # naive
    st.tuples(_instants.map(lambda dt: dt.replace(tzinfo=None).isoformat()),
              st.sampled_from("Zz")).map("".join),
    st.tuples(st.sampled_from(["", " ", "\t", "\n", "\x1c", "\u2003"]),
              _instants.map(datetime.isoformat),
              st.sampled_from(["", " ", "\t", "\r\n", "\x85", "\u2028"])).map("".join),
    st.dates().map(lambda d: d.isoformat()),
    # instants whose UTC form lies outside datetime's range
    st.sampled_from(["0001-01-01T00:00:00+00:01", "0001-01-01T00:59:59.999999+01:00",
                     "9999-12-31T23:59:59-00:01", "9999-12-31T23:00:00-01:00+00:00"]),
    st.text(st.sampled_from("0123456789-:+TZz. "), max_size=32),
    st.text(max_size=12),
)


@given(_timestamp_texts)
def test_parse_timestamp_equals_the_oracle(text):
    parsed, expected = _outcome(parse_timestamp, text), _outcome(oracle_parse_timestamp, text)
    assert parsed == expected
    if isinstance(expected, datetime):
        assert parsed.tzinfo is timezone.utc and expected.tzinfo is timezone.utc


@given(st.lists(st.one_of(st.datetimes(timezones=st.just(timezone.utc)),
                          st.datetimes(timezones=st.just(timezone.utc)).map(
                              lambda dt: dt.replace(microsecond=0)),
                          st.integers(0, 3 * 86400).map(lambda s: T0 + timedelta(seconds=s))),
                max_size=30))
def test_the_writers_speller_spells_as_format_timestamp(instants):
    spell = _utc_speller()  # one speller for all: the days it spelled are kept
    assert [spell(instant) for instant in instants * 2] == list(map(format_timestamp, instants * 2))


def test_to_utc_returns_a_utc_instant_itself():
    assert to_utc(T0) is T0
    assert to_utc(datetime(2020, 2, 1)) == T0
    assert to_utc(datetime(2020, 2, 1, 2, tzinfo=timezone(timedelta(hours=2)))) == T0
    assert to_utc(datetime(2020, 2, 1, 2, tzinfo=timezone(timedelta(hours=2)))).tzinfo is timezone.utc


def test_parsed_events_hold_empty_attribute_dicts_of_the_smallest_size():
    # the one shared empty dict, on the canonical and the fallback path alike
    clean, _ = paper_logs()
    xes = write_xes(clean)
    declined = xes.replace("\n", "\n\n", 1)  # one blank line more: read by the fallback
    assert xesio._read_canonical(xes) is not None and xesio._read_canonical(declined) is None
    for log in (parse_xes(xes), parse_xes(declined), parse_csv(write_csv(clean))):
        assert log.attributes is _NO_ATTRIBUTES
        assert {id(e.attributes) for t in log for e in t.events} == {id(_NO_ATTRIBUTES)}
    assert sys.getsizeof(_NO_ATTRIBUTES) == sys.getsizeof({})


MUTATORS = {
    "setitem": lambda d: d.__setitem__("k", 1), "delitem": lambda d: d.__delitem__("k"),
    "update": lambda d: d.update(k=1), "setdefault": lambda d: d.setdefault("k", 1),
    "pop": lambda d: d.pop("k", None), "popitem": lambda d: d.popitem(),
    "clear": lambda d: d.clear(), "ior": lambda d: d.__ior__({"k": 1}),
}


def test_records_without_attributes_share_one_read_only_empty_dict():
    clean, noisy = paper_logs()
    event = Event("A", T0, {})
    trace = Trace("c1", (event,))
    assert isinstance(_NO_ATTRIBUTES, dict) and _NO_ATTRIBUTES == {}
    for record in (event, Event("A", T0), replace(event, activity="B"), trace, replace(trace),
                   EventLog(), EventLog((trace,), attributes={}), replace(EventLog(), name="n")):
        assert record.attributes is _NO_ATTRIBUTES, record
    for log in (clean, noisy):  # simulate and inject_noise
        assert log.attributes is _NO_ATTRIBUTES
        assert all(e.attributes is _NO_ATTRIBUTES for t in log for e in t.events)
    for name, change in MUTATORS.items():
        with pytest.raises(TypeError, match="read-only"):
            change(event.attributes)
        assert _NO_ATTRIBUTES == {}, name


def test_the_shared_empty_dict_survives_copies_and_serializes_as_empty():
    event = Event("A", T0)
    for copied in (pickle.loads(pickle.dumps(event)), copy.deepcopy(event), copy.copy(event)):
        assert copied == event and copied.attributes is _NO_ATTRIBUTES
    assert pickle.loads(pickle.dumps(EventLog((Trace("c1", (event,)),)))).attributes is _NO_ATTRIBUTES
    assert asdict(event)["attributes"] == {} and json.dumps(event.attributes) == "{}"
    assert repr(event) == (f"Event(activity='A', timestamp={T0!r}, attributes={{}}, "
                           "raw_extensions=())")


def reachable_bytes(root) -> int:
    """``sys.getsizeof`` summed over the distinct objects reachable from ``root``: tuples,
    dict keys and values, the slots of slotted records and the ``__dict__`` values of
    the other careflow records. Unlike tracemalloc, it counts objects that an
    interpreter freelist served, so the sum does not depend on allocation order."""
    seen: set[int] = set()
    stack, total = [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, tuple):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend((*obj, *obj.values()))
        elif type(obj).__module__.startswith("careflow."):
            slots = getattr(type(obj), "__slots__", ())
            stack.extend([getattr(obj, name) for name in slots] if slots else vars(obj).values())
    return total


def test_parsed_logs_retain_under_150_bytes_per_event():
    # about 143 B with one dict per trace attribute set (3.10-3.13); tracemalloc read
    # 145-154 B with a dict per trace and 209-222 B with a dict per event (3.11)
    clean, _ = paper_logs()
    xes, csv, types = write_xes(clean), write_csv(clean), roundtrip_mapping(clean)
    for log in (parse_xes(xes), parse_csv(csv, types)):
        assert log.traces == clean.traces
        assert reachable_bytes(log) / log.event_count < 150


def test_each_builder_shares_one_read_only_dict_per_attribute_set():
    clean, noisy = paper_logs()
    xes = write_xes(clean)
    assert xesio._read_canonical(xes) is not None
    for log in (clean, parse_xes(xes), parse_csv(write_csv(clean), roundtrip_mapping(clean))):
        assert len(log) == 216 and [t.attributes for t in log] == [t.attributes for t in clean]
        assert len({id(t.attributes) for t in log}) == 4
        assert {tuple(t.attributes.items()) for t in log} == {
            (("ards", ards), ("complete", complete)) for ards in (False, True)
            for complete in (False, True)}
    # sharing is local to one call: no cache outlives it
    assert parse_xes(xes).traces[0].attributes is not parse_xes(xes).traces[0].attributes
    for derived in (noisy, drop_activities(clean, {"startVentilation"}), filter_complete(clean),
                    *split_by_time(clean, T0 + timedelta(days=90))):
        source = {t.case_id: t.attributes for t in clean}
        assert derived.traces and all(t.attributes is source[t.case_id] for t in derived)


def test_non_empty_attributes_are_read_only():
    attrs = {"ards": True, "k": 1}
    for record in (Event("A", T0, attrs), Trace("c1", (), attrs), EventLog(attributes=attrs)):
        for name, change in MUTATORS.items():
            with pytest.raises(TypeError, match="read-only"):
                change(record.attributes)
            assert record.attributes == attrs and list(record.attributes) == ["ards", "k"], name


def test_read_only_attributes_copy_and_serialize_as_plain_dicts_did():
    trace = Trace("c1", (Event("A", T0),), {"ards": True, "n": 1})
    for copied in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace), copy.copy(trace)):
        assert copied == trace and copied.attributes == {"ards": True, "n": 1}
        assert type(copied.attributes) is type(trace.attributes)
        with pytest.raises(TypeError, match="read-only"):
            copied.attributes["n"] = 2
    assert asdict(trace)["attributes"] == {"ards": True, "n": 1}
    assert json.dumps(trace.attributes) == '{"ards": true, "n": 1}'
    assert repr(trace) == (f"Trace(case_id='c1', events=(Event(activity='A', timestamp={T0!r}, "
                           "attributes={}, raw_extensions=()),), attributes={'ards': True, "
                           "'n': 1}, raw_extensions=())")


def test_shared_attributes_keep_equal_values_of_other_kinds_and_signs_apart():
    def kinds(log):
        return [(type(v).__name__, math.copysign(1.0, v)) for v in (t.attributes["x"] for t in log)]

    csv_text = "case_id,activity,timestamp,case:x\r\n" + "".join(
        f"c{i},A,2020-02-01T00:00:00+00:00,{x}\r\n" for i, x in enumerate(["0.0", "-0.0", "0.0"]))
    log = parse_csv(csv_text, {"case:x": "float"})
    assert kinds(log) == [("float", 1.0), ("float", -1.0), ("float", 1.0)]
    assert log.traces[0].attributes is log.traces[2].attributes
    values = [1, True, 1.0, 0.0, -0.0, 1]
    xes = write_xes(EventLog(tuple(Trace(f"c{i}", (Event("A", T0),), {"x": x})
                                   for i, x in enumerate(values))))
    assert xesio._read_canonical(xes) is not None
    log = parse_xes(xes)
    assert kinds(log) == [("int", 1.0), ("bool", 1.0), ("float", 1.0), ("float", 1.0),
                          ("float", -1.0), ("int", 1.0)]
    assert len({id(t.attributes) for t in log}) == 5


def test_per_event_and_per_case_records_are_slotted():
    event = Event("A", T0)
    for record in (event, Trace("c1", (event,)), DottedChartRow(0, "c1", T0, "unknown"),
                   DottedChartCase(0, "c1", "unknown", (event,))):
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_trace_sorts_events_stably():
    early = Event("A", T0)
    late = Event("B", T0 + timedelta(hours=1))
    tie1 = Event("X", T0 + timedelta(hours=1))
    trace = Trace("c1", (late, early, tie1))
    assert trace.activities() == ("A", "B", "X")  # tie keeps input order B before X


@given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from("ABC")), max_size=12))
def test_trace_orders_events_like_a_stable_sort(stamps):
    events = [Event(label, T0 + timedelta(hours=hour)) for hour, label in stamps]
    trace = Trace("c1", events)
    assert trace.events == tuple(sorted(events, key=lambda e: e.timestamp))
    assert type(trace.events) is tuple
    if events == sorted(events, key=lambda e: e.timestamp):
        assert trace.events == tuple(events)


def test_trace_is_a_frozen_slotted_record():
    attrs = {"when": datetime(2020, 3, 1, 14, tzinfo=timezone(timedelta(hours=2)))}
    early, late = Event("A", T0), Event("B", T0 + timedelta(hours=1))
    trace = Trace("c1", (early, late), attrs, ("<x/>",))
    attrs["n"] = 1
    assert trace.attributes == {"when": datetime(2020, 3, 1, 12, tzinfo=timezone.utc)}
    assert Trace("c1") == Trace(case_id="c1", events=(), attributes={}, raw_extensions=())
    assert Trace("c1").attributes == {} and Trace("c1").attributes is _NO_ATTRIBUTES
    assert trace != replace(trace, raw_extensions=())
    assert repr(Trace("c1", (), {"n": 1})) == (
        "Trace(case_id='c1', events=(), attributes={'n': 1}, raw_extensions=())")
    assert replace(trace, case_id="c2") == Trace("c2", (early, late), trace.attributes, ("<x/>",))
    assert replace(trace, events=(late, early)).events == (early, late)
    assert Trace.__slots__ == ("case_id", "events", "attributes", "raw_extensions")
    with pytest.raises(FrozenInstanceError):
        trace.case_id = "c2"
    with pytest.raises(ValueError, match="case_id"):
        Trace("")
    with pytest.raises(ValueError, match="case_id"):
        Trace("", (early,), {"ards": True})


def test_duplicate_case_ids_rejected():
    with pytest.raises(ValueError):
        EventLog((make_trace("c1", ["A"]), make_trace("c1", ["B"])))


def test_variants_grouping_and_order():
    log = make_log(["A", "B"], ["A", "B"], ["A", "C"])
    out = variants(log)
    assert [(v.sequence, v.count) for v in out] == [(("A", "B"), 2), (("A", "C"), 1)]
    assert out[0].case_ids == ("c1", "c2")


def test_variants_empty_log():
    assert variants(EventLog()) == []


def test_log_stats_empty():
    stats = log_stats(EventLog())
    assert stats.case_count == 0 and stats.event_count == 0
    assert stats.mean_events_per_case is None
    assert stats.mean_case_duration is None


def test_log_stats_single_trace_duration():
    trace = make_trace("c1", ["A", "B"], gap=timedelta(minutes=10))
    stats = log_stats(EventLog((trace,)))
    assert stats.mean_case_duration == timedelta(minutes=10)
    assert stats.mean_events_per_case == 2.0


def test_log_stats_excludes_ongoing_durations():
    done = make_trace("c1", ["A", "B"], gap=timedelta(hours=2))
    ongoing = make_trace("c2", ["A", "B"], gap=timedelta(hours=10), complete=False)
    stats = log_stats(EventLog((done, ongoing)))
    assert stats.mean_case_duration == timedelta(hours=2)
    assert stats.complete_case_count == 1


def test_split_by_time_identity_when_all_before():
    log = make_log(["A"], ["B"])
    before, after = split_by_time(log, T0 + timedelta(days=30))
    assert before == log and len(after) == 0


def test_split_by_time_partitions():
    rnd = random.Random(7)
    for _ in range(30):
        log = random_log(rnd)
        split = T0 + timedelta(hours=rnd.randint(0, 2500))
        before, after = split_by_time(log, split)
        assert len(before) + len(after) == len(log)
        assert {t.case_id for t in before} | {t.case_id for t in after} == {t.case_id for t in log}
        assert all(t.start_time < split for t in before)
        assert all(t.start_time is None or t.start_time >= split for t in after)


def test_split_by_time_keeps_whole_traces_and_the_log_fields():
    trace = make_trace("c1", ["A", "B", "C"], gap=timedelta(days=40))
    empty = Trace("c2")
    log = EventLog((empty, trace), name="icu", attributes={"site": "x"}, raw_extensions=("<x/>",))
    split = T0 + timedelta(days=41)  # splits mid-trace; anchor is the first event
    before, after = split_by_time(log, split)
    assert before.traces == (trace,) and after.traces == (empty,)
    for side in (before, after):
        assert (side.name, side.attributes, side.raw_extensions) == (
            log.name, log.attributes, log.raw_extensions)


def test_filter_complete():
    log = EventLog((make_trace("c1", ["A"]), make_trace("c2", ["A"], complete=False)))
    assert [t.case_id for t in filter_complete(log)] == ["c1"]


def test_drop_activities():
    log = make_log(["Start", "A", "End"])
    stripped = drop_activities(log, {"Start", "End"})
    assert stripped.traces[0].activities() == ("A",)


@given(st.lists(st.lists(st.sampled_from("ABCD"), max_size=6), max_size=10))
def test_variant_counts_sum_to_trace_count(sequences):
    log = make_log(*sequences)
    out = variants(log)
    assert sum(v.count for v in out) == len(log)
    assert len(out) <= max(len(log), 1)
    assert len({v.sequence for v in out}) == len(out)


@given(st.integers(0, 3000))
def test_event_count_matches_brute_force(offset_hours):
    rnd = random.Random(offset_hours)
    log = random_log(rnd)
    stats = log_stats(log)
    assert stats.event_count == sum(len(t.events) for t in log)
    if len(log):
        assert stats.mean_events_per_case == pytest.approx(stats.event_count / len(log))
