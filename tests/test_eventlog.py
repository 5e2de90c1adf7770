import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from careflow.analytics import DottedChartRow
from careflow.eventlog import (Event, EventLog, Trace, drop_activities, filter_by_time,
                               filter_complete, log_stats, variants)
from helpers import T0, make_log, make_trace, random_log


def test_event_requires_activity():
    with pytest.raises(ValueError):
        Event("", T0)


def test_event_normalizes_to_utc():
    naive = Event("A", datetime(2020, 3, 1, 12, 0))
    assert naive.timestamp.tzinfo == timezone.utc


def test_per_event_and_per_case_records_are_slotted():
    event = Event("A", T0)
    for record in (event, Trace("c1", (event,)), DottedChartRow(0, "c1", T0, "unknown")):
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_trace_sorts_events_stably():
    early = Event("A", T0)
    late = Event("B", T0 + timedelta(hours=1))
    tie1 = Event("X", T0 + timedelta(hours=1))
    trace = Trace("c1", (late, early, tie1))
    assert trace.activities() == ("A", "B", "X")  # tie keeps input order B before X


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


def test_filter_by_time_identity_when_all_before():
    log = make_log(["A"], ["B"])
    split = T0 + timedelta(days=30)
    assert len(filter_by_time(log, split, "before")) == 2
    assert len(filter_by_time(log, split, "on_or_after")) == 0


def test_filter_by_time_partitions():
    rnd = random.Random(7)
    for _ in range(30):
        log = random_log(rnd)
        split = T0 + timedelta(hours=rnd.randint(0, 2500))
        before = filter_by_time(log, split, "before")
        after = filter_by_time(log, split, "on_or_after")
        assert len(before) + len(after) == len(log)
        assert {t.case_id for t in before} | {t.case_id for t in after} == {t.case_id for t in log}
        assert all(t.start_time < split for t in before)


def test_filter_by_time_keeps_whole_traces():
    trace = make_trace("c1", ["A", "B", "C"], gap=timedelta(days=40))
    split = T0 + timedelta(days=41)  # splits mid-trace; anchor is the first event
    kept = filter_by_time(EventLog((trace,)), split, "before")
    assert kept.traces[0].activities() == ("A", "B", "C")


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
