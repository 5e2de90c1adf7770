import csv
import gc
import hashlib
import random
import tracemalloc
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from importlib import resources

import pytest
from hypothesis import given, strategies as st

from careflow import analytics, eventlog
from careflow.analytics import (DottedChartCase, DottedChartData, compare_waves, dotted_chart,
                                dotted_chart_csv, dotted_chart_svg, occupancy, occupancy_csv,
                                occupancy_daily_max, occupancy_svg)
from careflow.covas import covas_model
from careflow.eventlog import Event, EventLog, Trace
from careflow.simulate import parse_config, simulate
from helpers import T0, make_log, make_trace, oracle_dotted_chart_svg, paper_logs


def interval_trace(case_id, start, end=None, start_act="startVentilation", end_act="endVentilation"):
    events = [Event(start_act, start)]
    if end is not None:
        events.append(Event(end_act, end))
    return Trace(case_id, tuple(events))


def minutes(n):
    return T0 + timedelta(minutes=n)


def sample_concurrency(intervals, instant):
    return sum(1 for s, e in intervals if s <= instant < e)


def series_value_at(series, instant):
    value = 0
    for ts, count in series.breakpoints:
        if ts <= instant:
            value = count
        else:
            break
    return value


def test_dotted_chart_empty():
    assert dotted_chart(EventLog()).rows == ()


def test_dotted_chart_rows_and_indices():
    log = make_log(["A", "B", "C"], ["A", "B", "C"])
    data = dotted_chart(log)
    assert len(data.rows) == 6
    assert {r.case_index for r in data.rows} == {0, 1}


def test_dotted_chart_sort_by_first_event():
    late = make_trace("a_late", ["A"], start=T0 + timedelta(days=9))
    early = make_trace("z_early", ["A"], start=T0)
    data = dotted_chart(EventLog((late, early)), sort="by_first_event")
    by_index = sorted(data.rows, key=lambda r: r.case_index)
    assert [r.case_id for r in by_index] == ["z_early", "a_late"]
    ordered = [r.timestamp for r in sorted(data.rows, key=lambda r: (r.case_index,))]
    assert ordered == sorted(ordered)
    by_id = dotted_chart(EventLog((late, early)), sort="by_case_id")
    assert sorted(r.case_id for r in by_id.rows if r.case_index == 0) == ["a_late"]
    with pytest.raises(ValueError, match="unknown sort mode 'sideways'"):
        dotted_chart(EventLog((late, early)), sort="sideways")


def test_dotted_chart_colors():
    log = EventLog((make_trace("c1", ["A"], ards=True),
                    make_trace("c2", ["A"], ards=False),
                    make_trace("c3", ["A"])))
    keys = {r.case_id: r.color_key for r in dotted_chart(log).rows}
    assert keys == {"c1": "true", "c2": "false", "c3": "unknown"}


def test_dotted_chart_row_count_equals_event_count():
    rnd = random.Random(4)
    from helpers import random_log
    for _ in range(20):
        log = random_log(rnd)
        assert len(dotted_chart(log).rows) == log.event_count


def test_occupancy_single_interval():
    log = EventLog((interval_trace("c1", minutes(0), minutes(60)),))
    series = occupancy(log, "startVentilation", "endVentilation")
    assert series.breakpoints == ((minutes(0), 1), (minutes(60), 0))
    assert series.peak == (minutes(0), 1)


def test_occupancy_two_overlapping_intervals():
    log = EventLog((interval_trace("c1", minutes(0), minutes(10)),
                    interval_trace("c2", minutes(5), minutes(15))))
    series = occupancy(log, "startVentilation", "endVentilation")
    assert series.peak[1] == 2
    assert series_value_at(series, minutes(7)) == 2
    assert series_value_at(series, minutes(12)) == 1


def test_occupancy_handover_instant_counts_once():
    log = EventLog((interval_trace("c1", minutes(0), minutes(10)),
                    interval_trace("c2", minutes(10), minutes(20))))
    series = occupancy(log, "startVentilation", "endVentilation")
    assert series.peak[1] == 1
    assert series_value_at(series, minutes(10)) == 1


def test_occupancy_open_interval_runs_to_horizon():
    log = EventLog((interval_trace("c1", minutes(0)),
                    Trace("c2", (Event("other", minutes(90)),))))
    series = occupancy(log, "startVentilation", "endVentilation")
    assert series.breakpoints == ((minutes(0), 1), (minutes(90), 0))


def test_occupancy_unmatched_end_flags_trace():
    trace = Trace("c1", (Event("endVentilation", minutes(5)),))
    series = occupancy(EventLog((trace,)), "startVentilation", "endVentilation")
    assert series.flagged_cases == ("c1",)
    assert series.breakpoints == ()


def test_occupancy_second_start_before_an_end_flags_trace():
    trace = Trace("c1", (Event("startVentilation", minutes(0)),
                         Event("startVentilation", minutes(5)), Event("endVentilation", minutes(10))))
    series = occupancy(EventLog((trace,)), "startVentilation", "endVentilation")
    assert series.flagged_cases == ("c1",)
    # the end pairs with the first start; the second stays open to the horizon
    assert series.breakpoints == ((minutes(0), 1), (minutes(5), 2), (minutes(10), 0))


def test_occupancy_matches_per_minute_sampling():
    rnd = random.Random(99)
    for _ in range(30):
        traces = []
        intervals = []
        for i in range(rnd.randint(1, 12)):
            start = rnd.randint(0, 500)
            length = rnd.randint(0, 300)
            traces.append(interval_trace(f"c{i}", minutes(start), minutes(start + length)))
            intervals.append((minutes(start), minutes(start + length)))
        series = occupancy(EventLog(tuple(traces)), "startVentilation", "endVentilation")
        for m in range(0, 810, 1):
            instant = minutes(m)
            assert series_value_at(series, instant) == sample_concurrency(intervals, instant)
        # patient-time conservation, exact arithmetic
        swept = timedelta()
        for (ts, count), (nxt, _) in zip(series.breakpoints, series.breakpoints[1:]):
            swept += (nxt - ts) * count
        assert swept == sum((e - s for s, e in intervals), timedelta())


def test_occupancy_daily_max():
    log = EventLog((interval_trace("c1", T0 + timedelta(hours=3), T0 + timedelta(days=2, hours=1)),
                    interval_trace("c2", T0 + timedelta(hours=5), T0 + timedelta(hours=7))))
    daily = dict(occupancy_daily_max(occupancy(log, "startVentilation", "endVentilation")))
    assert daily[T0] == 2
    assert daily[T0 + timedelta(days=1)] == 1
    assert daily[T0 + timedelta(days=2)] == 1


def test_occupancy_daily_max_leaves_out_the_day_a_count_ends_at():
    first_day, midnight = (datetime(2020, 4, day, tzinfo=timezone.utc) for day in (1, 2))
    start = first_day + timedelta(hours=10)
    log = EventLog(tuple(interval_trace(f"c{i}", start, midnight) for i in range(2)))
    series = occupancy(log, "startVentilation", "endVentilation")
    assert occupancy_daily_max(series) == ((first_day, 2), (midnight, 0))


def brute_daily_max(points):
    """Each day's largest count whose interval [t_i, t_{i+1}) meets it; the last
    breakpoint's interval is its own instant."""
    ends = [t for t, _ in points[1:]] + [points[-1][0] + timedelta(microseconds=1)]
    day = points[0][0].replace(hour=0, minute=0)
    rows = []
    while day <= points[-1][0]:
        rows.append((day, max(count for (t, count), end in zip(points, ends)
                              if t < day + timedelta(days=1) and end > day)))
        day += timedelta(days=1)
    return tuple(rows)


# minutes after T0 (a midnight): whole days, or any minute of the first 20 days
_instants = st.one_of(st.integers(0, 20).map(lambda d: d * 1440), st.integers(0, 20 * 1440))


@given(st.lists(st.tuples(_instants, st.integers(0, 9)), min_size=1, max_size=12,
                unique_by=lambda point: point[0]))
def test_occupancy_daily_max_matches_the_half_open_definition(points):
    points = tuple(sorted((T0 + timedelta(minutes=m), count) for m, count in points))
    series = analytics.OccupancySeries(points, None)
    assert occupancy_daily_max(series) == brute_daily_max(points)


def test_compare_waves_partitions_complete_cases():
    split = T0 + timedelta(days=150)
    wave1 = [make_trace(f"a{i}", ["A", "B"], start=T0 + timedelta(days=i)) for i in range(4)]
    wave2 = [make_trace(f"b{i}", ["A", "B"], start=split + timedelta(days=i)) for i in range(3)]
    ongoing = [make_trace("c1", ["A"], start=split + timedelta(days=9), complete=False)]
    log = EventLog(tuple(wave1 + wave2 + ongoing))
    cmp = compare_waves(log, split)
    assert (cmp.first.case_count, cmp.second.case_count) == (4, 3)
    cmp_all = compare_waves(log, split, complete_only=False)
    assert cmp_all.first.case_count + cmp_all.second.case_count == len(log)


def test_compare_waves_single_sided():
    log = make_log(["A", "B"])
    cmp = compare_waves(log, T0 + timedelta(days=400))
    assert cmp.second.case_count == 0
    assert cmp.second.mean_case_duration is None


def test_compare_waves_reordering_invariance():
    rnd = random.Random(8)
    from helpers import random_log
    log = random_log(rnd)
    split = T0 + timedelta(hours=900)
    reordered = EventLog(tuple(reversed(log.traces)))
    a = compare_waves(log, split)
    b = compare_waves(reordered, split)
    assert (a.first.case_count, a.second.case_count) == (b.first.case_count, b.second.case_count)
    assert a.first.mean_case_duration == b.first.mean_case_duration


def test_dotted_chart_csv_quotes_cells_that_need_it():
    log = EventLog((make_trace("Smith, J", ["A"], ards="yes, severe"),
                    make_trace('say "hi"', ["A"], ards="line\nbreak"),
                    make_trace("plain", ["A"], ards=True)))
    chart = dotted_chart(log, sort="by_case_id")
    text = dotted_chart_csv(chart)
    assert "\n1,plain,2020-02-01T00:00:00+00:00,true\n" in text  # plain cells stay bare
    rows = list(csv.reader(text.splitlines(keepends=True)))
    assert rows[0] == ["case_index", "case_id", "timestamp", "color"]
    assert [(r[1], r[3]) for r in rows[1:]] == [(r.case_id, r.color_key) for r in chart.rows]


def test_emitters_deterministic_and_wellformed():
    log = EventLog((make_trace("c1", ["A", "B"], ards=True),
                    interval_trace("c2", minutes(0), minutes(30))))
    chart = dotted_chart(log)
    series = occupancy(log, "startVentilation", "endVentilation")
    for text in (dotted_chart_csv(chart), dotted_chart_svg(chart),
                 occupancy_csv(series), occupancy_csv(series, daily_max=True),
                 occupancy_svg(series)):
        assert text == text  # trivially equal; real check is reproducibility below
    assert dotted_chart_svg(chart) == dotted_chart_svg(chart)
    assert occupancy_svg(series) == occupancy_svg(series)
    assert dotted_chart_svg(chart).startswith("<svg")
    assert occupancy_csv(series).splitlines()[0] == "timestamp,count"
    import xml.etree.ElementTree as ET
    ET.fromstring(dotted_chart_svg(chart))
    ET.fromstring(occupancy_svg(series))


def test_occupancy_svg_of_the_paper_log_is_pinned():
    # recorded before dotted_chart_svg and occupancy_svg shared their frame
    clean, _ = paper_logs()
    text = occupancy_svg(occupancy(clean, "startVentilation", "endVentilation"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6b983e454c4d17b03b0ed80775770369cdd275ec393670a91799d72544a62d54")


def chart_case(index: int, case_id: str, color: str, seconds) -> DottedChartCase:
    """A case as ``dotted_chart`` builds it: a trace's events, in time order."""
    return DottedChartCase(index, case_id, color, tuple(
        Event("A", T0 + timedelta(seconds=s)) for s in sorted(seconds)))


def random_chart(count: int, seed: int) -> DottedChartData:
    """``count`` points in cases of seven (the last may be short), each case in one color."""
    rnd = random.Random(seed)
    colors = ("true", "false", "unknown", "a", "b", "c", "d", "e", "f", "g")
    return DottedChartData(tuple(
        chart_case(start // 7, f"c{start // 7}", rnd.choice(colors),
                   [rnd.randrange(10**7) for _ in range(min(7, count - start))])
        for start in range(0, count, 7)))


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 4095, 4096, 4097, 8193])
def test_dotted_chart_svg_matches_one_join_at_chunk_edges(count):
    # the frame is one piece and each circle a line, so these cross the 1,024-line batch edges
    assert eventlog._BATCH == 1024
    data = random_chart(count, count)
    assert len(data.rows) == count
    assert dotted_chart_svg(data) == oracle_dotted_chart_svg(data)


chart_cases = st.builds(chart_case, st.integers(0, 40), st.sampled_from(["c1", "c2"]),
                        st.sampled_from(["true", "false", "unknown", "x", "y", "1"]),
                        st.lists(st.integers(0, 10**8), max_size=5))


@given(st.lists(chart_cases, max_size=8), st.integers(1, 8))
def test_dotted_chart_svg_matches_one_join(drawn, batch):
    data = DottedChartData(tuple(drawn))
    expected = oracle_dotted_chart_svg(data)
    assert dotted_chart_svg(data) == expected
    with pytest.MonkeyPatch.context() as patch:  # batches small enough to cross their edges
        patch.setattr(eventlog, "_BATCH", batch)
        assert dotted_chart_svg(data) == expected


@pytest.fixture(scope="module")
def log_10x():
    text = (resources.files("careflow") / "data" / "covas_desk.config").read_text(encoding="utf-8")
    config, _ = parse_config(text)
    return simulate(replace(config, case_count=10 * config.case_count), covas_model())


def test_dotted_chart_retains_under_30_bytes_per_event(log_10x):
    # 75 B (3.11) with a DottedChartRow per event; about 12 B with a record per case that
    # keeps its trace's own events
    gc.collect()
    tracemalloc.start()
    try:
        chart = dotted_chart(log_10x)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(chart.cases) == len(log_10x)
    assert retained / log_10x.event_count < 30


def test_dotted_chart_svg_peaks_a_batch_above_its_result(log_10x):
    # joining 4,096-circle chunks and then the chunks peaked at 2.06 times the result (3.11);
    # grown in place, the text peaks a batch of lines above it, however large the chart
    chart = dotted_chart(log_10x)
    gc.collect()
    tracemalloc.start()
    try:
        svg = dotted_chart_svg(chart)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 256 * eventlog._BATCH  # a line of under 100 characters, its str, its list entry
    assert len(svg) > 2 * bound
    assert peak - len(svg) < bound
