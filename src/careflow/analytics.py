"""Log analytics: dotted chart, resource occupancy, wave comparison.

A dotted chart is held as one ``DottedChartCase`` per case, which keeps its trace's own
events, and is rendered by line generators over the cases, so neither building nor
drawing it holds an object or a string per event (``DottedChartData.rows`` spells the
points out on demand).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from datetime import datetime, timedelta

from .csvio import _quoted
from .eventlog import (Event, EventLog, _mean_case_duration, _text, filter_complete,
                       split_by_time)
from .timeutil import _UTC, _utc_speller, format_timestamp, to_utc


@dataclass(frozen=True, slots=True)
class DottedChartRow:
    """One point of the chart; its timestamp is normalized to UTC as an event's is."""

    case_index: int
    case_id: str
    timestamp: datetime
    color_key: str

    def __post_init__(self):
        if self.timestamp.tzinfo is not _UTC:
            object.__setattr__(self, "timestamp", to_utc(self.timestamp))


@dataclass(frozen=True, slots=True)
class DottedChartCase:
    """One case of the chart: its index, id and color key, and its trace's own events (in
    time order), so that the chart builds no object per event."""

    case_index: int
    case_id: str
    color_key: str
    events: tuple[Event, ...]


@dataclass(frozen=True)
class DottedChartData:
    cases: tuple[DottedChartCase, ...]

    @property
    def rows(self) -> tuple[DottedChartRow, ...]:
        """One point per event, in case index then time order; built on each call."""
        return tuple([DottedChartRow(case.case_index, case.case_id, event.timestamp,
                                     case.color_key)
                      for case in self.cases for event in case.events])


@dataclass(frozen=True)
class OccupancySeries:
    """Piecewise-constant concurrency: count holds from a breakpoint to the next."""

    breakpoints: tuple[tuple[datetime, int], ...]
    peak: tuple[datetime, int] | None
    flagged_cases: tuple[str, ...] = ()


@dataclass(frozen=True)
class WaveStats:
    case_count: int
    event_count: int
    mean_case_duration: timedelta | None


@dataclass(frozen=True)
class WaveComparison:
    first: WaveStats
    second: WaveStats


def _color_value(value) -> str:
    if value is None:
        return "unknown"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def dotted_chart(log: EventLog, color_attribute: str = "ards",
                 sort: str = "by_first_event") -> DottedChartData:
    """One record per case, with a case index assigned after sorting cases.

    Cases without events get no index so indices stay contiguous from 0.
    The color key is the trace attribute value as a string, 'unknown' when the
    attribute is absent. Each record keeps its trace's own events.
    """
    if sort not in ("by_first_event", "by_case_id"):
        raise ValueError(f"unknown sort mode {sort!r}")
    traces = [t for t in log if t.events]
    if sort == "by_first_event":
        traces.sort(key=lambda t: (t.start_time, t.case_id))
    else:
        traces.sort(key=lambda t: t.case_id)
    return DottedChartData(tuple([
        DottedChartCase(index, trace.case_id,
                        _color_value(trace.attributes.get(color_attribute)), trace.events)
        for index, trace in enumerate(traces)]))


def occupancy(log: EventLog, start_activity: str, end_activity: str) -> OccupancySeries:
    """Sweep-line concurrency of [start, end) intervals paired per trace.

    Within a trace each start event pairs with the next matching end event; a
    start without an end keeps the resource occupied until the log's last
    timestamp. An end with no open start flags the trace and is skipped, as is
    a second concurrent start (the intervals would be ambiguous). Intervals
    are half open, so at equal instants an ending case and a starting case
    never count twice.
    """
    horizon = max((e.timestamp for t in log for e in t.events), default=None)
    intervals: list[tuple[datetime, datetime]] = []
    flagged: list[str] = []
    for trace in log:
        open_starts: list[datetime] = []
        bad = False
        for event in trace.events:
            if event.activity == start_activity:
                if open_starts:
                    bad = True  # concurrent second start within one case
                open_starts.append(event.timestamp)
            elif event.activity == end_activity:
                if not open_starts:
                    bad = True  # end with no open start
                else:  # events are in time order, so the end is not before its start
                    intervals.append((open_starts.pop(0), event.timestamp))
        intervals.extend((start, horizon) for start in open_starts)
        if bad:
            flagged.append(trace.case_id)

    deltas: dict[datetime, int] = {}
    for start, end in intervals:
        deltas[start] = deltas.get(start, 0) + 1
        deltas[end] = deltas.get(end, 0) - 1
    breakpoints = []
    count = 0
    for instant in sorted(deltas):
        count += deltas[instant]
        breakpoints.append((instant, count))
    peak = max(breakpoints, key=lambda point: point[1], default=None)  # the first of equal counts
    return OccupancySeries(tuple(breakpoints), peak, tuple(flagged))


def occupancy_daily_max(series: OccupancySeries) -> tuple[tuple[datetime, int], ...]:
    """Downsample to one (midnight UTC, max count that day) point per day. A count covers
    the days up to that of the instant before the next breakpoint: intervals are half open."""
    points = series.breakpoints
    days: dict[datetime, int] = {}
    for (instant, count), (following, _) in zip(points, points[1:] + points[-1:]):
        last = max(instant, following - timedelta(microseconds=1))
        day = instant.replace(hour=0, minute=0, second=0, microsecond=0)
        while day <= last:
            days[day] = max(days.get(day, 0), count)
            day += timedelta(days=1)
    return tuple(days.items())


def compare_waves(log: EventLog, split: datetime, complete_only: bool = True) -> WaveComparison:
    """Split the log at an instant (anchored on first events) and compare sides.

    Ongoing cases are excluded by default: their durations are censored, so
    per-wave counts and means are computed over complete cases.
    """
    sides = split_by_time(filter_complete(log) if complete_only else log, split)
    return WaveComparison(*(WaveStats(len(part), part.event_count, _mean_case_duration(part))
                            for part in sides))


# --- CSV / SVG emitters -------------------------------------------------------

_PALETTE = {"true": "#e8538f", "false": "#2e9e5b", "unknown": "#9aa0a6"}
_EXTRA_COLORS = ("#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3", "#937860")


def _color_for(key: str, assigned: dict[str, str]) -> str:
    if key in _PALETTE:
        return _PALETTE[key]
    if key not in assigned:
        assigned[key] = _EXTRA_COLORS[len(assigned) % len(_EXTRA_COLORS)]
    return assigned[key]


def _chart_csv_lines(data: DottedChartData) -> Iterator[str]:
    """The lines of ``dotted_chart_csv``, each with its line end: one row per event."""
    yield "case_index,case_id,timestamp,color\n"
    spell = _utc_speller()  # an event's timestamp is UTC
    for case in data.cases:
        head = f"{case.case_index},{_quoted(case.case_id)},"
        tail = f",{_quoted(case.color_key)}\n"
        for event in case.events:
            yield f"{head}{spell(event.timestamp)}{tail}"


def dotted_chart_csv(data: DottedChartData) -> str:
    return _text(_chart_csv_lines(data))


def _svg_frame(width: int, height: int, pad: int) -> list[str]:
    """The opening lines of a chart: the ``<svg>`` tag, a white background, the plot border."""
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
            f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
            'fill="none" stroke="#333333"/>']


def _chart_svg_lines(data: DottedChartData) -> Iterator[str]:
    """The lines of ``dotted_chart_svg``, each with its line end: one circle per event."""
    width, height, pad = 1000, 600, 40
    yield "\n".join(_svg_frame(width, height, pad)) + "\n"
    cases = [case for case in data.cases if case.events]
    if cases:
        t_min = min(case.events[0].timestamp for case in cases)  # events are in time order
        t_max = max(case.events[-1].timestamp for case in cases)
        span = (t_max - t_min).total_seconds() or 1.0
        top = max(max(case.case_index for case in cases), 1)
        assigned: dict[str, str] = {}
        for case in cases:
            y = height - pad - (case.case_index / top) * (height - 2 * pad)
            tail = f'" cy="{y:.2f}" r="2" fill="{_color_for(case.color_key, assigned)}"/>\n'
            for event in case.events:
                x = pad + (event.timestamp - t_min).total_seconds() / span * (width - 2 * pad)
                yield f'<circle cx="{x:.2f}{tail}'
        yield (f'<text x="{pad}" y="{height - pad + 16}" font-size="11" fill="#333333">'
               f'{format_timestamp(t_min)}</text>\n')
        yield (f'<text x="{width - pad}" y="{height - pad + 16}" font-size="11" '
               f'fill="#333333" text-anchor="end">{format_timestamp(t_max)}</text>\n')
    yield "</svg>\n"


def dotted_chart_svg(data: DottedChartData) -> str:
    """Self-contained SVG: x = time, y = case index, one circle per event."""
    return _text(_chart_svg_lines(data))


def occupancy_csv(series: OccupancySeries, daily_max: bool = False) -> str:
    lines = ["timestamp,count"]
    points = occupancy_daily_max(series) if daily_max else series.breakpoints
    for instant, count in points:
        lines.append(f"{format_timestamp(instant)},{count}")
    lines.append("")
    return "\n".join(lines)


def occupancy_svg(series: OccupancySeries) -> str:
    """Step plot of the concurrency series."""
    width, height, pad = 1000, 400, 40
    points = series.breakpoints
    lines = _svg_frame(width, height, pad)
    if points:
        t_min = points[0][0]
        t_max = points[-1][0]
        span = (t_max - t_min).total_seconds() or 1.0
        top = max(count for _, count in points) or 1

        def xy(instant: datetime, count: int) -> tuple[float, float]:
            x = pad + (instant - t_min).total_seconds() / span * (width - 2 * pad)
            y = height - pad - count / top * (height - 2 * pad)
            return x, y

        path = []
        prev_y = None
        for instant, count in points:
            x, y = xy(instant, count)
            if prev_y is None:
                path.append(f"M {x:.2f} {y:.2f}")
            else:
                path.append(f"L {x:.2f} {prev_y:.2f}")
                path.append(f"L {x:.2f} {y:.2f}")
            prev_y = y
        lines.append(f'<path d="{" ".join(path)}" fill="none" stroke="#2b6cb0" stroke-width="1.5"/>')
        if series.peak:
            px, py = xy(series.peak[0], series.peak[1])
            lines.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="#c53030"/>')
            lines.append(f'<text x="{px:.2f}" y="{py - 6:.2f}" font-size="11" fill="#c53030" '
                         f'text-anchor="middle">{series.peak[1]}</text>')
    lines.append("</svg>")
    lines.append("")
    return "\n".join(lines)
