"""Log analytics: dotted chart, resource occupancy, wave comparison."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from operator import attrgetter

from .csvio import _quoted
from .eventlog import (EventLog, _mean_case_duration, _timestamp_of, _without_cycle_collection,
                       filter_complete, split_by_time)
from .timeutil import _UTC, _utc_speller, format_timestamp, to_utc

_case_index_of = attrgetter("case_index")


@dataclass(frozen=True, slots=True, init=False)
class DottedChartRow:
    """One point of the chart; its timestamp is normalized to UTC as an event's is."""

    case_index: int
    case_id: str
    timestamp: datetime
    color_key: str

    def __init__(self, case_index: int, case_id: str, timestamp: datetime, color_key: str):
        # written out as Event.__init__ is, as a chart builds one row per event
        _set_case_index(self, case_index)
        _set_case_id(self, case_id)
        _set_timestamp(self, timestamp if timestamp.tzinfo is _UTC else to_utc(timestamp))
        _set_color_key(self, color_key)


_set_case_index, _set_case_id, _set_timestamp, _set_color_key = (
    DottedChartRow.__dict__[name].__set__
    for name in ("case_index", "case_id", "timestamp", "color_key"))


@dataclass(frozen=True)
class DottedChartData:
    rows: tuple[DottedChartRow, ...]


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


@_without_cycle_collection
def dotted_chart(log: EventLog, color_attribute: str = "ards",
                 sort: str = "by_first_event") -> DottedChartData:
    """One row per event, with a case index assigned after sorting cases.

    Cases without events get no index so row indices stay contiguous from 0.
    The color key is the trace attribute value as a string, 'unknown' when the
    attribute is absent.
    """
    if sort not in ("by_first_event", "by_case_id"):
        raise ValueError(f"unknown sort mode {sort!r}")
    traces = [t for t in log if t.events]
    if sort == "by_first_event":
        traces.sort(key=lambda t: (t.start_time, t.case_id))
    else:
        traces.sort(key=lambda t: t.case_id)
    rows = []
    for index, trace in enumerate(traces):
        color = _color_value(trace.attributes.get(color_attribute))
        case_id = trace.case_id
        rows += [DottedChartRow(index, case_id, event.timestamp, color) for event in trace.events]
    return DottedChartData(tuple(rows))


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
                else:
                    start = open_starts.pop(0)
                    if event.timestamp >= start:
                        intervals.append((start, event.timestamp))
                    else:
                        bad = True  # end before its start: skip the pairing
        if horizon is not None:
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


def dotted_chart_csv(data: DottedChartData) -> str:
    lines = ["case_index,case_id,timestamp,color"]
    index = case_id = color = None
    spell = _utc_speller()  # a row's timestamp is UTC
    for row in data.rows:
        if row.case_index != index or row.case_id != case_id or row.color_key != color:
            index, case_id, color = row.case_index, row.case_id, row.color_key
            head, tail = f"{index},{_quoted(case_id)},", f",{_quoted(color)}"  # once per case
        lines.append(f"{head}{spell(row.timestamp)}{tail}")
    lines.append("")
    return "\n".join(lines)


def _svg_frame(width: int, height: int, pad: int) -> list[str]:
    """The opening lines of a chart: the ``<svg>`` tag, a white background, the plot border."""
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
            f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
            'fill="none" stroke="#333333"/>']


_SVG_CHUNK = 4096  # circles joined at a time: a string per row would coexist with the result


def dotted_chart_svg(data: DottedChartData) -> str:
    """Self-contained SVG: x = time, y = case index, one circle per event."""
    width, height, pad = 1000, 600, 40
    rows = data.rows
    lines = _svg_frame(width, height, pad)
    if rows:
        t_min = min(map(_timestamp_of, rows))
        t_max = max(map(_timestamp_of, rows))
        span = (t_max - t_min).total_seconds() or 1.0
        max_index = max(map(_case_index_of, rows))
        assigned: dict[str, str] = {}
        index = color = None
        for start in range(0, len(rows), _SVG_CHUNK):
            chunk = []
            for row in rows[start:start + _SVG_CHUNK]:
                if row.case_index != index or row.color_key != color:  # a case's rows run on
                    index, color = row.case_index, row.color_key
                    y = height - pad - (index / max(max_index, 1)) * (height - 2 * pad)
                    tail = f'" cy="{y:.2f}" r="2" fill="{_color_for(color, assigned)}"/>'
                x = pad + (row.timestamp - t_min).total_seconds() / span * (width - 2 * pad)
                chunk.append(f'<circle cx="{x:.2f}{tail}')
            lines.append("\n".join(chunk))
        lines.append(f'<text x="{pad}" y="{height - pad + 16}" font-size="11" fill="#333333">'
                     f'{format_timestamp(t_min)}</text>')
        lines.append(f'<text x="{width - pad}" y="{height - pad + 16}" font-size="11" '
                     f'fill="#333333" text-anchor="end">{format_timestamp(t_max)}</text>')
    lines.append("</svg>")
    lines.append("")
    return "\n".join(lines)


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
