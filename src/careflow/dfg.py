"""Directly-follows graphs with frequency and performance annotations."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from datetime import timedelta

from .eventlog import EventLog
from .jsontext import json_text
from .petri import _dot
from .timeutil import format_duration


@dataclass(frozen=True)
class DurationSummary:
    mean: timedelta
    median: timedelta
    min: timedelta
    max: timedelta


@dataclass(frozen=True)
class NodeStats:
    frequency: int       # total occurrences of the activity
    case_frequency: int  # number of cases containing it


@dataclass(frozen=True)
class EdgeStats:
    frequency: int
    durations: DurationSummary


@dataclass(frozen=True)
class Dfg:
    nodes: dict[str, NodeStats]
    edges: dict[tuple[str, str], EdgeStats]
    start_activities: dict[str, int]
    end_activities: dict[str, int]


def _summary(gaps: list[timedelta]) -> DurationSummary:
    gaps = sorted(gaps)
    mean = sum(gaps, timedelta()) / len(gaps)
    return DurationSummary(mean=mean, median=statistics.median(gaps), min=gaps[0], max=gaps[-1])


def discover_dfg(log: EventLog) -> Dfg:
    """Count adjacent activity pairs per trace, accumulating the gap durations.

    Trace order does not matter; the result only depends on the multiset of
    traces.
    """
    node_freq: dict[str, int] = {}
    node_cases: dict[str, int] = {}
    edge_gaps: dict[tuple[str, str], list[timedelta]] = {}
    starts: dict[str, int] = {}
    ends: dict[str, int] = {}
    for trace in log:
        events = trace.events
        if not events:
            continue
        starts[events[0].activity] = starts.get(events[0].activity, 0) + 1
        ends[events[-1].activity] = ends.get(events[-1].activity, 0) + 1
        for activity in {e.activity for e in events}:
            node_cases[activity] = node_cases.get(activity, 0) + 1
        for event in events:
            node_freq[event.activity] = node_freq.get(event.activity, 0) + 1
        for left, right in zip(events, events[1:]):
            pair = (left.activity, right.activity)
            edge_gaps.setdefault(pair, []).append(right.timestamp - left.timestamp)
    nodes = {a: NodeStats(node_freq[a], node_cases[a]) for a in node_freq}
    edges = {pair: EdgeStats(len(gaps), _summary(gaps)) for pair, gaps in edge_gaps.items()}
    return Dfg(nodes=nodes, edges=edges, start_activities=starts, end_activities=ends)


def _threshold(value: float, maximum: int) -> float:
    """Fractions in [0, 1) scale against the current maximum; counts pass through."""
    if 0 < value < 1:
        return value * maximum
    return value


def filter_dfg(dfg: Dfg, min_node_frequency: float = 0, min_edge_frequency: float = 0) -> Dfg:
    """Drop nodes and edges below the thresholds; never adds anything.

    Thresholds may be absolute counts or fractions of the current maximum
    node/edge frequency. Edges incident to a removed node go too, and the
    start/end maps are restricted to the surviving activities. The operation
    is idempotent at fixed thresholds and monotone in them.
    """
    if not (min_node_frequency >= 0 and min_edge_frequency >= 0):  # NaN fails >= too
        raise ValueError("thresholds must be non-negative")
    node_cut = _threshold(min_node_frequency, max((s.frequency for s in dfg.nodes.values()), default=0))
    edge_cut = _threshold(min_edge_frequency, max((s.frequency for s in dfg.edges.values()), default=0))
    nodes = {a: s for a, s in dfg.nodes.items() if s.frequency >= node_cut}
    edges = {pair: s for pair, s in dfg.edges.items()
             if s.frequency >= edge_cut and pair[0] in nodes and pair[1] in nodes}
    starts = {a: c for a, c in dfg.start_activities.items() if a in nodes}
    ends = {a: c for a, c in dfg.end_activities.items() if a in nodes}
    return Dfg(nodes=nodes, edges=edges, start_activities=starts, end_activities=ends)


def dfg_to_dot(dfg: Dfg, annotate: str = "frequency") -> str:
    """Deterministic DOT text; nodes sorted by label, edges by (source, target).

    ``annotate`` picks the edge label: 'frequency' or 'mean_duration'
    (rendered as 'Nd HHh MMm').
    """
    if annotate not in ("frequency", "mean_duration"):
        raise ValueError(f"unknown annotation mode {annotate!r}")
    lines = ["digraph dfg {", "  rankdir=LR;", '  node [shape=box style=rounded];']
    for activity in sorted(dfg.nodes):
        stats = dfg.nodes[activity]
        lines.append(f'  {_dot(activity)} [label={_dot(f"{activity} ({stats.frequency})")}];')
    for source, target in sorted(dfg.edges):
        stats = dfg.edges[(source, target)]
        if annotate == "frequency":
            label = str(stats.frequency)
        else:
            label = format_duration(stats.durations.mean)
        lines.append(f'  {_dot(source)} -> {_dot(target)} [label="{label}"];')
    lines.append("}")
    lines.append("")
    return "\n".join(lines)


def dfg_to_json(dfg: Dfg) -> str:
    """JSON export with durations in seconds; keys sorted for determinism."""
    payload = {
        "nodes": {a: {"frequency": s.frequency, "case_frequency": s.case_frequency}
                  for a, s in sorted(dfg.nodes.items())},
        "edges": [
            {
                "source": source,
                "target": target,
                "frequency": stats.frequency,
                "duration_seconds": {
                    "mean": stats.durations.mean.total_seconds(),
                    "median": stats.durations.median.total_seconds(),
                    "min": stats.durations.min.total_seconds(),
                    "max": stats.durations.max.total_seconds(),
                },
            }
            for (source, target), stats in sorted(dfg.edges.items())
        ],
        "start_activities": dict(sorted(dfg.start_activities.items())),
        "end_activities": dict(sorted(dfg.end_activities.items())),
    }
    return json_text(payload) + "\n"
