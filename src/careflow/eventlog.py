"""Event log data model: events, traces, logs, variants, statistics, filtering.

Values are immutable after construction; every operation returns new objects,
so per-trace work can safely run concurrently. Events and traces, of which a
log holds one per row and per case, are slotted: they carry no ``__dict__``.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta

from .timeutil import format_timestamp, parse_timestamp, to_utc

# Attribute values carried by events, traces and logs.
AttrValue = str | int | float | bool | datetime


def _parse_boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered not in ("true", "false"):
        raise ValueError(f"not a boolean: {text!r}")
    return lowered == "true"


# The attribute codec shared by the XES and CSV readers and writers. Kinds are
# the typed attributes of XES (IEEE 1849); each parser raises ValueError on a
# bad literal, and _attr_text is their inverse. Names stay private so that the
# codec is not traced as a layer entry point.
_PARSERS = {"string": str, "int": int, "float": float, "boolean": _parse_boolean,
            "date": parse_timestamp}


def _attr_text(value: AttrValue) -> tuple[str, str]:
    """The (kind, text) of an attribute value; bool comes first, as it subclasses int."""
    if isinstance(value, bool):
        return "boolean", "true" if value else "false"
    if isinstance(value, int):
        return "int", str(value)
    if isinstance(value, float):
        return "float", repr(value)
    if isinstance(value, datetime):
        return "date", format_timestamp(value)
    return "string", str(value)


def _normalize_attrs(attrs: dict[str, AttrValue] | None) -> dict[str, AttrValue]:
    """A copy with instant-valued attributes normalized to UTC like event timestamps."""
    if not attrs:
        return {}  # most events carry none; skips the comprehension's own call
    return {k: to_utc(v) if isinstance(v, datetime) else v for k, v in attrs.items()}


def _without_cycle_collection(build):
    """``build`` with the cyclic garbage collector paused while it runs.

    For the functions that allocate one record per event. What they build must
    hold no reference cycle, so that reference counting frees all of it and a
    pause defers collection without leaking. Left running, the collector would
    count each record towards its thresholds and traverse every record built so
    far in each full pass. The pause is process-wide while ``build`` runs; where
    the caller had already disabled the collector, it is left disabled.
    """
    @functools.wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@dataclass(frozen=True, slots=True, init=False)
class Event:
    """One recorded activity execution."""

    activity: str
    timestamp: datetime
    attributes: dict[str, AttrValue] = field(default_factory=dict)
    raw_extensions: tuple[str, ...] = ()

    def __init__(self, activity: str, timestamp: datetime,
                 attributes: dict[str, AttrValue] | None = None,
                 raw_extensions: tuple[str, ...] = ()):
        # written out, as a log builds one event per row: the generated __init__ with a
        # __post_init__ sets timestamp and attributes twice, at about twice the cost
        if not activity:
            raise ValueError("event activity must be non-empty")
        set_field = object.__setattr__
        set_field(self, "activity", activity)
        set_field(self, "timestamp", to_utc(timestamp))
        set_field(self, "attributes", _normalize_attrs(attributes))
        set_field(self, "raw_extensions", raw_extensions)


@dataclass(frozen=True, slots=True, init=False)
class Trace:
    """All events of one case, kept sorted by timestamp (stable for ties)."""

    case_id: str
    events: tuple[Event, ...] = ()
    attributes: dict[str, AttrValue] = field(default_factory=dict)
    raw_extensions: tuple[str, ...] = ()

    def __init__(self, case_id: str, events: tuple[Event, ...] = (),
                 attributes: dict[str, AttrValue] | None = None,
                 raw_extensions: tuple[str, ...] = ()):
        # written out like Event's: each field is set once, and order is checked in a loop
        if not case_id:
            raise ValueError("trace case_id must be non-empty")
        events = tuple(events)
        previous = events[0].timestamp if events else None
        for event in events:
            if event.timestamp < previous:
                events = tuple(sorted(events, key=lambda e: e.timestamp))
                break
            previous = event.timestamp
        set_field = object.__setattr__
        set_field(self, "case_id", case_id)
        set_field(self, "events", events)
        set_field(self, "attributes", _normalize_attrs(attributes))
        set_field(self, "raw_extensions", raw_extensions)

    @property
    def complete(self) -> bool:
        """False marks an ongoing case (partial trace); absent means complete."""
        return self.attributes.get("complete", True) is not False

    @property
    def start_time(self) -> datetime | None:
        return self.events[0].timestamp if self.events else None

    @property
    def duration(self) -> timedelta | None:
        if not self.events:
            return None
        return self.events[-1].timestamp - self.events[0].timestamp

    def activities(self) -> tuple[str, ...]:
        return tuple(e.activity for e in self.events)


@dataclass(frozen=True)
class EventLog:
    """An ordered collection of traces with unique case ids."""

    traces: tuple[Trace, ...] = ()
    name: str = ""
    attributes: dict[str, AttrValue] = field(default_factory=dict)
    raw_extensions: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "traces", tuple(self.traces))
        object.__setattr__(self, "attributes", _normalize_attrs(self.attributes))
        seen = set()
        for trace in self.traces:
            if trace.case_id in seen:
                raise ValueError(f"duplicate case_id {trace.case_id!r}")
            seen.add(trace.case_id)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self):
        return iter(self.traces)

    @property
    def event_count(self) -> int:
        return sum(len(t.events) for t in self.traces)

    def activity_alphabet(self) -> tuple[str, ...]:
        """Distinct activity labels, sorted."""
        return tuple(sorted({e.activity for t in self.traces for e in t.events}))


@dataclass(frozen=True)
class Variant:
    """A distinct activity sequence shared by one or more cases."""

    sequence: tuple[str, ...]
    count: int
    case_ids: tuple[str, ...]


@dataclass(frozen=True)
class LogStats:
    case_count: int
    event_count: int
    activity_count: int
    variant_count: int
    complete_case_count: int
    mean_events_per_case: float | None
    mean_case_duration: timedelta | None


def variants(log: EventLog) -> list[Variant]:
    """Group traces by exact activity sequence, most frequent first.

    Ties are broken lexicographically by sequence so output order is stable.
    """
    groups: dict[tuple[str, ...], list[str]] = {}
    for trace in log:
        groups.setdefault(trace.activities(), []).append(trace.case_id)
    out = [Variant(seq, len(ids), tuple(ids)) for seq, ids in groups.items()]
    out.sort(key=lambda v: (-v.count, v.sequence))
    return out


def log_stats(log: EventLog) -> LogStats:
    """Summary statistics; means are None (not zero) for an empty log.

    Mean case duration is averaged over complete traces only, measured as the
    gap between a trace's first and last event; ongoing cases are censored.
    """
    case_count = len(log)
    event_count = log.event_count
    mean_events = event_count / case_count if case_count else None
    return LogStats(
        case_count=case_count,
        event_count=event_count,
        activity_count=len(log.activity_alphabet()),
        variant_count=len(variants(log)),
        complete_case_count=sum(1 for t in log if t.complete),
        mean_events_per_case=mean_events,
        mean_case_duration=_mean_case_duration(log),
    )


def _mean_case_duration(log: EventLog) -> timedelta | None:
    """Mean first-to-last event gap of the complete traces with events, else None."""
    durations = [t.duration for t in log if t.complete and t.events]
    return sum(durations, timedelta()) / len(durations) if durations else None


def filter_by_time(log: EventLog, split: datetime, side: str) -> EventLog:
    """Keep whole traces by where their first event falls relative to split.

    side 'before' keeps traces whose first event is strictly earlier than the
    split; 'on_or_after' keeps the complement (including traces without any
    event), so the two sides always partition the log. Traces are never cut.
    """
    if side not in ("before", "on_or_after"):
        raise ValueError(f"side must be 'before' or 'on_or_after', got {side!r}")
    split = to_utc(split)
    before = side == "before"
    kept = tuple(t for t in log if (t.start_time is not None and t.start_time < split) == before)
    return replace(log, traces=kept)


def filter_complete(log: EventLog) -> EventLog:
    """Drop ongoing cases (trace attribute complete=false)."""
    return replace(log, traces=tuple(t for t in log if t.complete))


def drop_activities(log: EventLog, labels: set[str]) -> EventLog:
    """Remove all events with the given activity labels, keeping traces."""
    return replace(log, traces=tuple(
        replace(t, events=tuple(e for e in t.events if e.activity not in labels)) for t in log))
