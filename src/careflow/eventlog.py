"""Event log data model: events, traces, logs, variants, statistics, filtering.

Values are immutable after construction; every operation returns new objects,
so per-trace work can safely run concurrently. Events and traces, of which a
log holds one per row and per case, are slotted: they carry no ``__dict__``.
Every record's attribute dict is read-only: records without attributes share
one empty dict, and each builder of a log (``simulate``, ``parse_xes``,
``parse_csv``) shares one dict among the traces whose attributes are equal.

An ``Event``'s timestamp is an aware datetime whose ``tzinfo`` is
``timezone.utc`` itself: ``Event`` normalizes any other instant with
``timeutil.to_utc``. The writers rely on it and spell a timestamp without
normalizing it again.

The builders of one record per event (``parse_xes``, ``parse_csv``, ``simulate``,
``inject_noise``, ``dotted_chart``) run with the cyclic garbage collector paused
(``_without_cycle_collection``, the one place the library touches the collector).
With the collector on and nothing frozen, what a builder returns sits in the
collector's oldest generation: no young or middle pass walks its records, and the
caller's young cyclic garbage was collected first rather than kept with them.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from operator import attrgetter

from .timeutil import _UTC, format_timestamp, parse_timestamp, to_utc

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


class _ReadOnlyAttributes(dict):
    """A record's attributes. A dict, so that they repr, compare and serialize as
    one; any change raises TypeError, so records may share them."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a record's attributes are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    update = setdefault = pop = popitem = clear = _read_only

    def __reduce__(self):  # pickle and copy give back the shared empty dict, or a read-only one
        return (_ReadOnlyAttributes, (dict(self),)) if self else "_NO_ATTRIBUTES"


_NO_ATTRIBUTES = _ReadOnlyAttributes()
_activity_of = attrgetter("activity")
_timestamp_of = attrgetter("timestamp")


def _normalize_attrs(attrs: dict[str, AttrValue] | None) -> dict[str, AttrValue]:
    """A read-only copy with instant-valued attributes normalized to UTC like event
    timestamps; the shared ``_NO_ATTRIBUTES`` for none, and read-only ones as they are."""
    if not attrs:
        return _NO_ATTRIBUTES  # most records carry none; one 64 B dict less each
    if type(attrs) is _ReadOnlyAttributes:
        return attrs  # normalized when made, so records built from records share them
    return _ReadOnlyAttributes({k: to_utc(v) if isinstance(v, datetime) else v
                                for k, v in attrs.items()})


def _without_cycle_collection(build):
    """``build`` with the cyclic garbage collector paused while it runs, and what it
    built handed to the collector's oldest generation when it returns.

    For the functions that allocate one record per event. What they build must
    hold no reference cycle, so that reference counting frees all of it and a
    pause defers collection without leaking. A pause alone only defers the work:
    the next young pass would walk every record, and a middle pass again, freeing
    nothing. So on return ``gc.freeze()`` then ``gc.unfreeze()`` moves every tracked
    object into the oldest generation, in constant time, and zeroes the young
    count; only a full pass walks the records after that. Before pausing, an entry
    pass (``gc.collect(1)``) collects the caller's young generations, whose cyclic
    garbage would otherwise be promoted too and kept until some full pass.

    The promotion is skipped while any object is frozen, so that what a caller
    froze stays frozen; CPython 3.12.1 starts with 375 tuples frozen, so there the
    wrapper pauses and makes the entry pass but promotes nothing. Pause and
    promotion are process-wide: objects that other threads allocate during a
    build are promoted with the records. Where the caller had disabled the
    collector, nothing is collected or promoted; where ``build`` raises, nothing
    is promoted. Either way the collector is left as the caller had it.
    """
    @functools.wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.collect(1)
        gc.disable()
        try:
            built = build(*args, **kwargs)
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            return built
        finally:
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
        # __post_init__ sets timestamp and attributes twice, at about twice the cost; the
        # slots are set through their descriptors, which a frozen class's __setattr__ skips
        if not activity:
            raise ValueError("event activity must be non-empty")
        _set_activity(self, activity)
        _set_timestamp(self, timestamp if timestamp.tzinfo is _UTC else to_utc(timestamp))
        _set_event_attributes(self, _NO_ATTRIBUTES if not attributes
                              else _normalize_attrs(attributes))
        _set_event_extensions(self, raw_extensions)


_set_activity, _set_timestamp, _set_event_attributes, _set_event_extensions = (
    Event.__dict__[name].__set__ for name in ("activity", "timestamp", "attributes",
                                              "raw_extensions"))


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
        # written out like Event's: each field is set once, through its descriptor
        if not case_id:
            raise ValueError("trace case_id must be non-empty")
        events = tuple(events)
        previous = events[0].timestamp if events else None
        for event in events:
            if event.timestamp < previous:
                events = tuple(sorted(events, key=_timestamp_of))
                break
            previous = event.timestamp
        _set_case_id(self, case_id)
        _set_events(self, events)
        _set_trace_attributes(self, _NO_ATTRIBUTES if not attributes
                              else _normalize_attrs(attributes))
        _set_trace_extensions(self, raw_extensions)

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
        return tuple(map(_activity_of, self.events))


_set_case_id, _set_events, _set_trace_attributes, _set_trace_extensions = (
    Trace.__dict__[name].__set__ for name in ("case_id", "events", "attributes",
                                              "raw_extensions"))


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
        variant_count=len({t.activities() for t in log}),
        complete_case_count=sum(1 for t in log if t.complete),
        mean_events_per_case=mean_events,
        mean_case_duration=_mean_case_duration(log),
    )


def _mean_case_duration(log: EventLog) -> timedelta | None:
    """Mean first-to-last event gap of the complete traces with events, else None."""
    durations = [t.duration for t in log if t.complete and t.events]
    return sum(durations, timedelta()) / len(durations) if durations else None


def split_by_time(log: EventLog, split: datetime) -> tuple[EventLog, EventLog]:
    """The whole traces whose first event is strictly earlier than ``split``, and the rest
    (traces without events too), each as a log with ``log``'s name and attributes."""
    split = to_utc(split)
    before, after = [], []
    for trace in log:
        (before if trace.events and trace.start_time < split else after).append(trace)
    return replace(log, traces=tuple(before)), replace(log, traces=tuple(after))


def filter_complete(log: EventLog) -> EventLog:
    """Drop ongoing cases (trace attribute complete=false)."""
    return replace(log, traces=tuple(t for t in log if t.complete))


def drop_activities(log: EventLog, labels: set[str]) -> EventLog:
    """Remove all events with the given activity labels, keeping traces."""
    return replace(log, traces=tuple(
        replace(t, events=tuple(e for e in t.events if e.activity not in labels)) for t in log))
