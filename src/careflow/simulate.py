"""Seeded stochastic log generation by playing the token game on a net.

Each case runs the net from its initial to its final marking. Conflicting
transitions (those sharing the same preset) are resolved by configured branch
probabilities; independent enabled groups are interleaved uniformly at random.
Every labeled firing advances the case clock by a drawn delay and emits one
event; silent firings emit nothing.

Case i draws from substreams of (seed, i), so the generated log is a pure
function of (config, net) and cases can be produced in any order or in
parallel without changing the output. Control-flow choices, delay draws and
the admission draw use three separate substreams per case: changing a delay
parameter never reshuffles which path a case takes, which keeps calibration
against aggregate targets well behaved.

One ``simulate`` call plays every case on one step table: each marking it
reaches is numbered and its conflict groups are built on the first visit, with
each member's successor, label and delay draw worked out then. A step is then a
draw and a lookup, and each (marking, transition) fires once per call.

A case keeps its clock as an integer count of microseconds, which rounds each
delay exactly as ``timedelta(hours=...)`` does, so its log bytes are those of
``datetime`` arithmetic. A delay that carries a case past the year 9999 is a
ConfigError.

Configs are flat ``key = value`` text files (see ``parse_config``). The
packaged ``covas_desk.config`` regenerates a desk-scale log whose headline
statistics match the COVID ICU case study this toolkit reproduces; its delay
parameters are calibration artifacts, not measured clinical values.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from itertools import accumulate
from math import cos, exp, log, pi, sqrt

from .errors import ConfigError, SimulationDeadlockError
from .eventlog import (Event, EventLog, Trace, _attr_text, _normalize_attrs,
                       _without_cycle_collection)
from .petri import PetriNet
from .rng import Stream
from .timeutil import parse_timestamp

_MAX_STEPS_PER_CASE = 10_000
_REQUIRED = object()  # parse_config: a key without a default

CONFIG_VERSION = 1


@dataclass(frozen=True)
class DelaySpec:
    """Delay distribution for one activity, in hours: ``fixed hours``, ``uniform low high``
    or ``lognormal mean sigma``; finite, none negative, a lognormal mean above 0, low <= high."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        p = self.params
        if {"fixed": 1, "uniform": 2, "lognormal": 2}.get(self.kind) != len(p):
            raise ConfigError(f"bad delay kind {self.kind!r} or parameter count {len(p)}")
        if (not all(0 <= x < math.inf for x in p)  # NaN fails every comparison
                or (self.kind == "lognormal" and p[0] == 0)
                or (self.kind == "uniform" and p[0] > p[1])):
            raise ConfigError(f"undefined or negative delay {self.kind} {p}")


@dataclass(frozen=True)
class WaveSpec:
    """One admission wave.

    ``share`` is the wave's fraction of complete cases. ``admission_mode`` and
    ``admission_spread_hours`` shape admissions inside the window (truncated
    normal); without a mode, admissions are uniform. ``delay_scale``
    multiplies every activity delay for the wave's cases.
    """

    window_start: datetime
    window_end: datetime
    share: float
    admission_mode: datetime | None = None
    admission_spread_hours: float = 0.0
    delay_scale: float = 1.0

    def __post_init__(self):
        if not 0 <= self.share <= 1:  # NaN fails every comparison
            raise ConfigError(f"share must be in [0,1], got {self.share}")
        if self.window_end < self.window_start:
            raise ConfigError("window_end is before window_start")
        if not 0 <= self.delay_scale < math.inf:
            raise ConfigError("delay_scale must be finite and >= 0")
        if not 0 <= self.admission_spread_hours < math.inf:
            raise ConfigError("admission_spread_hours must be finite and >= 0")
        if self.admission_mode is None:
            if self.admission_spread_hours:
                raise ConfigError("admission_spread_hours without admission_mode")
        elif not self.window_start <= self.admission_mode <= self.window_end:
            raise ConfigError("admission_mode is outside the wave's window")


@dataclass(frozen=True)
class SimConfig:
    case_count: int
    seed: int
    waves: tuple[WaveSpec, ...]
    branch_probabilities: dict[str, float]  # transition id -> pick probability
    delays: dict[str, DelaySpec]            # activity label -> delay; 'default' allowed
    ongoing_fraction: float = 0.0
    ards_probability: float = 0.0
    name: str = "simulated"

    def __post_init__(self):
        if self.case_count <= 0:
            raise ConfigError("case_count must be positive")
        if not self.waves:
            raise ConfigError("at least one wave is required")
        total = sum(w.share for w in self.waves)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"wave shares must sum to 1, got {total}")
        for key, p in self.branch_probabilities.items():
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"probability for {key!r} out of [0,1]: {p}")
        if not 0.0 <= self.ongoing_fraction < 1.0:
            raise ConfigError("ongoing_fraction must be in [0,1)")
        if not 0.0 <= self.ards_probability <= 1.0:
            raise ConfigError("ards_probability must be in [0,1]")


@dataclass(frozen=True)
class NoiseSpec:
    event_drop_probability: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.event_drop_probability <= 1.0:
            raise ConfigError("event_drop_probability must be in [0,1]")


def _largest_remainder(shares: list[float], total: int) -> list[int]:
    """Apportion ``total`` items by shares, deterministically."""
    raw = [share * total for share in shares]
    counts = [int(x) for x in raw]
    leftover = total - sum(counts)
    order = sorted(range(len(shares)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def _case_plan(config: SimConfig) -> list[tuple[int, bool]]:
    """Per case: (wave index, ongoing?). Ongoing cases land in the last wave,
    which is where cases still under treatment at export time belong."""
    n_ongoing = int(config.ongoing_fraction * config.case_count + 0.5)
    n_complete = config.case_count - n_ongoing
    per_wave = _largest_remainder([w.share for w in config.waves], n_complete)
    plan: list[tuple[int, bool]] = []
    for wave_index, count in enumerate(per_wave):
        plan.extend((wave_index, False) for _ in range(count))
    plan.extend((len(config.waves) - 1, True) for _ in range(n_ongoing))
    return plan


def _draw_admission(wave: WaveSpec, rng: Stream) -> datetime:
    lo = 0.0
    hi = (wave.window_end - wave.window_start).total_seconds() / 3600.0
    if wave.admission_mode is not None:
        center = (wave.admission_mode - wave.window_start).total_seconds() / 3600.0
        hours = rng.truncated_normal(center, wave.admission_spread_hours, lo, hi)
    else:
        hours = rng.uniform(lo, hi)
    instant = wave.window_start + timedelta(hours=hours)
    return instant.replace(microsecond=0)


_FIXED, _UNIFORM, _LOGNORMAL, _UNDEFINED = range(4)


def _delay(label: str | None, config: SimConfig) -> tuple | None:
    """A label's delay draw in hours as (kind, a, b): ``a``, ``a + u * b`` or
    ``exp(a + b * z)``, with a uniform's width and a lognormal's log-space mean worked
    out once; a missing delay carries the message of the ConfigError that its first
    draw raises (a fresh error: one kept in the table would, once raised, hold the
    frames that hold the table in a reference cycle)."""
    if label is None:
        return None
    spec = config.delays.get(label) or config.delays.get("default")
    if spec is None:
        return _UNDEFINED, f"no delay configured for activity {label!r} and no default", None
    p = spec.params
    if spec.kind == "fixed":
        return _FIXED, p[0], None
    if spec.kind == "uniform":
        return _UNIFORM, p[0], p[1] - p[0]
    return _LOGNORMAL, math.log(p[0]) - 0.5 * p[1] * p[1], p[1]


class _StepTable:
    """The markings one ``simulate`` call reaches, in ``CompiledNet``'s form and numbered
    as found, and their conflict groups, built on first visit: enabled transitions
    grouped by identical preset, groups sorted by preset, each (members in id order, pick
    sums, weight total) and each member (successor number, label, ``_delay``). A group
    whose weights sum to 0 holds its members' ids, joined, in place of its total."""

    def __init__(self, net: PetriNet, config: SimConfig):
        self.net, self.config = net, config
        self.ids: dict[bytes | tuple[int, ...], int] = {}
        self.vectors: list[bytes | tuple[int, ...]] = []
        self.groups: list[list | None] = []
        self.initial, self.final = self._id(net.compiled.initial), self._id(net.compiled.final)

    def _id(self, vector: bytes | tuple[int, ...]) -> int:
        marking = self.ids.get(vector)
        if marking is None:
            marking = self.ids[vector] = len(self.vectors)
            self.vectors.append(vector)
            self.groups.append(None)
        return marking

    def build(self, marking: int) -> list:
        """A group of two or more picks the first member whose running sum of weights exceeds
        ``u * total``. The sums are a running maximum, so bisection finds it even where an
        over-full group's unconfigured members weigh slightly below 0. A total that is not
        positive raises when the group draws, not here: a group never drawn must not fail.
        The table keeps the message, not the error, for the reason ``_delay`` gives."""
        cn, probs = self.net.compiled, self.config.branch_probabilities
        vector = self.vectors[marking]
        groups: dict[tuple[str, ...], dict[int, bytes | tuple[int, ...]]] = {}
        for t in range(len(cn.tids)):  # enabled: fires without a missing token
            succ, missing = cn.fire(vector, t)
            if not missing:
                groups.setdefault(tuple(sorted(cn.place_ids[p] for p in cn.pre[t])), {})[t] = succ
        out = []
        for key in sorted(groups):
            group = groups[key]
            configured = {t: probs[cn.tids[t]] for t in group if cn.tids[t] in probs}
            mass = sum(configured.values())
            free = [t for t in group if t not in configured]
            # unconfigured members share what is left; over-full groups are normalized by the draw
            rest = (1.0 - mass) / len(free) if free and mass <= 1.0 + 1e-9 else 0.0
            members = tuple((self._id(succ), cn.labels[t], _delay(cn.labels[t], self.config))
                            for t, succ in group.items())
            weights = [configured.get(t, rest) for t in group]
            total = sum(weights)
            if total <= 0:
                total = ", ".join([cn.tids[t] for t in group])
            out.append((members, list(accumulate(accumulate(weights), max)), total))
        self.groups[marking] = out
        return out


def _play_case(table: _StepTable, scale: float, path_rng: Stream, delay_rng: Stream,
               admission: datetime, case_id: str) -> list[Event]:
    """One case's events, played on the step table with its path and delay streams' draws."""
    path, delay = path_rng.random, delay_rng.random
    groups_at, final = table.groups, table.final
    marking = table.initial
    clock, prev = 0, -1  # microseconds since admission; the last event's seconds since it
    events: list[Event] = []
    for _ in range(_MAX_STEPS_PER_CASE):
        if marking == final:
            return events
        groups = groups_at[marking]
        if groups is None:
            groups = table.build(marking)
        n = len(groups)
        if n == 1:
            members, sums, total = groups[0]
        elif n:
            pick = int(path() * n)
            members, sums, total = groups[pick if pick < n else n - 1]
        else:
            stuck = table.net.compiled.marking(table.vectors[marking]).key()
            raise SimulationDeadlockError(f"simulation deadlocked at marking {dict(stuck)!r}")
        n = len(members)
        if n == 1:
            marking, label, draw = members[0]
        else:
            if type(total) is str:
                raise ConfigError(f"the branch probabilities of {total} sum to 0")
            pick = bisect_right(sums, path() * total)
            marking, label, draw = members[pick if pick < n else n - 1]
        if label is None:
            continue
        kind, a, b = draw
        try:
            if kind == _FIXED:
                hours = a
            else:
                if kind == _LOGNORMAL:  # Box-Muller: u1 is drawn until it is not 0, then u
                    u1 = delay()
                    while u1 <= 0.0:
                        u1 = delay()
                elif kind == _UNDEFINED:
                    raise ConfigError(a)
                u = delay()
                hours = (exp(a + b * (sqrt(-2.0 * log(u1)) * cos(2.0 * pi * u)))
                         if kind == _LOGNORMAL else a + u * b)
            # timedelta(hours=hours * scale) as CPython rounds it: whole hours, the fraction's
            # whole microseconds, then the rest half to even on the parity of the delta's own
            # total, where round() would look at the rest alone; infinity raises OverflowError
            hours *= scale
            whole = int(hours)
            part = (hours - whole) * 3600000000.0
            micros = int(part)
            step = whole * 3600000000 + micros
            part -= micros
            clock += step + 1 if part > 0.5 or part == 0.5 and step & 1 else step
            seconds = clock // 1_000_000
            if seconds <= prev:
                seconds = prev + 1  # keep timestamps strictly increasing
            prev = seconds
            events.append(Event(label, admission + timedelta(0, seconds)))
        except OverflowError:
            raise ConfigError(f"the delay of {label!r} carries {case_id} "
                              "past the year 9999") from None
    raise SimulationDeadlockError("simulated case did not reach the final marking "
                                  f"within {_MAX_STEPS_PER_CASE} steps")


@_without_cycle_collection
def simulate(config: SimConfig, net: PetriNet) -> EventLog:
    """Generate an event log; identical (config, net) give identical logs."""
    unknown = sorted(config.branch_probabilities.keys() - set(net.compiled.tids))
    if unknown:
        raise ConfigError(f"probability for {unknown[0]!r} names no transition of the net")
    plan = _case_plan(config)
    width = len(str(len(plan)))
    traces: list[Trace] = []
    table = _StepTable(net, config)
    shared = {(ards, complete): _normalize_attrs({"ards": ards, "complete": complete})
              for ards in (False, True) for complete in (False, True)}  # one dict per set
    for case_index, (wave_index, ongoing) in enumerate(plan):
        case = Stream(config.seed, case_index)
        wave = config.waves[wave_index]
        case_id = f"case_{case_index + 1:0{width}d}"
        path_rng = case.substream(0)
        events = _play_case(table, wave.delay_scale, path_rng, case.substream(1),
                            _draw_admission(wave, case.substream(2)), case_id)
        ards = path_rng.bernoulli(config.ards_probability)
        if ongoing and len(events) >= 2:
            keep = 1 + path_rng.randint(len(events) - 1)  # uniform proper prefix
            events = events[:keep]
            complete = False
        else:
            complete = True
        traces.append(Trace(case_id, tuple(events), shared[ards, complete]))
    return EventLog(tuple(traces), name=config.name)


@_without_cycle_collection
def inject_noise(log: EventLog, spec: NoiseSpec) -> EventLog:
    """Independently drop middle events with the configured probability.

    A trace's first and last events are always kept, as are Start/End markers,
    so no trace is ever emptied. Deterministic under the noise seed.
    """
    keep_from = spec.event_drop_probability  # a draw below it drops an unprotected event
    out: list[Trace] = []
    for trace_index, trace in enumerate(log):
        draw = Stream(spec.seed, trace_index).random
        last = len(trace.events) - 1
        # the draw comes first, so every event takes one, protected or not
        kept = tuple([event for position, event in enumerate(trace.events)
                      if draw() >= keep_from or position == 0 or position == last
                      or event.activity in ("Start", "End")])
        out.append(Trace(trace.case_id, kept, trace.attributes, trace.raw_extensions))
    return replace(log, traces=tuple(out))


# --- config file format ---------------------------------------------------------

def _delay_spec(text: str) -> DelaySpec:
    kind, *params = text.split() or [""]
    return DelaySpec(kind, tuple(float(p) for p in params))


# (key, parser, default) of the top-level keys and of the ``wave.<n>.`` keys, in the order
# write_config spells them; each key names the field of SimConfig or WaveSpec it fills
_CONFIG_KEYS = (("name", str, "simulated"), ("case_count", int, _REQUIRED),
                ("seed", int, _REQUIRED), ("ongoing_fraction", float, 0.0),
                ("ards_probability", float, 0.0))
_WAVE_KEYS = (("window_start", parse_timestamp, _REQUIRED),
              ("window_end", parse_timestamp, _REQUIRED), ("share", float, _REQUIRED),
              ("admission_mode", parse_timestamp, None),
              ("admission_spread_hours", float, 0.0), ("delay_scale", float, 1.0))


def parse_config(text: str) -> tuple[SimConfig, NoiseSpec | None]:
    """Parse the flat key-value config format into records, which check themselves.

    Lines are ``key = value``; '#' starts a comment; wave fields use
    ``wave.<n>.<field>``; branch probabilities ``prob.<transition_id>``;
    delays ``delay.<activity> = kind params...`` (see ``DelaySpec``);
    optional noise via ``noise.drop_probability`` and ``noise.seed``. A record's
    ConfigError is raised again with the line of its delay or the number of its wave.
    """
    entries: dict[str, tuple[str, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", line=line_no)
        entries[key] = (value, line_no)

    def take(key: str, conv, default=_REQUIRED):
        """The converted value of a key, which is consumed; bad values name their line."""
        if key not in entries:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            return default
        raw, line_no = entries.pop(key)
        try:
            return conv(raw)
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}", line=line_no) from None
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {raw!r}", line=line_no)

    version = take("config_version", int)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config_version {version}")
    fields = {key: take(key, conv, default) for key, conv, default in _CONFIG_KEYS}
    noise_p = take("noise.drop_probability", float, None)
    if noise_p is None and "noise.seed" in entries:
        raise ConfigError("noise.seed without noise.drop_probability", line=entries["noise.seed"][1])
    noise_seed = take("noise.seed", int, fields["seed"])

    waves = []
    numbers = {key.split(".")[1] for key in entries if key.startswith("wave.")}
    for index in sorted(int(number) for number in numbers if number.isdecimal()):
        wave = {key: take(f"wave.{index}.{key}", conv, default) for key, conv, default in _WAVE_KEYS}
        try:
            waves.append(WaveSpec(**wave))
        except ConfigError as exc:
            raise ConfigError(f"wave {index}: {exc}") from None

    probs = {key[len("prob."):]: take(key, float)
             for key in list(entries) if key.startswith("prob.")}
    delays = {key[len("delay."):]: take(key, _delay_spec)
              for key in list(entries) if key.startswith("delay.")}
    if entries:  # a key no table names, or a wave's key without a wave number
        stray, (_, line_no) = next(iter(entries.items()))
        raise ConfigError(f"unknown key {stray!r}", line=line_no)

    config = SimConfig(waves=tuple(waves), branch_probabilities=probs, delays=delays, **fields)
    return config, None if noise_p is None else NoiseSpec(noise_p, noise_seed)


def _spelled(what: str, text: str, banned: str = "#") -> str:
    """``text``, or ConfigError if ``parse_config`` would read it back differently: a '#'
    starts a comment, a key ends at '=', and a line is split at line breaks and stripped."""
    if any(c in text for c in banned) or text.strip() != text or len(text.splitlines()) > 1:
        raise ConfigError(f"cannot write {what} {text!r}: it would read back differently")
    return text


def write_config(config: SimConfig, noise: NoiseSpec | None = None) -> str:
    """Serialize a config in the flat key-value format (sorted, deterministic); a wave
    field that holds its default is left out, and text that would not read back raises."""
    lines = [f"config_version = {CONFIG_VERSION}"]
    lines += [f"{key} = {_spelled(key, _attr_text(getattr(config, key))[1])}"
              for key, _, _ in _CONFIG_KEYS]
    for index, wave in enumerate(config.waves, start=1):
        lines.append("")
        lines += [f"wave.{index}.{key} = {_attr_text(value)[1]}" for key, _, default in _WAVE_KEYS
                  if (value := getattr(wave, key)) != default]
    lines.append("")
    for tid, p in sorted(config.branch_probabilities.items()):
        lines.append(f"prob.{_spelled('transition id', tid, '#=')} = {p!r}")
    lines.append("")
    for label, spec in sorted(config.delays.items()):
        params = " ".join(repr(p) for p in spec.params)
        lines.append(f"delay.{_spelled('activity label', label, '#=')} = {spec.kind} {params}")
    if noise is not None:
        lines.append("")
        lines.append(f"noise.drop_probability = {noise.event_drop_probability!r}")
        lines.append(f"noise.seed = {noise.seed}")
    lines.append("")
    return "\n".join(lines)
