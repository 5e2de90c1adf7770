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

Configs are flat ``key = value`` text files (see ``parse_config``). The
packaged ``covas_desk.config`` regenerates a desk-scale log whose headline
statistics match the COVID ICU case study this toolkit reproduces; its delay
parameters are calibration artifacts, not measured clinical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta

from .errors import ConfigError, SimulationDeadlockError
from .eventlog import Event, EventLog, Trace, _without_cycle_collection
from .petri import PetriNet
from .rng import Stream
from .timeutil import format_timestamp, parse_split_instant

_MAX_STEPS_PER_CASE = 10_000
_REQUIRED = object()  # parse_config: a key without a default

CONFIG_VERSION = 1


@dataclass(frozen=True)
class DelaySpec:
    """Delay distribution for one activity; parameters are in hours."""

    kind: str  # 'fixed' | 'uniform' | 'lognormal'
    params: tuple[float, ...]


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
    out once; an undefined delay carries the error that its first draw raises."""
    if label is None:
        return None
    spec = config.delays.get(label) or config.delays.get("default")
    if spec is None:
        return _UNDEFINED, ConfigError(f"no delay configured for activity {label!r} "
                                       "and no default"), None
    p = spec.params
    if spec.kind == "fixed":
        return _FIXED, p[0], None
    if spec.kind == "uniform":
        return _UNIFORM, p[0], p[1] - p[0]
    if p[0] <= 0:
        return _UNDEFINED, ValueError("lognormal mean must be positive"), None
    return _LOGNORMAL, math.log(p[0]) - 0.5 * p[1] * p[1], p[1]


class _StepTable:
    """The markings one ``simulate`` call reaches, numbered as found, and their
    conflict groups, built on first visit: enabled transitions grouped by identical
    preset, groups sorted by preset, each (members in id order, pick weights) and
    each member (successor number, label, ``_delay``)."""

    def __init__(self, net: PetriNet, config: SimConfig):
        self.net, self.config = net, config
        self.ids: dict[tuple[int, ...], int] = {}
        self.vectors: list[tuple[int, ...]] = []
        self.groups: list[list | None] = []
        self.initial, self.final = self._id(net.compiled.initial), self._id(net.compiled.final)

    def _id(self, vector: tuple[int, ...]) -> int:
        marking = self.ids.get(vector)
        if marking is None:
            marking = self.ids[vector] = len(self.vectors)
            self.vectors.append(vector)
            self.groups.append(None)
        return marking

    def build(self, marking: int) -> list:
        net, cn, probs = self.net, self.net.compiled, self.config.branch_probabilities
        vector = self.vectors[marking]
        groups: dict[tuple[str, ...], list[int]] = {}
        for t in cn.enabled(vector):
            groups.setdefault(tuple(sorted(net.inputs(cn.tids[t]))), []).append(t)
        out = []
        for key in sorted(groups):
            group = groups[key]
            configured = {t: probs[cn.tids[t]] for t in group if cn.tids[t] in probs}
            mass = sum(configured.values())
            free = [t for t in group if t not in configured]
            # unconfigured members share what is left; over-full groups are normalized by the draw
            rest = (1.0 - mass) / len(free) if free and mass <= 1.0 + 1e-9 else 0.0
            members = tuple((self._id(cn.fire(vector, t, strict=True)[0]), cn.labels[t],
                             _delay(cn.labels[t], self.config)) for t in group)
            out.append((members, [configured.get(t, rest) for t in group]))
        self.groups[marking] = out
        return out


def _play_case(table: _StepTable, wave: WaveSpec, path_rng: Stream, delay_rng: Stream,
               admission: datetime) -> list[Event]:
    """One case's events, played on the step table."""
    groups_at, final, scale = table.groups, table.final, wave.delay_scale
    marking = table.initial
    clock = admission
    prev_ts: datetime | None = None
    events: list[Event] = []
    for _ in range(_MAX_STEPS_PER_CASE):
        if marking == final:
            return events
        groups = groups_at[marking]
        if groups is None:
            groups = table.build(marking)
        if not groups:
            vector = table.vectors[marking]
            raise SimulationDeadlockError(repr(dict(table.net.compiled.marking(vector).key())))
        members, weights = groups[path_rng.randint(len(groups))] if len(groups) > 1 else groups[0]
        marking, label, delay = (members[path_rng.pick_weighted(weights)] if len(members) > 1
                                 else members[0])
        if label is not None:
            kind, a, b = delay
            if kind == _LOGNORMAL:
                hours = math.exp(a + b * delay_rng.normal())
            elif kind == _FIXED:
                hours = a
            elif kind == _UNIFORM:
                hours = a + delay_rng.random() * b
            else:
                raise a
            # timedelta(hours=...) and clock.replace(microsecond=0), spelled positionally,
            # which gives the same instants without parsing keyword arguments per event
            clock += timedelta(0, 0, 0, 0, 0, hours * scale)
            ts = clock - timedelta(0, 0, clock.microsecond)
            if prev_ts is not None and ts <= prev_ts:
                ts = prev_ts + timedelta(seconds=1)  # keep timestamps strictly increasing
            prev_ts = ts
            events.append(Event(label, ts))
    raise SimulationDeadlockError("case did not reach the final marking "
                                  f"within {_MAX_STEPS_PER_CASE} steps")


@_without_cycle_collection
def simulate(config: SimConfig, net: PetriNet) -> EventLog:
    """Generate an event log; identical (config, net) give identical logs."""
    plan = _case_plan(config)
    width = len(str(len(plan)))
    traces: list[Trace] = []
    table = _StepTable(net, config)
    for case_index, (wave_index, ongoing) in enumerate(plan):
        path_rng = Stream(config.seed, case_index, 0)
        delay_rng = Stream(config.seed, case_index, 1)
        admission_rng = Stream(config.seed, case_index, 2)
        wave = config.waves[wave_index]
        admission = _draw_admission(wave, admission_rng)
        events = _play_case(table, wave, path_rng, delay_rng, admission)
        ards = path_rng.bernoulli(config.ards_probability)
        if ongoing and len(events) >= 2:
            keep = 1 + path_rng.randint(len(events) - 1)  # uniform proper prefix
            events = events[:keep]
            complete = False
        else:
            complete = True
        case_id = f"case_{case_index + 1:0{width}d}"
        traces.append(Trace(case_id, tuple(events),
                            {"ards": ards, "complete": complete}))
    return EventLog(tuple(traces), name=config.name)


@_without_cycle_collection
def inject_noise(log: EventLog, spec: NoiseSpec) -> EventLog:
    """Independently drop middle events with the configured probability.

    A trace's first and last events are always kept, as are Start/End markers,
    so no trace is ever emptied. Deterministic under the noise seed.
    """
    out: list[Trace] = []
    for trace_index, trace in enumerate(log):
        rng = Stream(spec.seed, trace_index)
        kept = []
        last = len(trace.events) - 1
        for position, event in enumerate(trace.events):
            protected = position in (0, last) or event.activity in ("Start", "End")
            drop = rng.bernoulli(spec.event_drop_probability)
            if protected or not drop:
                kept.append(event)
        out.append(replace(trace, events=tuple(kept)))
    return replace(log, traces=tuple(out))


# --- config file format ---------------------------------------------------------

def parse_config(text: str) -> tuple[SimConfig, NoiseSpec | None]:
    """Parse the flat key-value config format.

    Lines are ``key = value``; '#' starts a comment; wave fields use
    ``wave.<n>.<field>``; branch probabilities ``prob.<transition_id>``;
    delays ``delay.<activity> = kind params...`` with kind ``fixed hours``,
    ``uniform low high`` or ``lognormal mean sigma`` (finite, none negative,
    a lognormal mean above 0); optional noise via ``noise.drop_probability``
    and ``noise.seed``.
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
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {raw!r}", line=line_no)

    version = take("config_version", int)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config_version {version}")
    name = take("name", str, "simulated")
    case_count = take("case_count", int)
    seed = take("seed", int)
    ongoing_fraction = take("ongoing_fraction", float, 0.0)
    ards_probability = take("ards_probability", float, 0.0)
    noise_p = take("noise.drop_probability", float, None)
    if noise_p is None and "noise.seed" in entries:
        raise ConfigError("noise.seed without noise.drop_probability", line=entries["noise.seed"][1])
    noise_seed = take("noise.seed", int, None)

    wave_indices = set()
    for key, (_, line_no) in entries.items():
        if key.startswith("wave."):
            index = key.split(".")[1]
            if not index.isdecimal():
                raise ConfigError(f"bad wave number in key {key!r}", line=line_no)
            wave_indices.add(int(index))
    waves = []
    for index in sorted(wave_indices):
        prefix = f"wave.{index}."
        spread_key = prefix + "admission_spread_hours"
        if spread_key in entries and prefix + "admission_mode" not in entries:
            raise ConfigError(f"wave {index}: admission_spread_hours without admission_mode",
                              line=entries[spread_key][1])
        wave = WaveSpec(
            window_start=take(prefix + "window_start", parse_split_instant),
            window_end=take(prefix + "window_end", parse_split_instant),
            share=take(prefix + "share", float),
            admission_mode=take(prefix + "admission_mode", parse_split_instant, None),
            admission_spread_hours=take(spread_key, float, 0.0),
            delay_scale=take(prefix + "delay_scale", float, 1.0),
        )
        if wave.window_end < wave.window_start:
            raise ConfigError(f"wave {index}: window_end is before window_start")
        if not 0 <= wave.delay_scale < math.inf:
            raise ConfigError(f"wave {index}: delay_scale must be finite and >= 0")
        if not 0 <= wave.admission_spread_hours < math.inf:
            raise ConfigError(f"wave {index}: admission_spread_hours must be finite and >= 0")
        if wave.admission_mode is not None and not (
                wave.window_start <= wave.admission_mode <= wave.window_end):
            raise ConfigError(f"wave {index}: admission_mode is outside the wave's window")
        waves.append(wave)

    probs: dict[str, float] = {}
    delays: dict[str, DelaySpec] = {}
    for key in list(entries):
        value, line_no = entries[key]
        if key.startswith("prob."):
            probs[key[len("prob."):]] = take(key, float)
        elif key.startswith("delay."):
            parts = value.split()
            kind = parts[0] if parts else ""
            want = {"fixed": 1, "uniform": 2, "lognormal": 2}.get(kind)
            if want is None or len(parts) != want + 1:
                raise ConfigError(f"bad delay spec {value!r} (kind params...)", line=line_no)
            try:
                params = tuple(float(p) for p in parts[1:])
            except ValueError:
                raise ConfigError(f"bad delay parameters in {value!r}", line=line_no)
            if (not all(0 <= p < math.inf for p in params)  # NaN fails every comparison
                    or (kind == "lognormal" and params[0] == 0)
                    or (kind == "uniform" and params[0] > params[1])):
                raise ConfigError(f"undefined or negative delay {value!r}", line=line_no)
            delays[key[len("delay."):]] = DelaySpec(kind, params)
            del entries[key]
    if entries:
        stray, (_, line_no) = next(iter(entries.items()))
        raise ConfigError(f"unknown key {stray!r}", line=line_no)

    config = SimConfig(case_count=case_count, seed=seed, waves=tuple(waves),
                       branch_probabilities=probs, delays=delays,
                       ongoing_fraction=ongoing_fraction,
                       ards_probability=ards_probability, name=name)
    noise = None
    if noise_p is not None:
        noise = NoiseSpec(noise_p, noise_seed if noise_seed is not None else seed)
    return config, noise


def write_config(config: SimConfig, noise: NoiseSpec | None = None) -> str:
    """Serialize a config in the flat key-value format (sorted, deterministic)."""
    lines = [f"config_version = {CONFIG_VERSION}",
             f"name = {config.name}",
             f"case_count = {config.case_count}",
             f"seed = {config.seed}",
             f"ongoing_fraction = {config.ongoing_fraction!r}",
             f"ards_probability = {config.ards_probability!r}",
             ""]
    for index, wave in enumerate(config.waves, start=1):
        lines.append(f"wave.{index}.window_start = {format_timestamp(wave.window_start)}")
        lines.append(f"wave.{index}.window_end = {format_timestamp(wave.window_end)}")
        lines.append(f"wave.{index}.share = {wave.share!r}")
        if wave.admission_mode is not None:
            lines.append(f"wave.{index}.admission_mode = {format_timestamp(wave.admission_mode)}")
            lines.append(f"wave.{index}.admission_spread_hours = {wave.admission_spread_hours!r}")
        if wave.delay_scale != 1.0:
            lines.append(f"wave.{index}.delay_scale = {wave.delay_scale!r}")
        lines.append("")
    for tid in sorted(config.branch_probabilities):
        lines.append(f"prob.{tid} = {config.branch_probabilities[tid]!r}")
    lines.append("")
    for label in sorted(config.delays):
        spec = config.delays[label]
        params = " ".join(repr(p) for p in spec.params)
        lines.append(f"delay.{label} = {spec.kind} {params}")
    if noise is not None:
        lines.append("")
        lines.append(f"noise.drop_probability = {noise.event_drop_probability!r}")
        lines.append(f"noise.seed = {noise.seed}")
    lines.append("")
    return "\n".join(lines)
