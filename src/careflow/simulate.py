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

Configs are flat ``key = value`` text files (see ``parse_config``). The
packaged ``covas_desk.config`` regenerates a desk-scale log whose headline
statistics match the COVID ICU case study this toolkit reproduces; its delay
parameters are calibration artifacts, not measured clinical values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta

from .errors import ConfigError, SimulationDeadlockError
from .eventlog import Event, EventLog, Trace
from .petri import PetriNet
from .rng import Stream
from .timeutil import format_timestamp, parse_split_instant

_MAX_STEPS_PER_CASE = 10_000

CONFIG_VERSION = 1


@dataclass(frozen=True)
class DelaySpec:
    """Delay distribution for one activity; parameters are in hours."""

    kind: str  # 'fixed' | 'uniform' | 'lognormal'
    params: tuple[float, ...]

    def draw(self, rng: Stream, scale: float) -> float:
        if self.kind == "fixed":
            return self.params[0] * scale
        if self.kind == "uniform":
            return rng.uniform(self.params[0], self.params[1]) * scale
        return rng.lognormal(self.params[0], self.params[1]) * scale


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


def _conflict_groups(net: PetriNet, marking: tuple[int, ...],
                     probs: dict[str, float]) -> list[tuple[tuple[int, ...], list[float]]]:
    """Enabled transitions grouped by identical preset, groups sorted by preset;
    each group is (transition indices in id order, pick weights)."""
    cn = net.compiled
    groups: dict[tuple[str, ...], list[int]] = {}
    for t in cn.enabled(marking):
        groups.setdefault(tuple(sorted(net.inputs(cn.tids[t]))), []).append(t)
    out = []
    for key in sorted(groups):
        group = groups[key]
        configured = {t: probs[cn.tids[t]] for t in group if cn.tids[t] in probs}
        mass = sum(configured.values())
        free = [t for t in group if t not in configured]
        # unconfigured members share what is left; over-full groups are normalized by the draw
        rest = (1.0 - mass) / len(free) if free and mass <= 1.0 + 1e-9 else 0.0
        out.append((tuple(group), [configured.get(t, rest) for t in group]))
    return out


def _delay_for(label: str, config: SimConfig) -> DelaySpec:
    spec = config.delays.get(label) or config.delays.get("default")
    if spec is None:
        raise ConfigError(f"no delay configured for activity {label!r} and no default")
    return spec


def _play_case(net: PetriNet, config: SimConfig, wave: WaveSpec, path_rng: Stream,
               delay_rng: Stream, admission: datetime, groups_at: dict) -> list[Event]:
    """One case's events; ``groups_at`` memoises ``_conflict_groups`` by marking."""
    cn = net.compiled
    marking = cn.initial
    clock = admission
    prev_ts: datetime | None = None
    events: list[Event] = []
    for _ in range(_MAX_STEPS_PER_CASE):
        if marking == cn.final:
            return events
        groups = groups_at.get(marking)
        if groups is None:
            groups = groups_at[marking] = _conflict_groups(net, marking,
                                                           config.branch_probabilities)
        if not groups:
            raise SimulationDeadlockError(repr(dict(cn.marking(marking).key())))
        group, weights = groups[path_rng.randint(len(groups))] if len(groups) > 1 else groups[0]
        t = group[path_rng.pick_weighted(weights)] if len(group) > 1 else group[0]
        marking, _ = cn.fire(marking, t, strict=True)
        label = cn.labels[t]
        if label is not None:
            clock += timedelta(hours=_delay_for(label, config).draw(delay_rng, wave.delay_scale))
            ts = clock.replace(microsecond=0)
            if prev_ts is not None and ts <= prev_ts:
                ts = prev_ts + timedelta(seconds=1)  # keep timestamps strictly increasing
            prev_ts = ts
            events.append(Event(label, ts))
    raise SimulationDeadlockError("case did not reach the final marking "
                                  f"within {_MAX_STEPS_PER_CASE} steps")


def simulate(config: SimConfig, net: PetriNet) -> EventLog:
    """Generate an event log; identical (config, net) give identical logs."""
    plan = _case_plan(config)
    width = len(str(len(plan)))
    traces: list[Trace] = []
    groups_at: dict = {}
    for case_index, (wave_index, ongoing) in enumerate(plan):
        path_rng = Stream(config.seed, case_index, 0)
        delay_rng = Stream(config.seed, case_index, 1)
        admission_rng = Stream(config.seed, case_index, 2)
        wave = config.waves[wave_index]
        admission = _draw_admission(wave, admission_rng)
        events = _play_case(net, config, wave, path_rng, delay_rng, admission, groups_at)
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
    delays ``delay.<activity> = kind params...``; optional noise via
    ``noise.drop_probability`` and ``noise.seed``.
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

    def take(key: str, default: str | None = None) -> str | None:
        if key in entries:
            return entries.pop(key)[0]
        return default

    def number(key: str, conv, default=None):
        raw = take(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return default
        try:
            return conv(raw)
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {raw!r}")

    version = number("config_version", int)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config_version {version}")
    name = take("name", "simulated")
    case_count = number("case_count", int)
    seed = number("seed", int)
    ongoing_fraction = number("ongoing_fraction", float, 0.0)
    ards_probability = number("ards_probability", float, 0.0)

    wave_indices = sorted({int(key.split(".")[1]) for key in entries if key.startswith("wave.")})
    waves = []
    for index in wave_indices:
        prefix = f"wave.{index}."
        start_raw = take(prefix + "window_start")
        end_raw = take(prefix + "window_end")
        if start_raw is None or end_raw is None:
            raise ConfigError(f"wave {index} needs window_start and window_end")
        mode_raw = take(prefix + "admission_mode")
        waves.append(WaveSpec(
            window_start=parse_split_instant(start_raw),
            window_end=parse_split_instant(end_raw),
            share=number(prefix + "share", float),
            admission_mode=None if mode_raw is None else parse_split_instant(mode_raw),
            admission_spread_hours=number(prefix + "admission_spread_hours", float, 0.0),
            delay_scale=number(prefix + "delay_scale", float, 1.0),
        ))

    probs: dict[str, float] = {}
    delays: dict[str, DelaySpec] = {}
    noise_p = None
    noise_seed = None
    for key in list(entries):
        value, line_no = entries[key]
        if key.startswith("prob."):
            try:
                probs[key[len("prob."):]] = float(value)
            except ValueError:
                raise ConfigError(f"bad probability {value!r}", line=line_no)
            del entries[key]
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
            delays[key[len("delay."):]] = DelaySpec(kind, params)
            del entries[key]
        elif key == "noise.drop_probability":
            noise_p = float(value)
            del entries[key]
        elif key == "noise.seed":
            noise_seed = int(value)
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
