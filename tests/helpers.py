"""Shared builders and independent oracles used across the test suite."""

from __future__ import annotations

import heapq
import math
import random
import warnings
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta, timezone
from importlib import resources

from careflow.analytics import DottedChartData, _color_for
from careflow.covas import covas_model
from careflow.dfg import _dot
from careflow.errors import (ConfigError, PetriNetError, PnmlFormatError, SimulationDeadlockError,
                             XesFormatError)
from careflow.eventlog import _PARSERS, AttrValue, Event, EventLog, Trace
from careflow.petri import Marking, PetriNet, Transition
from careflow.rng import Stream
from careflow.simulate import (SimConfig, WaveSpec, _case_plan, _draw_admission, inject_noise,
                               parse_config, simulate)
from careflow.timeutil import format_timestamp, to_utc
from careflow.xesio import _FORBIDDEN, XesWarning, _escape, _local, _quote

T0 = datetime(2020, 2, 1, tzinfo=timezone.utc)


def oracle_parse_timestamp(text: str) -> datetime:
    """``timeutil.parse_timestamp`` as it was before its fast path for UTC texts: the
    reference the fast path must equal, value for value and error for error."""
    text = text.strip()
    try:
        # datetime.fromisoformat in 3.10 does not accept a trailing 'Z'
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        return to_utc(datetime.fromisoformat(text))
    except OverflowError:
        raise ValueError(f"{text!r} lies outside the datetime range in UTC") from None


def make_trace(case_id: str, activities: list[str], start: datetime = T0,
               gap: timedelta = timedelta(hours=1), **attributes) -> Trace:
    events = tuple(Event(a, start + i * gap) for i, a in enumerate(activities))
    return Trace(case_id, events, dict(attributes))


def make_log(*sequences: list[str], start: datetime = T0) -> EventLog:
    traces = tuple(make_trace(f"c{i + 1}", seq, start=start + timedelta(minutes=i))
                   for i, seq in enumerate(sequences))
    return EventLog(traces)


def random_log(rnd: random.Random, max_cases: int = 12, max_events: int = 8,
               alphabet: str = "ABCDEF") -> EventLog:
    traces = []
    for i in range(rnd.randint(0, max_cases)):
        length = rnd.randint(0, max_events)
        start = T0 + timedelta(hours=rnd.randint(0, 2000))
        events = []
        ts = start
        for _ in range(length):
            ts += timedelta(minutes=rnd.randint(0, 600))
            events.append(Event(rnd.choice(alphabet), ts))
        attrs = {}
        if rnd.random() < 0.5:
            attrs["ards"] = rnd.random() < 0.5
        if rnd.random() < 0.5:
            attrs["complete"] = rnd.random() < 0.8
        traces.append(Trace(f"case{i}", tuple(events), attrs))
    return EventLog(tuple(traces))


def random_net(rnd: random.Random, max_places: int = 8) -> PetriNet:
    """Small random net: unique labels, every transition has inputs and outputs."""
    n_places = rnd.randint(2, max_places)
    places = tuple(f"q{i}" for i in range(n_places))
    n_labeled = rnd.randint(1, 5)
    n_silent = rnd.randint(0, 2)
    transitions = tuple(Transition(f"T{i}", f"A{i}") for i in range(n_labeled)) + \
        tuple(Transition(f"s{i}", None) for i in range(n_silent))
    arcs = []
    for trans in transitions:
        for place in rnd.sample(places, rnd.randint(1, min(3, n_places))):
            arcs.append((place, trans.id))
        for place in rnd.sample(places, rnd.randint(1, min(3, n_places))):
            arcs.append((trans.id, place))
    initial = {rnd.choice(places): 1}
    if rnd.random() < 0.3:
        initial[rnd.choice(places)] = initial.get(rnd.choice(places), 0) + 1
    final = {rnd.choice(places): 1}
    return PetriNet(places, transitions, tuple(dict.fromkeys(arcs)),
                    Marking(initial), Marking(final))


def budget_net() -> PetriNet:
    """Token-generating silent loop: s returns p2's token and adds one to p3."""
    return PetriNet(
        places=("p1", "p2", "p3"),
        transitions=(Transition("a", "A"), Transition("b", "B"), Transition("s", None)),
        arcs=(("p1", "a"), ("a", "p2"), ("p2", "b"), ("b", "p3"),
              ("p2", "s"), ("s", "p2"), ("s", "p3")),
        initial_marking=Marking({"p1": 1}),
        final_marking=Marking({"p3": 1}),
    )


def random_activities(rnd: random.Random, net: PetriNet, max_events: int = 6) -> list[str]:
    labels = sorted({t.label for t in net.transitions if t.label is not None})
    out = []
    for _ in range(rnd.randint(0, max_events)):
        if labels and rnd.random() < 0.85:
            out.append(rnd.choice(labels))
        else:
            out.append(f"Z{rnd.randint(0, 3)}")  # unmapped on purpose
    return out


# --- the token game by transition id -------------------------------------------------

def _check_marking(net: PetriNet, marking: Marking):
    unknown = marking.places() - set(net.places)
    if unknown:
        raise PetriNetError(f"marking references unknown places: {sorted(unknown)}")


class NotEnabledError(PetriNetError):
    """Raised by ``fire`` for a transition whose input places lack tokens."""

    def __init__(self, transition_id: str, missing_places: frozenset[str]):
        self.transition_id = transition_id
        self.missing_places = missing_places
        missing = ", ".join(sorted(missing_places))
        super().__init__(f"transition {transition_id!r} is not enabled; missing tokens in: {missing}")


def pre_post(net: PetriNet) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]:
    """Each transition id's input places and output places, in arc order, read off the arcs."""
    pre: dict[str, tuple[str, ...]] = {t.id: () for t in net.transitions}
    post = dict(pre)
    for source, target in net.arcs:
        if target in pre:
            pre[target] += (source,)
        else:
            post[source] += (target,)
    return pre, post


def enabled(net: PetriNet, marking: Marking) -> set[str]:
    """Ids of transitions whose input places hold enough tokens."""
    _check_marking(net, marking)
    pre, _ = pre_post(net)
    return {tid for tid, places in pre.items() if all(marking.get(p) for p in places)}


def fire(net: PetriNet, marking: Marking, tid: str) -> Marking:
    """Fire a transition, returning the successor marking.

    Raises NotEnabledError (carrying the missing input places) when the
    transition is not enabled; the input marking is never modified.
    """
    _check_marking(net, marking)
    pre, post = pre_post(net)
    if tid not in pre:
        raise PetriNetError(f"unknown transition {tid!r}")
    missing = frozenset(p for p in pre[tid] if not marking.get(p))
    if missing:
        raise NotEnabledError(tid, missing)
    counts = dict(marking.items())
    for place in pre[tid]:
        counts[place] -= 1
    for place in post[tid]:
        counts[place] = counts.get(place, 0) + 1
    return Marking(counts)


# reachable_markings gives up beyond this many markings, so an unbounded net fails fast.
STATE_LIMIT = 100_000


def reachable_markings(net: PetriNet) -> set[tuple[tuple[str, int], ...]]:
    """Exhaustive token-game state space from the initial marking, at most
    ``STATE_LIMIT`` markings; a larger one raises PetriNetError."""
    cn = net.compiled
    seen = {cn.initial}
    frontier = [cn.initial]
    while frontier:
        vector = frontier.pop()
        for t in range(len(cn.tids)):
            succ, missing = cn.fire(vector, t)
            if not missing and succ not in seen:
                if len(seen) >= STATE_LIMIT:
                    raise PetriNetError(f"state space exceeds {STATE_LIMIT} markings")
                seen.add(succ)
                frontier.append(succ)
    return {cn.marking(vector).key() for vector in seen}


# --- independent replay oracle -------------------------------------------------

def oracle_replay(net: PetriNet, activities: list[str], ignore_final: bool = False,
                  max_silent_run: int = 8) -> tuple[int, int, int, int]:
    """Exhaustive enumeration of silent interleavings, memoized by state.

    Walks every schedule that fires the mapped events in order with up to
    ``max_silent_run`` silent firings per gap (deficits allowed everywhere),
    scores each completion by (missing, remaining, silent count, firing
    sequence), and returns (p, c, m, r) of the minimum. Implemented as plain
    recursion over markings, independent of the replayer's search.
    """
    pre, post = pre_post(net)
    silents = sorted(t.id for t in net.transitions if t.silent)

    def labeled(activity: str) -> list[Transition]:
        return sorted((t for t in net.transitions if t.label == activity), key=lambda t: t.id)

    mapped = [a for a in activities if labeled(a)]
    n_unmapped = len(activities) - len(mapped)
    final = net.final_marking

    def resolve(activity: str, marking: dict[str, int]) -> str:
        candidates = labeled(activity)
        if len(candidates) == 1:
            return candidates[0].id
        for trans in candidates:
            if all(marking.get(p, 0) >= 1 for p in pre[trans.id]):
                return trans.id
        return candidates[0].id

    def force(marking: dict[str, int], tid: str) -> tuple[dict[str, int], int]:
        nxt = dict(marking)
        deficit = 0
        for place in pre[tid]:
            if nxt.get(place, 0) >= 1:
                nxt[place] -= 1
                if nxt[place] == 0:
                    del nxt[place]
            else:
                deficit += 1
        for place in post[tid]:
            nxt[place] = nxt.get(place, 0) + 1
        return nxt, deficit

    memo: dict[tuple, tuple[tuple[int, int, int], tuple[str, ...]]] = {}

    def best(i: int, mk_key: tuple, gap: int):
        state = (i, mk_key, gap)
        if state in memo:
            return memo[state]
        marking = dict(mk_key)
        options = []
        if i == len(mapped):
            if ignore_final:
                options.append(((0, 0, 0), ()))
            else:
                deficit = sum(max(0, need - marking.get(p, 0)) for p, need in final.items())
                covered = sum(min(need, marking.get(p, 0)) for p, need in final.items())
                remaining = sum(marking.values()) - covered
                options.append(((deficit, remaining, 0), ()))
        else:
            tid = resolve(mapped[i], marking)
            nxt, deficit = force(marking, tid)
            cost, path = best(i + 1, tuple(sorted(nxt.items())), 0)
            options.append(((cost[0] + deficit, cost[1], cost[2]), (tid,) + path))
        if gap < max_silent_run:
            for sid in silents:
                nxt, deficit = force(marking, sid)
                cost, path = best(i, tuple(sorted(nxt.items())), gap + 1)
                options.append(((cost[0] + deficit, cost[1], cost[2] + 1), (sid,) + path))
        result = min(options)
        memo[state] = result
        return result

    start_key = tuple(sorted(net.initial_marking.items()))
    (m, r, _), path = best(0, start_key, 0)
    produced = net.initial_marking.total() + sum(len(post[t]) for t in path) + n_unmapped
    consumed = sum(len(pre[t]) for t in path) + n_unmapped
    if not ignore_final:
        consumed += final.total()
    return produced, consumed, m + n_unmapped, r + n_unmapped


def reference_search(net: PetriNet, activities: list[str], ignore_final: bool = False,
                     limit: int = 10_000, max_silent_run: int = 8
                     ) -> tuple[tuple[str, ...], int] | None:
    """One trace's own least-cost-first search: (winning firing sequence, expansions).

    Plain Dijkstra over states (mapped events fired, marking, silent gap), keyed
    (missing, remaining, silent firings, firing sequence by id), pushing every
    successor and skipping a settled state when it pops; a layer-n state pushes its
    completion, and the first completion to pop wins. The expansions are the states
    settled until then: the least ``max_expansions`` under which ``replay_trace``
    replays the trace. None if more than ``limit`` states settle first. Written on
    dict markings and arc lists, apart from the replayer's layered search.
    """
    pre, post = pre_post(net)
    silents = sorted(t.id for t in net.transitions if t.silent)
    candidates = [sorted(t.id for t in net.transitions if t.label == a) for a in activities]
    mapped = [c for c in candidates if c]
    final = net.final_marking

    def force(marking: dict[str, int], tid: str) -> tuple[tuple, int]:
        nxt, deficit = dict(marking), 0
        for place in pre[tid]:
            if nxt.get(place, 0):
                nxt[place] -= 1
            else:
                deficit += 1
        for place in post[tid]:
            nxt[place] = nxt.get(place, 0) + 1
        return tuple(sorted((p, n) for p, n in nxt.items() if n)), deficit

    # entries (m, r, silents, path, kind, i, marking, gap); kind 0 marks a completion,
    # which pops before a state of equal cost and path
    heap = [(0, 0, 0, (), 1, 0, tuple(sorted(net.initial_marking.items())), 0)]
    settled: set[tuple] = set()
    while heap:
        m, r, s, path, kind, i, key, gap = heapq.heappop(heap)
        if not kind:
            return path, len(settled)
        if (i, key, gap) in settled:
            continue
        if len(settled) == limit:
            return None
        settled.add((i, key, gap))
        marking = dict(key)
        if i == len(mapped):
            deficit = remaining = 0
            if not ignore_final:
                deficit = sum(max(0, need - marking.get(p, 0)) for p, need in final.items())
                remaining = sum(marking.values()) - sum(
                    min(need, marking.get(p, 0)) for p, need in final.items())
            heapq.heappush(heap, (m + deficit, remaining, s, path, 0, 0, (), 0))
        else:
            tid = next((t for t in mapped[i] if all(marking.get(p) for p in pre[t])),
                       mapped[i][0])
            nxt, deficit = force(marking, tid)
            heapq.heappush(heap, (m + deficit, 0, s, path + (tid,), 1, i + 1, nxt, 0))
        if gap < max_silent_run:
            for sid in silents:
                nxt, deficit = force(marking, sid)
                heapq.heappush(heap, (m + deficit, 0, s + 1, path + (sid,), 1, i, nxt, gap + 1))
    raise AssertionError("unreachable: the no-silents schedule always completes")


# --- step-by-step simulator oracle -------------------------------------------------

def pick_weighted(stream: Stream, weights: list[float]) -> int:
    """Categorical draw; weights must be non-negative with a positive sum. The pick by linear
    scan that ``simulate``'s bisection over a group's running sums must equal."""
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    u = stream.random() * total
    acc = 0.0
    for index, weight in enumerate(weights):
        acc += weight
        if u < acc:
            return index
    return len(weights) - 1


def lognormal(stream: Stream, mean: float, sigma: float) -> float:
    """Lognormal draw parameterized by its mean and log-space sigma."""
    if mean <= 0:
        raise ValueError("lognormal mean must be positive")
    mu = math.log(mean) - 0.5 * sigma * sigma
    return math.exp(mu + sigma * stream.normal())


def _oracle_groups(net: PetriNet, marking: Marking,
                   probs: dict[str, float]) -> list[tuple[tuple[str, ...], list[float]]]:
    pre, _ = pre_post(net)
    groups: dict[tuple[str, ...], list[str]] = {}
    for tid in sorted(enabled(net, marking)):
        groups.setdefault(tuple(sorted(pre[tid])), []).append(tid)
    out = []
    for key in sorted(groups):
        group = groups[key]
        configured = {t: probs[t] for t in group if t in probs}
        mass = sum(configured.values())
        free = [t for t in group if t not in configured]
        rest = (1.0 - mass) / len(free) if free and mass <= 1.0 + 1e-9 else 0.0
        out.append((tuple(group), [configured.get(t, rest) for t in group]))
    return out


def _oracle_play_case(net: PetriNet, config: SimConfig, wave: WaveSpec, path_rng: Stream,
                      delay_rng: Stream, admission: datetime, case_id: str) -> list[Event]:
    labels = {t.id: t.label for t in net.transitions}
    marking = net.initial_marking
    clock = admission
    prev_ts: datetime | None = None
    events: list[Event] = []
    for _ in range(10_000):
        if marking == net.final_marking:
            return events
        groups = _oracle_groups(net, marking, config.branch_probabilities)
        if not groups:
            raise SimulationDeadlockError(f"simulation deadlocked at marking {dict(marking.key())!r}")
        group, weights = groups[path_rng.randint(len(groups))] if len(groups) > 1 else groups[0]
        if len(group) > 1 and sum(weights) <= 0:
            raise ConfigError(f"the branch probabilities of {', '.join(group)} sum to 0")
        tid = group[pick_weighted(path_rng, weights)] if len(group) > 1 else group[0]
        marking = fire(net, marking, tid)
        label = labels[tid]
        if label is not None:
            spec = config.delays.get(label) or config.delays.get("default")
            if spec is None:
                raise ConfigError(f"no delay configured for activity {label!r} and no default")
            try:
                if spec.kind == "fixed":
                    hours = spec.params[0] * wave.delay_scale
                elif spec.kind == "uniform":
                    hours = delay_rng.uniform(spec.params[0], spec.params[1]) * wave.delay_scale
                else:
                    hours = lognormal(delay_rng, spec.params[0], spec.params[1]) * wave.delay_scale
                clock += timedelta(hours=hours)
                ts = clock.replace(microsecond=0)
                if prev_ts is not None and ts <= prev_ts:
                    ts = prev_ts + timedelta(seconds=1)
            except OverflowError:
                raise ConfigError(f"the delay of {label!r} carries {case_id} "
                                  "past the year 9999") from None
            prev_ts = ts
            events.append(Event(label, ts))
    raise SimulationDeadlockError("simulated case did not reach the final marking "
                                  "within 10000 steps")


def oracle_simulate(config: SimConfig, net: PetriNet) -> EventLog:
    """The simulator as it was before its step table, on the id-level token game: conflict
    groups are rebuilt at each step from presets read off the arcs, and each delay is
    drawn through ``Stream``'s own ``uniform`` and the ``lognormal`` above. Kept as the
    reference ``simulate`` must equal."""
    unknown = sorted(set(config.branch_probabilities) - {t.id for t in net.transitions})
    if unknown:
        raise ConfigError(f"probability for {unknown[0]!r} names no transition of the net")
    plan = _case_plan(config)
    width = len(str(len(plan)))
    traces: list[Trace] = []
    for case_index, (wave_index, ongoing) in enumerate(plan):
        path_rng = Stream(config.seed, case_index, 0)
        delay_rng = Stream(config.seed, case_index, 1)
        wave = config.waves[wave_index]
        admission = _draw_admission(wave, Stream(config.seed, case_index, 2))
        case_id = f"case_{case_index + 1:0{width}d}"
        events = _oracle_play_case(net, config, wave, path_rng, delay_rng, admission, case_id)
        ards = path_rng.bernoulli(config.ards_probability)
        complete = True
        if ongoing and len(events) >= 2:
            events = events[:1 + path_rng.randint(len(events) - 1)]
            complete = False
        traces.append(Trace(case_id, tuple(events), {"ards": ards, "complete": complete}))
    return EventLog(tuple(traces), name=config.name)


def paper_logs() -> tuple[EventLog, EventLog]:
    """The clean and the noise-injected log of the packaged desk config (1x)."""
    text = (resources.files("careflow") / "data" / "covas_desk.config").read_text(encoding="utf-8")
    config, noise = parse_config(text)
    clean = simulate(config, covas_model())
    return clean, inject_noise(clean, noise)


# --- tree-based XES reader oracle ---------------------------------------------

def _collect(elem: ET.Element) -> tuple[dict[str, AttrValue], list[str], list[ET.Element]]:
    """Split children into typed attributes, opaque snippets, and containers."""
    attrs: dict[str, AttrValue] = {}
    raw: list[str] = []
    containers: list[ET.Element] = []
    for child in elem:
        tag = _local(child.tag)
        if tag in ("trace", "event"):
            containers.append(child)
            continue
        key = child.get("key")
        value = child.get("value")
        if tag in _PARSERS and key is not None and value is not None and len(child) == 0:
            try:
                attrs[key] = _PARSERS[tag](value)
            except ValueError:
                raise XesFormatError(f"bad {tag} literal {value!r} for key {key!r}")
        else:
            raw.append(ET.tostring(child, encoding="unicode").strip())
    return attrs, raw, containers


def oracle_parse_xes(text: str) -> EventLog:
    """The tree-based XES reader that the streaming ``parse_xes`` replaced.

    Builds a complete ElementTree first, then reads events from it; kept
    unchanged as the reference the streaming reader is compared against.

    Traces without a ``concept:name`` get a synthetic case id and a warning is
    emitted; events must carry both an activity and a timestamp.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position
        raise XesFormatError(f"malformed XML: {exc.msg.split(':')[0]}", line=line, column=column)
    if _local(root.tag) != "log":
        raise XesFormatError(f"expected <log> root element, found <{_local(root.tag)}>")

    log_attrs, log_raw, traces_xml = _collect(root)
    log_name = log_attrs.pop("concept:name", "")
    if not isinstance(log_name, str):
        log_name = str(log_name)

    used_ids: set[str] = set()
    traces: list[Trace] = []
    for position, trace_xml in enumerate(traces_xml, start=1):
        if _local(trace_xml.tag) != "trace":
            raise XesFormatError("<event> element outside of a <trace>")
        trace_attrs, trace_raw, events_xml = _collect(trace_xml)
        case_id = trace_attrs.pop("concept:name", None)
        if case_id in (None, ""):
            case_id = f"case_{position}"
            while case_id in used_ids:
                case_id += "_x"
            warnings.warn(f"trace #{position} lacks concept:name; assigned {case_id!r}", XesWarning)
        case_id = str(case_id)
        if case_id in used_ids:
            raise XesFormatError(f"trace #{position} repeats case id {case_id!r}")
        used_ids.add(case_id)

        events: list[Event] = []
        for event_xml in events_xml:
            if _local(event_xml.tag) != "event":
                raise XesFormatError("<trace> nested inside a <trace>")
            event_attrs, event_raw, nested = _collect(event_xml)
            if nested:
                raise XesFormatError("<trace>/<event> nested inside an <event>")
            activity = event_attrs.pop("concept:name", None)
            if activity in (None, ""):
                raise XesFormatError(f"event without concept:name in case {case_id!r}")
            timestamp = event_attrs.pop("time:timestamp", None)
            if not isinstance(timestamp, datetime):
                raise XesFormatError(f"event without time:timestamp in case {case_id!r}")
            events.append(Event(str(activity), timestamp, event_attrs, tuple(event_raw)))
        traces.append(Trace(case_id, tuple(events), trace_attrs, tuple(trace_raw)))

    return EventLog(tuple(traces), name=log_name, attributes=log_attrs,
                    raw_extensions=tuple(log_raw))


# --- dotted chart SVG oracle --------------------------------------------------

def oracle_dotted_chart_svg(data: DottedChartData) -> str:
    """``dotted_chart_svg`` as it was before it joined its circles in chunks: one string
    per row, joined once. Kept as the reference the chunked emitter must equal."""
    width, height, pad = 1000, 600, 40
    rows = data.rows
    if rows:
        t_min = min(r.timestamp for r in rows)
        t_max = max(r.timestamp for r in rows)
        span = (t_max - t_min).total_seconds() or 1.0
        max_index = max(r.case_index for r in rows)
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
             'fill="none" stroke="#333333"/>']
    if rows:
        assigned: dict[str, str] = {}
        for row in rows:
            x = pad + (row.timestamp - t_min).total_seconds() / span * (width - 2 * pad)
            y = height - pad - (row.case_index / max(max_index, 1)) * (height - 2 * pad)
            color = _color_for(row.color_key, assigned)
            lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="{color}"/>')
        lines.append(f'<text x="{pad}" y="{height - pad + 16}" font-size="11" fill="#333333">'
                     f'{format_timestamp(t_min)}</text>')
        lines.append(f'<text x="{width - pad}" y="{height - pad + 16}" font-size="11" '
                     f'fill="#333333" text-anchor="end">{format_timestamp(t_max)}</text>')
    lines.append("</svg>")
    lines.append("")
    return "\n".join(lines)


def write_pnml(net: PetriNet) -> str:
    """Serialize the net as PNML with a <finalmarkings> section.

    A name, id or label holding a character XML forbids (``_FORBIDDEN``) raises
    PnmlFormatError: written, the document would not read back.
    """
    texts = [("the net", "its name", net.name),
             *((f"place {place!r}", "its id", place) for place in net.places),
             *((f"transition {trans.id!r}", "its id", trans.id) for trans in net.transitions),
             *((f"transition {trans.id!r}", "its label", trans.label or "")
               for trans in net.transitions)]
    for owner, where, text in texts:
        if (found := _FORBIDDEN.search(text)) is not None:
            raise PnmlFormatError(f"{owner} holds {found.group()!r} in {where}, "
                                  "a character XML cannot carry")
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<pnml>',
             f'  <net id={_quote(net.name or "net1")} type="http://www.pnml.org/version-2009/grammar/ptnet">',
             '    <page id="page1">']
    for place in net.places:
        lines.append(f'      <place id={_quote(place)}>')
        tokens = net.initial_marking.get(place)
        if tokens:
            lines.append(f'        <initialMarking><text>{tokens}</text></initialMarking>')
        lines.append('      </place>')
    for trans in net.transitions:
        lines.append(f'      <transition id={_quote(trans.id)}>')
        if trans.label is not None:
            lines.append(f'        <name><text>{_escape(trans.label)}</text></name>')
        lines.append('      </transition>')
    for index, (source, target) in enumerate(net.arcs, start=1):
        lines.append(f'      <arc id="a{index}" source={_quote(source)} target={_quote(target)}/>')
    lines.append('    </page>')
    lines.append('    <finalmarkings>')
    lines.append('      <marking>')
    for place, count in sorted(net.final_marking.items()):
        lines.append(f'        <place idref={_quote(place)}><text>{count}</text></place>')
    lines.append('      </marking>')
    lines.append('    </finalmarkings>')
    lines.append('  </net>')
    lines.append('</pnml>')
    lines.append('')
    return "\n".join(lines)


def net_to_dot(net: PetriNet) -> str:
    """Deterministic DOT rendering: circles for places, boxes for transitions,
    filled boxes for silent transitions."""
    lines = ["digraph petri_net {", "  rankdir=LR;"]
    for place in sorted(net.places):
        tokens = net.initial_marking.get(place)
        shade = net.final_marking.get(place)
        label = place + (f" ({tokens})" if tokens else "")
        style = ' style=filled fillcolor="gray85"' if shade else ""
        lines.append(f'  {_dot(place)} [shape=circle label={_dot(label)}{style}];')
    for trans in sorted(net.transitions, key=lambda t: t.id):
        if trans.silent:
            lines.append(f'  {_dot(trans.id)} [shape=box style=filled fillcolor=black label=""];')
        else:
            lines.append(f'  {_dot(trans.id)} [shape=box label={_dot(trans.label)}];')
    for source, target in sorted(net.arcs):
        lines.append(f'  {_dot(source)} -> {_dot(target)};')
    lines.append("}")
    lines.append("")
    return "\n".join(lines)
