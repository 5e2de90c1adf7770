"""Shared builders and independent oracles used across the test suite."""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone
from importlib import resources

from careflow.covas import covas_model
from careflow.eventlog import Event, EventLog, Trace
from careflow.petri import Marking, PetriNet, Transition
from careflow.simulate import inject_noise, parse_config, simulate

T0 = datetime(2020, 2, 1, tzinfo=timezone.utc)


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
    labels = sorted(net.labels())
    out = []
    for _ in range(rnd.randint(0, max_events)):
        if labels and rnd.random() < 0.85:
            out.append(rnd.choice(labels))
        else:
            out.append(f"Z{rnd.randint(0, 3)}")  # unmapped on purpose
    return out


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
    silents = sorted(t.id for t in net.silent_transitions())
    mapped = [a for a in activities if net.labeled(a)]
    n_unmapped = len(activities) - len(mapped)
    final = net.final_marking

    def resolve(activity: str, marking: dict[str, int]) -> str:
        candidates = net.labeled(activity)
        if len(candidates) == 1:
            return candidates[0].id
        for trans in candidates:
            if all(marking.get(p, 0) >= 1 for p in net.inputs(trans.id)):
                return trans.id
        return candidates[0].id

    def force(marking: dict[str, int], tid: str) -> tuple[dict[str, int], int]:
        nxt = dict(marking)
        deficit = 0
        for place in net.inputs(tid):
            if nxt.get(place, 0) >= 1:
                nxt[place] -= 1
                if nxt[place] == 0:
                    del nxt[place]
            else:
                deficit += 1
        for place in net.outputs(tid):
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

    start_key = tuple(sorted(net.initial_marking.as_dict().items()))
    (m, r, _), path = best(0, start_key, 0)
    produced = net.initial_marking.total() + sum(len(net.outputs(t)) for t in path) + n_unmapped
    consumed = sum(len(net.inputs(t)) for t in path) + n_unmapped
    if not ignore_final:
        consumed += final.total()
    return produced, consumed, m + n_unmapped, r + n_unmapped


def paper_logs() -> tuple[EventLog, EventLog]:
    """The clean and the noise-injected log of the packaged desk config (1x)."""
    text = (resources.files("careflow") / "data" / "covas_desk.config").read_text(encoding="utf-8")
    config, noise = parse_config(text)
    clean = simulate(config, covas_model())
    return clean, inject_noise(clean, noise)
