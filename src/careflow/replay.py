"""Token-based replay conformance checking.

A trace is replayed on a net by firing the transition of each event in order.
Silent transitions may be interleaved anywhere; when a transition is not
enabled, the missing input tokens are created on the fly and counted. Among
all ways to schedule silent transitions the replayer picks the one that
minimizes, in order:

  1. missing tokens (m),
  2. remaining tokens (r),
  3. number of silent firings,
  4. the firing sequence itself, compared lexicographically by transition id.

That total order makes the result deterministic and matches an exhaustive
enumeration of silent interleavings on small nets. Silent runs between two
consecutive events (and after the last one) are capped at ``max_silent_run``
firings, which keeps the search finite on nets with token-generating loops;
the cap is far above anything the care-pathway model needs.

Counters follow the usual token-replay bookkeeping: producing the initial
marking counts into p, consuming the final marking counts into c, forced
tokens count into m, leftovers into r, and

    fitness = 1/2 (1 - m/c) + 1/2 (1 - r/p).

Events whose activity has no transition in the net cost one missing and one
remaining token each (and one produced and consumed, keeping m <= c, r <= p).

The search runs on the net's ``CompiledNet``, whose transition indices follow
sorted ids: an index path sorts exactly like its id path, so tie 4 holds (any
other numbering would break it). ``max_expansions`` bounds each search and
raises ReplayBudgetError. ``replay_log`` reuses work within one call and frees
it on return: each variant, keyed by the activity sequence (unmapped events
included) and whether the final marking is ignored, is searched once and its
repeats copy the result under their own case id; and one successor memo keyed
by (marking, transition) serves every trace, as firing depends on the marking
alone.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

from .errors import ReplayBudgetError, ReplayConfigError
from .eventlog import EventLog, Trace
from .petri import PetriNet

_DONE = -1


@dataclass(frozen=True)
class FiringStep:
    """One replay step: a fired transition or an unmapped event."""

    index: int
    transition_id: str | None  # None for events with no matching transition
    activity: str | None       # None for silent firings
    forced_missing: frozenset[str] = frozenset()


@dataclass(frozen=True)
class TraceReplayResult:
    case_id: str
    produced: int
    consumed: int
    missing: int
    remaining: int
    fitness: float
    firing_log: tuple[FiringStep, ...]
    final_missing: frozenset[str] = frozenset()
    final_marking_ignored: bool = False


@dataclass(frozen=True)
class LogReplayResult:
    per_trace: tuple[TraceReplayResult, ...]
    produced: int
    consumed: int
    missing: int
    remaining: int
    log_fitness: float


def _fitness(produced: int, consumed: int, missing: int, remaining: int) -> float:
    miss_term = 1.0 - missing / consumed if consumed else 1.0
    rem_term = 1.0 - remaining / produced if produced else 1.0
    return 0.5 * miss_term + 0.5 * rem_term


def _final_gap(final: tuple[int, ...], vector: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    """(deficit, remaining, short place indices) for consuming the final marking."""
    short = tuple(p for p, need in enumerate(final) if vector[p] < need)
    deficit = sum(final[p] - vector[p] for p in short)
    return deficit, sum(vector) - sum(final) + deficit, short


class _Replayer:
    """Replays traces on one net with one successor memo: ``moves`` maps
    (marking, transition) to (successor, missing tokens), and ``silent_moves``
    holds each marking's silent moves."""

    def __init__(self, net: PetriNet, label_map: dict[str, str] | None,
                 max_silent_run: int, max_expansions: int):
        self.net, self.cn, self.label_map = net, net.compiled, label_map
        self.max_silent_run, self.max_expansions = max_silent_run, max_expansions
        self.silents = tuple(t for t, label in enumerate(self.cn.labels) if label is None)
        self.moves: dict[tuple[tuple[int, ...], int], tuple[tuple[int, ...], int]] = {}
        self.silent_moves: dict[tuple[int, ...], tuple] = {}

    def _candidates(self, activity: str) -> tuple[int, ...]:
        """Transition indices an event may fire, ascending; empty when unmapped."""
        net, index = self.net, self.cn.index
        if self.label_map is None:
            return tuple(index[t.id] for t in net.labeled(activity))
        tid = self.label_map.get(activity)
        if tid is None:
            return ()
        if not net.has_transition(tid):
            raise ReplayConfigError(f"label_map points to unknown transition {tid!r}")
        if net.transition(tid).silent:
            raise ReplayConfigError(f"label_map maps {activity!r} to silent transition {tid!r}")
        return (index[tid],)

    def _move(self, vector: tuple[int, ...], t: int) -> tuple[tuple[int, ...], int]:
        hit = self.moves.get((vector, t))
        if hit is None:
            succ, missing = self.cn.fire(vector, t)
            hit = self.moves[vector, t] = (succ, len(missing))
        return hit

    def _search(self, case_id: str, events: list[tuple[int, ...]],
                ignore_final_marking: bool) -> tuple[int, ...]:
        """The winning schedule for the mapped events' candidate transitions.

        Heap entries (m, r, silents, path, event, marking, gap) sort in cost order.
        Of duplicate-label candidates the first enabled one fires, else the first.
        """
        pre, final = self.cn.pre, self.cn.final
        move, silent_moves = self._move, self.silent_moves
        max_silent_run, budget = self.max_silent_run, self.max_expansions
        n = len(events)
        push, pop = heapq.heappush, heapq.heappop
        heap = [(0, 0, 0, (), 0, self.cn.initial, 0)]
        settled: set[tuple[int, tuple[int, ...], int]] = set()
        expansions = 0
        while heap:
            m, r, s, path, i, vector, gap = pop(heap)
            state = (i, vector, gap)
            if state in settled:
                continue
            settled.add(state)
            if i == _DONE:
                return path
            expansions += 1
            if expansions > budget:
                raise ReplayBudgetError(case_id, budget)
            if i == n:
                deficit = remaining = 0
                if not ignore_final_marking:
                    deficit, remaining, _ = _final_gap(final, vector)
                push(heap, (m + deficit, r + remaining, s, path, _DONE, (), 0))
            else:
                candidates = events[i]
                t = candidates[0]
                if len(candidates) > 1:
                    t = next((c for c in candidates if all(vector[p] for p in pre[c])), t)
                succ, missing = move(vector, t)
                if (i + 1, succ, 0) not in settled:
                    push(heap, (m + missing, r, s, path + (t,), i + 1, succ, 0))
            if gap < max_silent_run:
                silent = silent_moves.get(vector)
                if silent is None:
                    silent = silent_moves[vector] = tuple((t,) + move(vector, t) for t in self.silents)
                for t, succ, missing in silent:
                    if (i, succ, gap + 1) not in settled:
                        push(heap, (m + missing, r, s + 1, path + (t,), i, succ, gap + 1))
        raise AssertionError("unreachable: the no-silents schedule always completes")

    def replay(self, trace: Trace, ignore_final_marking: bool) -> TraceReplayResult:
        net, cn, events = self.net, self.cn, trace.events
        if not net.initial_marking:
            raise ReplayConfigError("replay requires a non-empty initial marking")
        if not ignore_final_marking and not net.final_marking:
            raise ReplayConfigError("replay requires a non-empty final marking")
        candidates = [self._candidates(e.activity) for e in events]
        winner = self._search(trace.case_id, [c for c in candidates if c], ignore_final_marking)

        # Fire the winning schedule once more for the firing log; an unmapped
        # event is logged just before the next labeled firing after it.
        steps: list[FiringStep] = []
        vector, position, forced_total = cn.initial, 0, 0
        for t in winner:
            activity = None
            if cn.labels[t] is not None:
                while not candidates[position]:
                    steps.append(FiringStep(len(steps), None, events[position].activity))
                    position += 1
                activity = events[position].activity
                position += 1
            vector, forced = cn.fire(vector, t)
            forced_total += len(forced)
            steps.append(FiringStep(len(steps), cn.tids[t], activity,
                                    frozenset(cn.place_ids[p] for p in forced)))
        steps.extend(FiringStep(len(steps) + k, None, e.activity)
                     for k, e in enumerate(events[position:]))

        unmapped = sum(1 for c in candidates if not c)
        produced = net.initial_marking.total() + unmapped + sum(len(cn.post[t]) for t in winner)
        consumed = unmapped + sum(len(cn.pre[t]) for t in winner)
        missing, remaining = forced_total + unmapped, unmapped
        final_missing: frozenset[str] = frozenset()
        if not ignore_final_marking:
            deficit, left, short = _final_gap(cn.final, vector)
            consumed += net.final_marking.total()
            missing += deficit
            remaining += left
            final_missing = frozenset(cn.place_ids[p] for p in short)
        return TraceReplayResult(trace.case_id, produced, consumed, missing, remaining,
                                 _fitness(produced, consumed, missing, remaining),
                                 tuple(steps), final_missing, ignore_final_marking)


def replay_trace(net: PetriNet, trace: Trace, label_map: dict[str, str] | None = None,
                 ignore_final_marking: bool = False, max_silent_run: int = 8,
                 max_expansions: int = 500_000) -> TraceReplayResult:
    """Replay one trace and return its token counters and firing log.

    ``ignore_final_marking`` skips final-marking consumption and remaining
    token counting; use it for ongoing (censored) cases whose tail is simply
    not recorded yet. A search that expands more than ``max_expansions``
    states raises ReplayBudgetError.
    """
    replayer = _Replayer(net, label_map, max_silent_run, max_expansions)
    return replayer.replay(trace, ignore_final_marking)


def replay_log(net: PetriNet, log: EventLog, label_map: dict[str, str] | None = None,
               ignore_final_for_ongoing: bool = True, max_silent_run: int = 8,
               max_expansions: int = 500_000) -> LogReplayResult:
    """Replay every trace and aggregate counters into a log-level fitness.

    Ongoing cases (complete=false) are by default replayed without the
    final-marking penalty; pass ignore_final_for_ongoing=False to treat them
    like complete cases. Each variant is searched once; see the module notes.
    """
    replayer = _Replayer(net, label_map, max_silent_run, max_expansions)
    by_variant: dict[tuple[tuple[str, ...], bool], TraceReplayResult] = {}
    results = []
    for trace in log:
        ignore = ignore_final_for_ongoing and not trace.complete
        key = (trace.activities(), ignore)
        first = by_variant.get(key)
        if first is None:
            first = by_variant[key] = replayer.replay(trace, ignore)
            results.append(first)
        else:
            results.append(replace(first, case_id=trace.case_id))
    totals = [sum(getattr(r, counter) for r in results)
              for counter in ("produced", "consumed", "missing", "remaining")]
    return LogReplayResult(tuple(results), *totals, _fitness(*totals))


def replay_csv(result: LogReplayResult) -> str:
    """Per-trace diagnostics as CSV: case_id,p,c,m,r,fitness."""
    lines = ["case_id,produced,consumed,missing,remaining,fitness"]
    for r in result.per_trace:
        lines.append(f"{r.case_id},{r.produced},{r.consumed},{r.missing},{r.remaining},{r.fitness:.6f}")
    lines.append("")
    return "\n".join(lines)


def deviation_report(result: LogReplayResult) -> str:
    """Human-readable list of where tokens had to be created per deviating case."""
    lines = [f"log fitness: {result.log_fitness:.4f}",
             f"aggregate counters: p={result.produced} c={result.consumed} "
             f"m={result.missing} r={result.remaining}", ""]
    deviating = [r for r in result.per_trace if r.missing or r.remaining]
    if not deviating:
        lines.append("no deviations: every trace replays cleanly.")
    for r in deviating:
        lines.append(f"case {r.case_id}: fitness {r.fitness:.4f} "
                     f"(p={r.produced} c={r.consumed} m={r.missing} r={r.remaining})")
        for step in r.firing_log:
            if step.transition_id is None:
                lines.append(f"  step {step.index}: activity {step.activity!r} not in model")
            elif step.forced_missing:
                where = ", ".join(sorted(step.forced_missing))
                label = step.activity or f"silent {step.transition_id}"
                lines.append(f"  step {step.index}: {label} forced; missing tokens in {where}")
        if r.final_missing:
            lines.append(f"  final marking not reached; missing tokens in "
                         f"{', '.join(sorted(r.final_missing))}")
    lines.append("")
    return "\n".join(lines)
