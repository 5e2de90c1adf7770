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
consecutive events (and after the last one) are capped at ``MAX_SILENT_RUN``
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
other numbering would break it). It is a least-cost-first search over states
(i, marking, silent gap), keyed (m, silents, path), where i counts the mapped
events fired; a completion from layer n adds the final marking's deficit and
leftovers. Each variant, keyed by the activity sequence (unmapped events
included) and whether the final marking is ignored, is replayed once, and its
repeats copy the result under their own case id.

Variants share the search over their common prefixes. A layer-i state and its
least key depend only on the candidate transitions of the first i mapped
events, so the variants' candidate sequences form a trie whose node at depth i
holds layer i for every variant below it. A node settles its states once, in
key order and lazily: only as far as the least completion of some variant below
it requires. A variant's winner and expansion count (the states on its path
whose key is at most its winning completion's) are those a search of its own
would find, and ``max_expansions`` bounds that count per trace as before,
raising ReplayBudgetError for the first such trace in log order. Variants run in
sorted order, so those below one node run back to back, and a node is freed
once its subtree is done; once a search is over budget, the variants first met
after it in the log are skipped. ``replay_trace`` runs the same search on a
one-variant trie.

One successor memo serves every search, as firing depends on the marking
alone; it is dropped, with the trie, before the firing logs are built. The memo
numbers each marking once, and the search works on those numbers: its states,
memo keys and heap entries are small ints, hashed and compared without reading
a marking. A marking whose counts fit in a byte is kept, and fired, as bytes.
The search pushes silent successors one at a time and spells paths as bytes,
which keeps its heaps small.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections.abc import Container, Mapping, Sequence
from dataclasses import dataclass, field, replace
from operator import itemgetter

from .csvio import _quoted
from .errors import ReplayBudgetError, ReplayConfigError
from .eventlog import EventLog, Trace
from .petri import CompiledNet, PetriNet

MAX_SILENT_RUN = 8
_GAPS = MAX_SILENT_RUN + 1  # gaps 0..MAX_SILENT_RUN
# every empty place set of a result: CPython makes a new 216 B frozenset() per call
_NONE: frozenset[str] = frozenset()
_ABOVE = (math.inf,)  # above every key and entry
_BELOW = (-1,)  # below every key and entry
_MISSING = itemgetter(2)  # a silent move's missing tokens


@dataclass(frozen=True, slots=True)
class FiringStep:
    """One replay step: a fired transition or an unmapped event."""

    index: int
    transition_id: str | None  # None for events with no matching transition
    activity: str | None       # None for silent firings
    forced_missing: frozenset[str] = _NONE


@dataclass(frozen=True, slots=True)
class TraceReplayResult:
    case_id: str
    produced: int
    consumed: int
    missing: int
    remaining: int
    fitness: float
    firing_log: tuple[FiringStep, ...]
    final_missing: frozenset[str] = _NONE
    final_marking_ignored: bool = False


@dataclass(frozen=True)
class LogReplayResult:
    per_trace: tuple[TraceReplayResult, ...]
    produced: int
    consumed: int
    missing: int
    remaining: int
    log_fitness: float
    variants_searched: int = field(default=0, compare=False)  # searches over the trie
    states_settled: int = field(default=0, compare=False)  # states settled over all of them


def _fitness(produced: int, consumed: int, missing: int, remaining: int) -> float:
    miss_term = 1.0 - missing / consumed if consumed else 1.0
    rem_term = 1.0 - remaining / produced if produced else 1.0
    return 0.5 * miss_term + 0.5 * rem_term


def _places(cn: CompiledNet, indices: tuple[int, ...]) -> frozenset[str]:
    return frozenset([cn.place_ids[p] for p in indices]) if indices else _NONE


def _final_gap(final: tuple[int, ...], vector: bytes | tuple[int, ...]
               ) -> tuple[int, int, tuple[int, ...]]:
    """(deficit, remaining, short place indices) for consuming the final marking."""
    short = tuple(p for p, need in enumerate(final) if vector[p] < need)
    deficit = sum(final[p] - vector[p] for p in short)
    return deficit, sum(vector) - sum(final) + deficit, short


class _Layer:
    """Layer i of every variant whose first i candidate sets are this node's path in the trie.

    ``settled`` holds the layer's settled states as (m, s, path, marking), in key order;
    ``heap`` its frontier, as the search's entries (m, s, path, marking, gap, siblings, k);
    ``done`` its settled states as ``marking * _GAPS + gap``. A path is bytes when
    indices fit in a byte, which sort like tuples; equal paths reach equal markings,
    so a marking's id never decides a tie. The labeled moves from the
    parent layer's first ``pulled`` settled states are on the heap (or settled), and
    every state the parent has yet to hand over has a key of at least ``floor``.
    """

    __slots__ = ("parent", "candidates", "heap", "done", "settled", "pulled", "floor")

    def __init__(self, parent: _Layer | None, candidates: tuple[int, ...], heap: list):
        self.parent, self.candidates, self.heap = parent, candidates, heap
        self.done: set[int] = set()
        self.settled: list[tuple] = []
        self.pulled = 0
        self.floor = _BELOW if parent else _ABOVE


class _Exhausted(Exception):
    """A search settled more states than its budget allows."""


class _Replayer:
    """Searches one net with one successor memo over interned markings: ``vectors``
    holds each marking once, as bytes when every count fits in a byte (a tuple
    otherwise), numbered by ``ids``; ``moves`` maps ``id * len(tids) + t`` of a labeled
    move to (successor id, missing tokens), and ``silent_moves[id]`` holds the
    marking's silent moves sorted by missing tokens."""

    def __init__(self, net: PetriNet, max_expansions: int):
        self.cn = net.compiled
        self.max_expansions = max_expansions
        self.silents = tuple(t for t, label in enumerate(self.cn.labels) if label is None)
        self.labeled: dict[str, tuple[int, ...]] = {}  # activity -> its indices, ascending
        for t, label in enumerate(self.cn.labels):
            if label is not None:
                self.labeled[label] = self.labeled.get(label, ()) + (t,)
        wide = len(self.cn.tids) > 256
        self.step = [(t,) if wide else bytes((t,)) for t in range(len(self.cn.tids))]
        self.root = () if wide else b""
        self.moves: dict[int, tuple[int, int]] = {}
        self.ids: dict[bytes | tuple[int, ...], int] = {}
        self.vectors: list[bytes | tuple[int, ...]] = []
        self.silent_moves: list[tuple | None] = []
        self.initial = self._id(self.cn.initial)
        self.settles = self.stop = 0  # states settled, and where this search must stop

    def _id(self, vector: bytes | tuple[int, ...]) -> int:
        try:
            vector = bytes(vector)  # 33 B and a byte a place, where a tuple takes 56 B and 8
        except ValueError:  # a count above 255
            pass
        marking = self.ids.get(vector)
        if marking is None:
            marking = self.ids[vector] = len(self.vectors)
            self.vectors.append(vector)
            self.silent_moves.append(None)
        return marking

    def _fire(self, marking: int, t: int) -> tuple[int, int]:
        """(successor id, missing tokens) of firing ``t`` at the marking, counted as
        CompiledNet.fire counts them. A byte vector fires on a bytearray copy, with no
        tuple to build and convert back, unless a count would pass 255."""
        vector = self.vectors[marking]
        if type(vector) is bytes:
            counts, missing = bytearray(vector), 0
            for p in self.cn.pre[t]:
                if counts[p]:
                    counts[p] -= 1
                else:
                    missing += 1
            try:
                for p in self.cn.post[t]:
                    counts[p] += 1
            except ValueError:  # a count above 255
                pass
            else:
                return self._id(bytes(counts)), missing
        succ, missing = self.cn.fire(vector, t)
        return self._id(succ), len(missing)

    def _push_silent(self, heap: list, done: set[int], m: int, s: int, path: bytes | tuple,
                     gap: int, silent: tuple, k: int) -> None:
        """Push the first of a marking's silent moves ``silent[k:]`` that reaches a state
        unsettled at ``gap``, as a move from the state (m, s, path) before it.

        Sorted by (missing, index), a marking's silent moves cost no less than the one
        before, so pushing each only when the one before pops keeps the pop order.
        """
        for k in range(k, len(silent)):
            t, succ, missing = silent[k]
            if succ * _GAPS + gap not in done:
                heapq.heappush(heap, (m + missing, s, path + self.step[t], succ, gap, silent, k))
                return

    def _pull(self, layer: _Layer, entry: tuple) -> tuple | None:
        """Push the labeled move from the parent layer's settled ``entry`` onto the layer's
        heap, unless it reaches a settled state; return the heap entry pushed.

        Of duplicate-label candidates the first enabled one fires, else the first.
        """
        layer.pulled += 1
        m, s, path, marking = entry
        candidates, width = layer.candidates, len(self.cn.tids)
        t = candidates[0]
        if len(candidates) > 1:
            vector, pre = self.vectors[marking], self.cn.pre
            t = next((c for c in candidates if all(vector[p] for p in pre[c])), t)
        hit = self.moves.get(marking * width + t)
        if hit is None:
            hit = self.moves[marking * width + t] = self._fire(marking, t)
        succ, missing = hit
        if succ * _GAPS in layer.done:
            return None
        pushed = (m + missing, s, path + self.step[t], succ, 0, None, 0)
        heapq.heappush(layer.heap, pushed)
        return pushed

    def _advance(self, layer: _Layer, bound: tuple) -> bool:
        """Settle the layer's next state if its key is below ``bound``; say whether it did.

        The layer's least heap entry for an unsettled state is its next state once the
        parent layer has handed over every state below it, as a labeled move only adds
        to a key. So the walk goes down the trie only as far as a layer whose parent need
        not settle more, and each state settled on the way is pulled into the layer above.
        """
        silent_moves, pop = self.silent_moves, heapq.heappop
        waiting: list[tuple[_Layer, tuple]] = []  # the layers that asked, with their bounds
        settles, stop = self.settles, self.stop  # kept in locals, written back on the way out
        while True:
            heap, done = layer.heap, layer.done
            top = _ABOVE
            while heap:
                top = heap[0]
                if top[3] * _GAPS + top[4] not in done:
                    break
                pop(heap)
                m, s, path, _, gap, siblings, k = top
                if siblings is not None:
                    self._push_silent(heap, done, m - siblings[k][2], s, path[:-1], gap,
                                      siblings, k + 1)
                top = _ABOVE
            limit = top if top < bound else bound
            if layer.floor < limit:
                parent = layer.parent
                entries = parent.settled
                while layer.pulled < len(entries):
                    entry = entries[layer.pulled]
                    if not entry < limit:
                        layer.floor = entry
                        break
                    pushed = self._pull(layer, entry)
                    if pushed is not None and pushed < top:
                        top = pushed
                        limit = top if top < bound else bound
                else:  # the parent must settle its next state if that is below the limit
                    waiting.append((layer, bound))
                    layer, bound = parent, limit
                    continue
            if not top < bound:
                low = top if top < layer.floor else layer.floor
                if not waiting:
                    self.settles = settles
                    return False
                layer, bound = waiting.pop()
                layer.floor = low  # the parent will hand over no state below it
                continue
            if settles == stop:
                self.settles = settles
                raise _Exhausted
            settles += 1
            pop(heap)  # settle the top, and push its next sibling and first silent move
            m, s, path, marking, gap, siblings, k = top
            if siblings is not None:
                self._push_silent(heap, done, m - siblings[k][2], s, path[:-1], gap,
                                  siblings, k + 1)
            done.add(marking * _GAPS + gap)
            entry = (m, s, path, marking)
            layer.settled.append(entry)
            if gap < MAX_SILENT_RUN:
                silent = silent_moves[marking]
                if silent is None:
                    hits = [(t,) + self._fire(marking, t) for t in self.silents]  # ascending t
                    silent = silent_moves[marking] = tuple(sorted(hits, key=_MISSING))
                self._push_silent(heap, done, m, s + 1, path, gap + 1, silent, 0)
            if not waiting:
                self.settles = settles
                return True
            pushed = self._pull(waiting[-1][0], entry)  # hand it to the layer that asked
            if pushed is not None and pushed < bound:
                bound = pushed

    def _search(self, leaf: _Layer, ignore_final_marking: bool) -> bytes | tuple[int, ...] | None:
        """The winning schedule for the leaf's path, or None if it expands more states than
        ``max_expansions``.

        Leaf states settle in key order; each offers a completion (m + deficit, remaining,
        silents, path), and the least completion wins once no unsettled state is below it.
        Its expansions are the states on the leaf's path whose key is at most the winner's.
        """
        final, vectors = self.cn.final, self.vectors
        self.stop = self.settles + self.max_expansions
        best = bound = _ABOVE
        entries, i = leaf.settled, 0
        try:
            while i < len(entries) or self._advance(leaf, bound):
                entry = entries[i]
                if not entry < bound:
                    break
                m, s, path, marking = entry
                deficit = remaining = 0
                if not ignore_final_marking:
                    deficit, remaining, _ = _final_gap(final, vectors[marking])
                done = (m + deficit, remaining, s, path)
                if done < best:
                    best = done
                    # a state (m, s, path, marking) sorts below this iff (m, 0, s, path) <= done
                    bound = (m + deficit, s, path, math.inf) if not remaining else \
                        (m + deficit + 1, -1)
                i += 1
        except _Exhausted:  # more fresh states than the budget, so more expansions
            return None
        expansions, layer = 0, leaf
        while layer is not None:
            expansions += bisect_right(layer.settled, bound)
            layer = layer.parent
        return best[3] if expansions <= self.max_expansions else None

    def search(self, searches: Mapping[tuple[tuple[tuple[int, ...], ...], bool], int]
               ) -> dict[tuple, bytes | tuple[int, ...] | None]:
        """The winning schedule of each (candidate sequence, ignore_final_marking), or None
        for a search over budget; ``searches`` maps each to its first place in the log.

        The sequences are searched over their trie in sorted order, so the searches
        below one node run back to back and a node is dropped once its subtree is done.
        Once a search is over budget, those placed after it in the log are skipped: the
        caller stops at the first failure in log order.
        """
        winners: dict[tuple, bytes | tuple[int, ...] | None] = {}
        # the trie nodes on the current sequence's path, from the root
        chain = [_Layer(None, (), [(0, 0, self.root, self.initial, 0, None, 0)])]
        previous: tuple = ()
        failed = math.inf  # the first place in the log of a search over budget
        for (sequence, ignore), place in sorted(searches.items()):
            if place > failed:
                continue
            shared = 0
            while shared < min(len(sequence), len(previous)) and \
                    sequence[shared] == previous[shared]:
                shared += 1
            del chain[shared + 1:]
            for candidates in sequence[shared:]:
                chain.append(_Layer(chain[-1], candidates, []))
            previous = sequence
            winner = winners[sequence, ignore] = self._search(chain[-1], ignore)
            if winner is None:
                failed = min(failed, place)
        return winners


def _result(net: PetriNet, labels: Container[str], trace: Trace,
            winner: bytes | tuple[int, ...], ignore_final_marking: bool) -> TraceReplayResult:
    """Fire the winning schedule once more for the counters and the firing log; an
    event whose activity is not in ``labels`` is logged just before the next labeled
    firing after it."""
    cn, events = net.compiled, trace.events
    mapped = [e.activity in labels for e in events]
    steps: list[FiringStep] = []
    vector, position, forced_total = cn.initial, 0, 0
    for t in winner:
        activity = None
        if cn.labels[t] is not None:
            while not mapped[position]:
                steps.append(FiringStep(len(steps), None, events[position].activity))
                position += 1
            activity = events[position].activity
            position += 1
        vector, forced = cn.fire(vector, t)
        forced_total += len(forced)
        steps.append(FiringStep(len(steps), cn.tids[t], activity, _places(cn, forced)))
    steps.extend(FiringStep(len(steps) + k, None, e.activity)
                 for k, e in enumerate(events[position:]))

    unmapped = mapped.count(False)
    produced = net.initial_marking.total() + unmapped + sum(len(cn.post[t]) for t in winner)
    consumed = unmapped + sum(len(cn.pre[t]) for t in winner)
    missing, remaining = forced_total + unmapped, unmapped
    final_missing = _NONE
    if not ignore_final_marking:
        deficit, left, short = _final_gap(cn.final, vector)
        consumed += net.final_marking.total()
        missing += deficit
        remaining += left
        final_missing = _places(cn, short)
    return TraceReplayResult(trace.case_id, produced, consumed, missing, remaining,
                             _fitness(produced, consumed, missing, remaining),
                             tuple(steps), final_missing, ignore_final_marking)


def _replay(net: PetriNet, traces: Sequence[Trace], ignores: Sequence[bool],
            max_expansions: int) -> tuple[list[TraceReplayResult], int, int]:
    """The results of replaying each trace, ignoring the final marking where ``ignores``
    says so, with the number of searches and of states they settled.

    Each variant, keyed by the activity sequence and the flag, is searched once,
    and its repeats copy the result under their own case id.
    """
    if traces and not net.initial_marking:
        raise ReplayConfigError("replay requires a non-empty initial marking")
    if not all(ignores) and not net.final_marking:
        raise ReplayConfigError("replay requires a non-empty final marking")
    replayer = _Replayer(net, max_expansions)
    variants = [(trace.activities(), ignore) for trace, ignore in zip(traces, ignores)]
    searches: dict[tuple[tuple[str, ...], bool], tuple] = {}  # variant -> its search
    places: dict[tuple, int] = {}  # search -> its first place in the log
    for variant in variants:
        if variant not in searches:
            activities, ignore = variant
            candidates = [replayer.labeled.get(a, ()) for a in activities]
            search = searches[variant] = (tuple(c for c in candidates if c), ignore)
            places.setdefault(search, len(places))
    winners = replayer.search(places)
    labels, counts = replayer.labeled, (len(winners), replayer.settles)
    del replayer  # and its successor memo, which the firing logs do not need

    results: list[TraceReplayResult] = []
    by_variant: dict[tuple[tuple[str, ...], bool], TraceReplayResult] = {}
    for trace, variant in zip(traces, variants):
        first = by_variant.get(variant)
        if first is None:
            winner = winners[searches[variant]]
            if winner is None:
                raise ReplayBudgetError(trace.case_id, max_expansions)
            first = by_variant[variant] = _result(net, labels, trace, winner, variant[1])
            results.append(first)
        else:
            results.append(replace(first, case_id=trace.case_id))
    return results, *counts


def replay_trace(net: PetriNet, trace: Trace, ignore_final_marking: bool = False,
                 max_expansions: int = 500_000) -> TraceReplayResult:
    """Replay one trace and return its token counters and firing log.

    ``ignore_final_marking`` skips final-marking consumption and remaining
    token counting; use it for ongoing (censored) cases whose tail is simply
    not recorded yet. A search that expands more than ``max_expansions``
    states raises ReplayBudgetError.
    """
    return _replay(net, (trace,), (ignore_final_marking,), max_expansions)[0][0]


def replay_log(net: PetriNet, log: EventLog, ignore_final_for_ongoing: bool = True,
               max_expansions: int = 500_000) -> LogReplayResult:
    """Replay every trace and aggregate counters into a log-level fitness.

    Ongoing cases (complete=false) are by default replayed without the
    final-marking penalty; pass ignore_final_for_ongoing=False to treat them
    like complete cases. Variants share the search over their common prefixes
    (see the module notes). If some trace's search expands more than
    ``max_expansions`` states, ReplayBudgetError names the first such trace in
    log order.
    """
    results, searched, settled = _replay(
        net, log.traces, [ignore_final_for_ongoing and not t.complete for t in log],
        max_expansions)
    totals = [sum(getattr(r, counter) for r in results)
              for counter in ("produced", "consumed", "missing", "remaining")]
    return LogReplayResult(tuple(results), *totals, _fitness(*totals), searched, settled)


def replay_csv(result: LogReplayResult) -> str:
    """Per-trace diagnostics as CSV: case_id,p,c,m,r,fitness."""
    lines = ["case_id,produced,consumed,missing,remaining,fitness"]
    for r in result.per_trace:
        lines.append(f"{_quoted(r.case_id)},{r.produced},{r.consumed},{r.missing},"
                     f"{r.remaining},{r.fitness:.6f}")
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
