import copy
import csv
import gc
import hashlib
import pickle
import random
import tracemalloc
from dataclasses import replace
from datetime import timedelta

import pytest

from careflow.covas import covas_model
from careflow.errors import ReplayBudgetError, ReplayConfigError
from careflow.eventlog import EventLog, Trace
from careflow.petri import Marking, PetriNet, Transition
from careflow.replay import _Replayer, deviation_report, replay_csv, replay_log, replay_trace
from helpers import (budget_net, make_log, make_trace, oracle_replay, paper_logs,
                     random_activities, random_net, reference_search)

FULL_TRACE = ["Start", "startSymptoms", "Hospitalization", "startOxygen", "endOxygen",
              "endSymptoms", "ICUadmission", "startVentilation", "startECMO", "endECMO",
              "endVentilation", "ICUdischarge", "DischAlive", "End"]
SHORT_TRACE = ["Start", "Hospitalization", "startOxygen", "endOxygen", "DischDead", "End"]


def test_compliant_trace_is_perfect():
    result = replay_trace(covas_model(), make_trace("c1", FULL_TRACE))
    assert (result.missing, result.remaining) == (0, 0)
    assert result.fitness == 1.0
    fired = [s.transition_id for s in result.firing_log]
    assert "t5" in fired  # the AND-join is inserted automatically


def test_short_path_with_skips_is_perfect():
    result = replay_trace(covas_model(), make_trace("c1", SHORT_TRACE))
    assert result.fitness == 1.0


def test_empty_trace_counters():
    result = replay_trace(covas_model(), Trace("c1"))
    assert (result.produced, result.consumed, result.missing, result.remaining) == (1, 1, 1, 1)
    assert result.fitness == 0.0


def test_partial_trace_counters_and_missing_places():
    result = replay_trace(covas_model(), make_trace("c1", ["Hospitalization", "DischAlive", "End"]))
    assert 0.0 < result.fitness < 1.0
    assert (result.missing, result.remaining) == (2, 2)
    forced = set()
    for step in result.firing_log:
        forced |= step.forced_missing
    assert forced == {"p3", "p8"}  # Hospitalization's input and one of t5's inputs


def test_fitness_one_iff_no_deviation():
    rnd = random.Random(21)
    net = covas_model()
    for _ in range(40):
        activities = random_activities(rnd, net, max_events=8)
        result = replay_trace(net, make_trace("c1", activities or ["Start"]))
        assert 0.0 <= result.fitness <= 1.0
        assert (result.fitness == 1.0) == (result.missing == 0 and result.remaining == 0)
        assert result.missing <= result.consumed
        assert result.remaining <= result.produced


def test_deleting_one_event_never_beats_compliant():
    net = covas_model()
    base = replay_trace(net, make_trace("c1", FULL_TRACE))
    assert base.missing + base.remaining == 0
    silently_coverable = {"startSymptoms", "endSymptoms"}  # t0 / t1 absorb these
    for drop in range(len(FULL_TRACE)):
        reduced = [a for i, a in enumerate(FULL_TRACE) if i != drop]
        result = replay_trace(net, make_trace("c1", reduced))
        assert result.fitness <= 1.0
        if FULL_TRACE[drop] in silently_coverable:
            assert result.fitness == 1.0
        else:
            assert result.missing + result.remaining > 0


def test_unmapped_events_cost_one_missing_and_one_remaining():
    net = covas_model()
    clean = replay_trace(net, make_trace("c1", SHORT_TRACE))
    noisy = replay_trace(net, make_trace("c1", SHORT_TRACE + ["NotAnActivity"]))
    assert noisy.missing == clean.missing + 1
    assert noisy.remaining == clean.remaining + 1
    assert noisy.produced == clean.produced + 1
    assert noisy.consumed == clean.consumed + 1
    assert any(s.transition_id is None and s.activity == "NotAnActivity"
               for s in noisy.firing_log)


def test_ignore_final_marking_for_ongoing():
    net = covas_model()
    prefix = FULL_TRACE[:5]
    strict = replay_trace(net, make_trace("c1", prefix))
    lenient = replay_trace(net, make_trace("c1", prefix), ignore_final_marking=True)
    assert strict.fitness < 1.0
    assert lenient.fitness == 1.0
    assert lenient.remaining == 0


def test_replay_requires_markings():
    net = PetriNet(("p1",), (Transition("t", "A"),), (("p1", "t"), ("t", "p1")),
                   Marking(), Marking())
    with pytest.raises(ReplayConfigError):
        replay_trace(net, make_trace("c1", ["A"]))


def test_replay_log_aggregates_counters():
    net = covas_model()
    log = make_log(FULL_TRACE, SHORT_TRACE, ["Hospitalization", "DischAlive", "End"])
    result = replay_log(net, log)
    assert result.produced == sum(r.produced for r in result.per_trace)
    assert result.consumed == sum(r.consumed for r in result.per_trace)
    assert result.missing == sum(r.missing for r in result.per_trace)
    assert result.remaining == sum(r.remaining for r in result.per_trace)
    assert 0.0 < result.log_fitness < 1.0


def test_replay_log_all_compliant_is_one():
    log = make_log(*([FULL_TRACE] * 5 + [SHORT_TRACE] * 5))
    assert replay_log(covas_model(), log).log_fitness == 1.0


def test_replay_log_ongoing_default_lenient():
    net = covas_model()
    ongoing = make_trace("c1", FULL_TRACE[:6], complete=False)
    assert replay_log(net, EventLog((ongoing,))).log_fitness == 1.0
    strict = replay_log(net, EventLog((ongoing,)), ignore_final_for_ongoing=False)
    assert strict.log_fitness < 1.0


def test_log_fitness_invariant_under_trace_reordering():
    net = covas_model()
    traces = [make_trace(f"c{i}", seq) for i, seq in
              enumerate([FULL_TRACE, SHORT_TRACE, ["Hospitalization", "End"], FULL_TRACE[:4]])]
    forward = replay_log(net, EventLog(tuple(traces)))
    backward = replay_log(net, EventLog(tuple(reversed(traces))))
    assert forward.log_fitness == backward.log_fitness


def test_determinism_of_firing_logs():
    net = covas_model()
    trace = make_trace("c1", ["Hospitalization", "DischAlive", "End"])
    first = replay_trace(net, trace)
    second = replay_trace(net, trace)
    assert first == second


def test_duplicate_labels_prefer_enabled_then_lowest_id():
    net = PetriNet(
        places=("p1", "p2", "p3"),
        transitions=(Transition("t1", "A"), Transition("t2", "A")),
        arcs=(("p1", "t1"), ("t1", "p3"), ("p2", "t2"), ("t2", "p3")),
        initial_marking=Marking({"p2": 1}),
        final_marking=Marking({"p3": 1}),
    )
    result = replay_trace(net, make_trace("c1", ["A"]))
    assert result.fitness == 1.0
    assert [s.transition_id for s in result.firing_log] == ["t2"]


def test_replay_csv_and_report():
    net = covas_model()
    log = make_log(FULL_TRACE, ["Hospitalization", "End"])
    result = replay_log(net, log)
    csv_text = replay_csv(result)
    assert csv_text.splitlines()[0] == "case_id,produced,consumed,missing,remaining,fitness"
    assert len(csv_text.strip().splitlines()) == 3
    report = deviation_report(result)
    assert "case c2" in report and "missing tokens" in report


def line_net() -> PetriNet:
    return PetriNet(("p1", "p2", "p3"), (Transition("a", "A"), Transition("b", "B")),
                    (("p1", "a"), ("a", "p2"), ("p2", "b"), ("b", "p3")),
                    Marking({"p1": 1}), Marking({"p3": 1}))


@pytest.mark.parametrize("activities, body", [
    (["A", "B"], "aggregate counters: p=3 c=3 m=0 r=0\n\n"
                 "no deviations: every trace replays cleanly.\n"),
    (["A", "X", "B"], "aggregate counters: p=4 c=4 m=1 r=1\n\n"
                      "case c1: fitness 0.7500 (p=4 c=4 m=1 r=1)\n"
                      "  step 1: activity 'X' not in model\n"),
    (["A"], "aggregate counters: p=2 c=2 m=1 r=1\n\n"
            "case c1: fitness 0.5000 (p=2 c=2 m=1 r=1)\n"
            "  final marking not reached; missing tokens in p3\n"),
], ids=["no-deviations", "activity-not-in-model", "final-marking-not-reached"])
def test_deviation_report_branches(activities, body):
    result = replay_log(line_net(), make_log(activities))
    assert deviation_report(result) == f"log fitness: {result.log_fitness:.4f}\n" + body


def test_replay_csv_quotes_cells_that_need_it():
    log = EventLog((make_trace("Smith, J", FULL_TRACE), make_trace('say "hi"', ["End"]),
                    make_trace("plain", ["End"])))
    result = replay_log(covas_model(), log)
    text = replay_csv(result)
    rows = list(csv.reader(text.splitlines(keepends=True)))
    assert [row[0] for row in rows] == ["case_id", "Smith, J", 'say "hi"', "plain"]
    assert all(len(row) == 6 for row in rows)
    assert text.splitlines()[3].startswith("plain,")


def test_counters_match_bruteforce_oracle_on_random_pairs():
    rnd = random.Random(2024)
    checked = 0
    while checked < 60:
        net = random_net(rnd)
        activities = random_activities(rnd, net)
        result = replay_trace(net, make_trace("c1", activities or ["A0"]))
        expected = oracle_replay(net, activities or ["A0"])
        got = (result.produced, result.consumed, result.missing, result.remaining)
        assert got == expected, f"net={net} activities={activities}"
        checked += 1


def test_budget_exhaustion_raises_replay_budget_error():
    trace = make_trace("c7", ["B", "A", "B"])
    with pytest.raises(ReplayBudgetError) as err:
        replay_trace(budget_net(), trace, max_expansions=10)
    assert (err.value.case_id, err.value.budget) == ("c7", 10)
    assert "'c7'" in str(err.value) and "10" in str(err.value)
    assert replay_trace(budget_net(), trace).missing == 1  # the default budget suffices


def test_replay_log_equals_per_trace_replay_on_noisy_log():
    net = covas_model()
    _, noisy = paper_logs()
    result = replay_log(net, noisy)
    expected = [replay_trace(net, trace, ignore_final_marking=not trace.complete)
                for trace in noisy]
    assert list(result.per_trace) == expected  # firing logs included


def test_replay_log_equals_per_trace_replay_on_random_nets():
    # replay_log numbers markings once for the whole log; a trace must read every
    # marking number as the marking it stands for, whichever trace found it first
    rnd = random.Random(909)
    compared = 0
    while compared < 40:
        net = random_net(rnd)
        log = EventLog(tuple(make_trace(f"c{k}", random_activities(rnd, net) or ["A0"],
                                        complete=rnd.random() < 0.7) for k in range(8)))
        try:
            expected = [replay_trace(net, trace, ignore_final_marking=not trace.complete,
                                     max_expansions=20_000) for trace in log]
        except ReplayBudgetError:
            continue
        assert list(replay_log(net, log, max_expansions=20_000).per_trace) == expected
        compared += 1


def _net_with_duplicates(rnd: random.Random) -> PetriNet:
    """A random net as ``random_net`` makes, plus a second transition for A0 and a silent one."""
    net = random_net(rnd)
    places = net.places
    arcs = net.arcs + tuple((rnd.choice(places), tid) for tid in ("T9", "s9")) + \
        tuple((tid, rnd.choice(places)) for tid in ("T9", "s9"))
    return PetriNet(places, net.transitions + (Transition("T9", "A0"), Transition("s9", None)),
                    tuple(dict.fromkeys(arcs)), net.initial_marking, net.final_marking)


def _prefix_log(rnd: random.Random, net: PetriNet) -> EventLog:
    """A few base sequences and all their prefixes, complete and ongoing, in random order;
    every base sequence holds the unmapped activity Zed."""
    bases = []
    for _ in range(3):
        activities = random_activities(rnd, net, max_events=5)
        activities.insert(rnd.randint(0, len(activities)), "Zed")
        bases.append(activities)
    sequences = [base[:k] for base in bases for k in range(len(base) + 1)]
    sequences += rnd.sample(sequences, 4)  # repeats, maybe with the other flag
    rnd.shuffle(sequences)
    return EventLog(tuple(make_trace(f"c{k}", activities, complete=rnd.random() < 0.6)
                          for k, activities in enumerate(sequences)))


def _least_budget(net: PetriNet, trace: Trace, cap: int = 300) -> int:
    """The least max_expansions that replays ``trace``, or ``cap`` if that is not enough."""
    low, high = 0, cap
    while low < high:
        budget = (low + high) // 2
        try:
            replay_trace(net, trace, ignore_final_marking=not trace.complete,
                         max_expansions=budget)
            high = budget
        except ReplayBudgetError:
            low = budget + 1
    return low


def _replays_like_each_trace(net: PetriNet, log: EventLog, least: list[int]) -> None:
    """replay_log gives every trace its own result, and at every budget around each trace's
    least one it raises exactly when some trace does, naming the first in log order."""
    expected = [replay_trace(net, trace, ignore_final_marking=not trace.complete)
                for trace in log]
    assert list(replay_log(net, log).per_trace) == expected
    for budget in sorted({0, *least, *(need - 1 for need in least)}):
        over = [trace.case_id for trace, need in zip(log, least) if need > budget]
        if over:
            with pytest.raises(ReplayBudgetError) as err:
                replay_log(net, log, max_expansions=budget)
            assert (err.value.case_id, err.value.budget) == (over[0], budget)
        else:
            assert list(replay_log(net, log, max_expansions=budget).per_trace) == expected


def test_prefix_sharing_equals_per_trace_replay_on_random_nets():
    # replay_log settles each layer of a shared prefix once for all the variants below it;
    # every result, and whether and where the budget runs out, must be a trace's own: the
    # winner and the expansions of a plain Dijkstra over that trace alone
    rnd = random.Random(4625)
    compared = 0
    while compared < 30:
        net = _net_with_duplicates(rnd)
        log = _prefix_log(rnd, net)
        own = [reference_search(net, trace.activities(), not trace.complete, limit=300)
               for trace in log]
        if None in own:
            continue
        for trace, (winner, expansions) in zip(log, own):
            result = replay_trace(net, trace, ignore_final_marking=not trace.complete)
            assert tuple(step.transition_id for step in result.firing_log
                         if step.transition_id is not None) == winner
            assert _least_budget(net, trace) == expansions
        _replays_like_each_trace(net, log, [expansions for _, expansions in own])
        compared += 1


def test_a_layer_settled_further_for_a_later_variant_counts_every_state():
    # The trie runs c2 (ongoing, so it stops at its least leaf state), then c3, which
    # extends c2's path, then c1, each settling the layers it shares further under a larger
    # bound. A layer that kept a stale heap top while pulling from its parent told the layer
    # above a floor too high, and a later search skipped a state: c1's expansions were
    # under-counted, so at a budget of 22 replay_log named c3 where c1 is the first over.
    net = PetriNet(("q0", "q1", "q2", "q3", "q4", "q5"),
                   (Transition("T0", "A2"), Transition("T1", "A2"), Transition("T2", "A1"),
                    Transition("s0", None)),
                   (("q1", "T0"), ("T0", "q5"), ("q4", "T1"), ("q3", "T1"), ("T1", "q3"),
                    ("q2", "T2"), ("T2", "q4"), ("q1", "s0"), ("q4", "s0"), ("s0", "q3"),
                    ("s0", "q5")),
                   Marking({"q4": 1}), Marking({"q0": 1}))
    log = EventLog((make_trace("c1", ["A1", "A1", "A2", "A2"]),
                    make_trace("c2", ["A2", "A1", "A1", "A1"], complete=False),
                    make_trace("c3", ["A2", "A1", "A1", "A1", "A2"])))
    least = [_least_budget(net, trace) for trace in log]
    assert least == [23, 11, 44]
    _replays_like_each_trace(net, log, least)


def test_budget_error_names_the_first_trace_in_log_order_not_in_the_trie():
    # least budgets on budget_net: A B needs 3 expansions, B A B 116, A B B 276; the
    # trie runs A B B (transitions a b b) before B A B (b a b), but B A B comes first
    log = make_log(["A", "B"], ["B", "A", "B"], ["A", "B", "B"])
    assert [_least_budget(budget_net(), trace) for trace in log] == [3, 116, 276]
    with pytest.raises(ReplayBudgetError) as err:
        replay_log(budget_net(), log, max_expansions=100)
    assert (err.value.case_id, err.value.budget) == ("c2", 100)
    with pytest.raises(ReplayBudgetError) as err:
        replay_log(budget_net(), log, max_expansions=200)
    assert err.value.case_id == "c3"
    assert replay_log(budget_net(), log, max_expansions=276).per_trace[2].missing == 1


def test_searches_placed_after_a_failed_one_are_skipped():
    # the trie runs a b, then a b b, which is over a budget of 200 and first in the log,
    # so b a b, placed after it, is not searched: the call fails at a b b in any case
    replayer = _Replayer(budget_net(), 200)
    ab, abb, bab = ((0,), (1,)), ((0,), (1,), (1,)), ((1,), (0,), (1,))
    winners = replayer.search({(abb, False): 0, (bab, False): 1, (ab, False): 2})
    assert winners.keys() == {(ab, False), (abb, False)}
    assert winners[abb, False] is None and winners[ab, False] is not None
    with pytest.raises(ReplayBudgetError) as err:
        replay_log(budget_net(), make_log(["A", "B", "B"], ["B", "A", "B"], ["A", "B"]),
                   max_expansions=200)
    assert err.value.case_id == "c1"


def test_search_statistics_are_pinned_and_left_out_of_equality():
    # the 1x noisy log's 92 variants settle 7,663 states over their trie, where searching
    # each variant on its own expands 15,938
    _, noisy = paper_logs()
    result = replay_log(covas_model(), noisy)
    assert (result.variants_searched, result.states_settled) == (92, 7663)
    assert result == replace(result, variants_searched=0, states_settled=0)
    assert replay_log(covas_model(), EventLog()).variants_searched == 0


def test_states_before_the_first_and_after_the_last_event_stay_apart():
    # The search numbers markings as it meets them and keys a state by (event, marking,
    # silent run). Before the one event, s0 and s1 lead from {q0} to {q0, q3} and {q2};
    # the best schedule, T0 then s0, reaches {q0, q3} again after the event, a state
    # that must stay apart from those two, which are settled first.
    net = PetriNet(("q0", "q1", "q2", "q3"),
                   (Transition("T0", "A0"), Transition("s0", None), Transition("s1", None)),
                   (("q1", "T0"), ("q2", "T0"), ("q3", "T0"), ("T0", "q2"), ("q2", "s0"),
                    ("q3", "s0"), ("s0", "q3"), ("q3", "s1"), ("q0", "s1"), ("q1", "s1"),
                    ("s1", "q2")),
                   Marking({"q0": 1}), Marking({"q3": 1}))
    result = replay_trace(net, make_trace("c1", ["A0"]))
    assert [step.transition_id for step in result.firing_log] == ["T0", "s0"]
    assert (result.produced, result.consumed, result.missing, result.remaining) == \
        oracle_replay(net, ["A0"]) == (3, 6, 4, 1)


def test_variant_cache_keeps_complete_and_ongoing_apart():
    prefix = FULL_TRACE[:5]
    log = EventLog((make_trace("done", prefix, complete=True),
                    make_trace("open", prefix, complete=False),
                    make_trace("done2", prefix)))
    done, ongoing, done2 = replay_log(covas_model(), log).per_trace
    assert not done.final_marking_ignored and done.fitness < 1.0
    assert ongoing.final_marking_ignored and ongoing.fitness == 1.0
    assert done2.case_id == "done2"
    assert (done2.remaining, done2.firing_log) == (done.remaining, done.firing_log)
    reversed_log = EventLog(tuple(reversed(log.traces)))
    assert replay_log(covas_model(), reversed_log).per_trace[1] == ongoing


def test_noisy_replay_outputs_are_pinned():
    # sha256 of replay_csv + deviation_report on the packaged config's noisy log,
    # recorded before replay moved to the compiled net and the variant cache
    _, noisy = paper_logs()
    result = replay_log(covas_model(), noisy)
    digest = hashlib.sha256((replay_csv(result) + deviation_report(result)).encode()).hexdigest()
    assert digest == "87a0548c4ddea2d2a7d9a29918af68ca9db77d9d6eda759cf1137306d2fed2ba"


def test_search_expansions_are_pinned():
    # the least max_expansions that replays every ninth trace of the packaged config's
    # noisy log, recorded when the search pushed all silent successors at once
    net = covas_model()
    _, noisy = paper_logs()
    least = []
    for trace in noisy.traces[::9]:
        low, high = 1, 10_000
        while low < high:
            budget = (low + high) // 2
            try:
                replay_trace(net, trace, ignore_final_marking=not trace.complete,
                             max_expansions=budget)
                high = budget
            except ReplayBudgetError:
                low = budget + 1
        least.append(low)
    assert least == [85, 26, 340, 27, 398, 26, 227, 26, 44, 44, 20, 22, 263, 27, 16, 26,
                     44, 366, 26, 45, 27, 18, 2, 72]


def test_replay_records_are_slotted_and_share_one_empty_place_set():
    _, noisy = paper_logs()
    result = replay_log(covas_model(), noisy)
    steps = [step for r in result.per_trace for step in r.firing_log]
    assert not hasattr(result.per_trace[0], "__dict__") and not hasattr(steps[0], "__dict__")
    empty = [s.forced_missing for s in steps] + [r.final_missing for r in result.per_trace]
    assert len({id(places) for places in empty if not places}) == 1
    forced = next(r for r in result.per_trace if any(s.forced_missing for s in r.firing_log))
    unfinished = replay_trace(covas_model(), make_trace("c1", ["Start", "startSymptoms"]))
    assert unfinished.final_missing
    for record in (forced, next(s for s in forced.firing_log if s.forced_missing), unfinished):
        for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                       copy.deepcopy(record)):
            assert copied == record and type(copied) is type(record)
    renamed = replace(forced, case_id="other")
    assert renamed.case_id == "other" and renamed.firing_log is forced.firing_log
    assert replace(renamed, case_id=forced.case_id) == forced


def test_replay_log_results_retain_under_100_bytes_per_event():
    # tracemalloc read 256 B with a dict per record and a fresh empty frozenset (216 B) per
    # step and result, 74 B with slotted records and one empty set (3.11); like any
    # tracemalloc figure it leaves out objects that interpreter freelists served
    net, (_, noisy) = covas_model(), paper_logs()
    net.compiled  # built on first use and kept with the net, not the result: build it first
    gc.collect()
    tracemalloc.start()
    try:
        result = replay_log(net, noisy)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(result.per_trace) == 216
    assert retained / noisy.event_count < 100


def test_markings_above_a_byte_per_place_replay_like_the_oracle():
    # A adds a token to p on each firing, so 300 of them take p past what a byte holds:
    # the memo keeps those markings as tuples and the smaller ones as bytes
    net = PetriNet(places=("src", "p", "sink"),
                   transitions=(Transition("a", "A"), Transition("b", "B")),
                   arcs=(("src", "a"), ("a", "src"), ("a", "p"), ("src", "b"), ("p", "b"),
                         ("b", "sink")),
                   initial_marking=Marking({"src": 1}), final_marking=Marking({"sink": 1}))
    activities = ["A"] * 300 + ["B"]
    result = replay_trace(net, make_trace("c1", activities))
    assert (result.produced, result.consumed, result.missing, result.remaining) == \
        oracle_replay(net, activities) == (602, 303, 0, 299)
    replayer = _Replayer(net, 10_000)
    replayer.search({(tuple(replayer.labeled[a] for a in activities), False): 0})
    assert {type(v) for v in replayer.vectors} == {bytes, tuple}
    assert len(replayer.vectors) == len(set(replayer.vectors)) == 302


def test_net_with_more_transitions_than_a_byte_indexes():
    # 301 transitions, so the search spells its paths as tuples, not bytes
    n = 300
    ids = [f"t{k:03d}" for k in range(n)]
    arcs = tuple(arc for k, tid in enumerate(ids) for arc in ((f"p{k}", tid), (tid, f"p{k + 1}")))
    net = PetriNet(
        places=tuple(f"p{k}" for k in range(n + 1)),
        transitions=tuple(Transition(tid, tid.upper()) for tid in ids) + (Transition("skip", None),),
        arcs=arcs + (("p0", "skip"), ("skip", f"p{n // 2}")),
        initial_marking=Marking({"p0": 1}),
        final_marking=Marking({f"p{n}": 1}),
    )
    result = replay_trace(net, make_trace("c1", [tid.upper() for tid in ids[n // 2:]]))
    assert [s.transition_id for s in result.firing_log] == ["skip"] + ids[n // 2:]
    assert result.fitness == 1.0


def test_wide_choices_with_silent_skips_replay_like_the_oracle():
    # 602 transitions: two 300-way labeled choices in sequence, each skippable by a
    # silent transition, so the search spells paths as tuples while it weighs skips,
    # forced firings and unmapped events
    choices = (("a", "p0", "p1"), ("b", "p1", "p2"))
    ids = [(f"{x}{k:03d}", f"{x.upper()}{k}", src, dst) for x, src, dst in choices
           for k in range(1, 301)]
    net = PetriNet(
        places=("p0", "p1", "p2"),
        transitions=tuple(Transition(tid, label) for tid, label, _, _ in ids)
        + (Transition("s0", None), Transition("s1", None)),
        arcs=tuple(arc for tid, _, src, dst in ids for arc in ((src, tid), (tid, dst)))
        + (("p0", "s0"), ("s0", "p1"), ("p1", "s1"), ("s1", "p2")),
        initial_marking=Marking({"p0": 1}),
        final_marking=Marking({"p2": 1}),
    )
    assert len(net.transitions) == 602
    for activities, fired in ((["A5", "B299"], ["a005", "b299"]), (["B7"], ["s0", "b007"]),
                              (["A1", "A2", "B3"], ["a001", "a002", "b003"]),
                              (["Zed", "A299"], [None, "a299", "s1"])):  # None: unmapped
        result = replay_trace(net, make_trace("c1", activities))
        assert (result.produced, result.consumed, result.missing, result.remaining) == \
            oracle_replay(net, activities), activities
        assert [step.transition_id for step in result.firing_log] == fired


def test_ties_break_on_transition_ids_not_declaration_order():
    # s2 is declared before s1; both schedules cost (0, 0, 1), so tie 4 decides
    net = PetriNet(
        places=("p1", "p2", "p3"),
        transitions=(Transition("s2", None), Transition("s1", None), Transition("A", "A")),
        arcs=(("p1", "s2"), ("s2", "p2"), ("p1", "s1"), ("s1", "p2"), ("p2", "A"), ("A", "p3")),
        initial_marking=Marking({"p1": 1}),
        final_marking=Marking({"p3": 1}),
    )
    result = replay_trace(net, make_trace("c1", ["A"]))
    assert [s.transition_id for s in result.firing_log] == ["s1", "A"]
    assert result.fitness == 1.0
