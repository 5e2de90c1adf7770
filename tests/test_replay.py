import hashlib
import random
from datetime import timedelta

import pytest

from careflow.covas import covas_model
from careflow.errors import ReplayBudgetError, ReplayConfigError
from careflow.eventlog import EventLog, Trace
from careflow.petri import Marking, PetriNet, Transition
from careflow.replay import deviation_report, replay_csv, replay_log, replay_trace
from helpers import (budget_net, make_log, make_trace, oracle_replay, paper_logs,
                     random_activities, random_net)

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


def test_explicit_label_map():
    net = covas_model()
    trace = make_trace("c1", ["admit"])
    mapped = replay_trace(net, trace, label_map={"admit": "Hospitalization"})
    assert any(s.transition_id == "Hospitalization" for s in mapped.firing_log)
    with pytest.raises(ReplayConfigError):
        replay_trace(net, trace, label_map={"admit": "t5"})


def test_replay_csv_and_report():
    net = covas_model()
    log = make_log(FULL_TRACE, ["Hospitalization", "End"])
    result = replay_log(net, log)
    csv_text = replay_csv(result)
    assert csv_text.splitlines()[0] == "case_id,produced,consumed,missing,remaining,fitness"
    assert len(csv_text.strip().splitlines()) == 3
    report = deviation_report(result)
    assert "case c2" in report and "missing tokens" in report


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
