import random
import re

import pytest

from careflow.covas import ACTIVITIES, covas_model
from careflow.errors import NotEnabledError, PetriNetError
from careflow.petri import Marking, PetriNet, Transition, net_to_dot, parse_pnml, write_pnml
from helpers import enabled, fire, random_net, reachable_markings


def simple_net(**changes):
    fields = dict(
        places=("p1", "p2"),
        transitions=(Transition("t", "A"),),
        arcs=(("p1", "t"), ("t", "p2")),
        initial_marking=Marking({"p1": 1}),
        final_marking=Marking({"p2": 1}),
    )
    return PetriNet(**{**fields, **changes})


def test_marking_canonical_form():
    m = Marking({"a": 1, "b": 0})
    assert m.places() == frozenset({"a"})
    assert m == Marking({"a": 1})
    with pytest.raises(ValueError):
        Marking({"a": -1})


def test_enabled_basic():
    net = simple_net()
    assert enabled(net, net.initial_marking) == {"t"}
    assert enabled(net, Marking()) == set()


def test_enabled_rejects_unknown_place():
    with pytest.raises(PetriNetError):
        enabled(simple_net(), Marking({"zzz": 1}))


def test_fire_moves_token_and_preserves_input():
    net = simple_net()
    before = net.initial_marking
    after = fire(net, before, "t")
    assert after == Marking({"p2": 1})
    assert before == Marking({"p1": 1})  # value semantics


def test_fire_not_enabled_carries_missing_places():
    net = simple_net()
    with pytest.raises(NotEnabledError) as err:
        fire(net, Marking(), "t")
    assert err.value.missing_places == frozenset({"p1"})


def test_token_conservation_on_random_nets():
    rnd = random.Random(3)
    for _ in range(50):
        net = random_net(rnd)
        marking = net.initial_marking
        for _ in range(5):
            options = sorted(enabled(net, marking))
            if not options:
                break
            tid = rnd.choice(options)
            succ = fire(net, marking, tid)
            assert succ.total() == marking.total() - len(net.inputs(tid)) + len(net.outputs(tid))
            assert tid in enabled(net, marking)
            marking = succ


def test_enabled_fire_agreement():
    rnd = random.Random(5)
    for _ in range(50):
        net = random_net(rnd)
        marking = net.initial_marking
        for trans in net.transitions:
            can = trans.id in enabled(net, marking)
            try:
                fire(net, marking, trans.id)
                fired = True
            except NotEnabledError:
                fired = False
            assert can == fired


@pytest.mark.parametrize("changes, named", [
    ({"arcs": (("p1", "t"), ("t", "nowhere"))}, "'t' -> 'nowhere'"),
    ({"arcs": (("p1", "t"), ("t", "p2"), ("p1", "p2"))}, "'p1' -> 'p2'"),
    ({"arcs": (("p1", "t"), ("t", "p2"), ("p1", "t"))}, "arc ('p1', 't')"),
    ({"places": ("p1", "p2", "p1")}, "place id 'p1'"),
    ({"transitions": (Transition("t", "A"), Transition("t", "B"))}, "transition id 't'"),
    ({"places": ("p1", "p2", "t")}, "disjoint"),
    ({"initial_marking": Marking({"p9": 1})}, "initial marking references unknown places: ['p9']"),
    ({"final_marking": Marking({"p9": 1})}, "final marking references unknown places: ['p9']"),
], ids=["dangling-arc", "non-bipartite-arc", "repeated-arc", "repeated-place",
        "repeated-transition", "place-is-transition", "initial-marking", "final-marking"])
def test_broken_net_is_rejected_at_construction(changes, named):
    with pytest.raises(PetriNetError, match=re.escape(named)):
        simple_net(**changes)


def test_pnml_roundtrip_simple_and_covas():
    for net in (simple_net(), covas_model()):
        back = parse_pnml(write_pnml(net))
        assert set(back.places) == set(net.places)
        assert {(t.id, t.label) for t in back.transitions} == {(t.id, t.label) for t in net.transitions}
        assert set(back.arcs) == set(net.arcs)
        assert back.initial_marking == net.initial_marking
        assert back.final_marking == net.final_marking


def test_net_dot_escapes_quotes_and_backslashes():
    net = simple_net(places=('p "1"', "p2"), transitions=(Transition("a\\b", 'say "hi"'),),
                     arcs=(('p "1"', "a\\b"), ("a\\b", "p2")),
                     initial_marking=Marking({'p "1"': 1}))
    lines = net_to_dot(net).splitlines()
    assert '  "p \\"1\\"" [shape=circle label="p \\"1\\" (1)"];' in lines
    assert '  "a\\\\b" [shape=box label="say \\"hi\\""];' in lines
    assert '  "p \\"1\\"" -> "a\\\\b";' in lines


def test_net_dot_is_deterministic():
    net = covas_model()
    assert net_to_dot(net) == net_to_dot(net)
    assert net_to_dot(net).startswith("digraph")


# --- the built-in care-pathway model -------------------------------------------

def test_covas_model_shape():
    net = covas_model()
    assert len(net.places) == 18
    assert sorted(t.label for t in net.transitions if not t.silent) == sorted(ACTIVITIES)
    assert sorted(t.id for t in net.transitions if t.silent) == ["t0", "t1", "t2", "t3", "t4", "t5"]
    assert len(net.arcs) == 46


def test_covas_initially_only_start_enabled():
    net = covas_model()
    assert enabled(net, net.initial_marking) == {"Start"}


def test_covas_symptom_choice():
    net = covas_model()
    assert enabled(net, Marking({"p2": 1})) == {"startSymptoms", "t0"}


def test_covas_and_split_and_silent_skip():
    net = covas_model()
    assert fire(net, Marking({"p3": 1}), "Hospitalization") == Marking({"p4": 1, "p5": 1, "p6": 1})
    assert fire(net, Marking({"p6": 1}), "t4") == Marking({"p16": 1})


FULL_PATH = ["Start", "startSymptoms", "Hospitalization", "startOxygen", "endOxygen",
             "endSymptoms", "ICUadmission", "startVentilation", "startECMO", "endECMO",
             "endVentilation", "ICUdischarge", "t5", "DischAlive", "End"]
SKIP_PATH = ["Start", "t0", "Hospitalization", "startOxygen", "endOxygen", "t1", "t4",
             "t5", "DischDead", "End"]


@pytest.mark.parametrize("sequence", [FULL_PATH, SKIP_PATH], ids=["full", "icu-skip"])
def test_covas_firing_sequences_reach_final(sequence):
    net = covas_model()
    marking = net.initial_marking
    for tid in sequence:
        marking = fire(net, marking, tid)
    assert marking == net.final_marking


def test_covas_state_space():
    net = covas_model()
    space = reachable_markings(net)
    assert net.final_marking.key() in space
    assert max(sum(count for _, count in key) for key in space) == 3
    assert len(space) == 48
