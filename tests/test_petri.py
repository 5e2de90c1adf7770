import random
import re
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given, strategies as st

from careflow.covas import ACTIVITIES, covas_model
from careflow.errors import PetriNetError, PnmlFormatError
from careflow.petri import Marking, PetriNet, Transition, parse_pnml
from careflow.replay import replay_log
from careflow.xesio import _escape, _quote
from helpers import (NotEnabledError, enabled, fire, make_log, net_to_dot, pre_post, random_net,
                     reachable_markings, write_pnml)


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
    for count in (1.0, "1"):
        with pytest.raises(ValueError, match="is not an integer"):
            Marking({"a": count})


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
        pre, post = pre_post(net)
        marking = net.initial_marking
        for _ in range(5):
            options = sorted(enabled(net, marking))
            if not options:
                break
            tid = rnd.choice(options)
            succ = fire(net, marking, tid)
            assert succ.total() == marking.total() - len(pre[tid]) + len(post[tid])
            assert tid in enabled(net, marking)
            marking = succ


def test_compiled_fire_matches_a_list_reference_in_either_marking_form():
    # counts 0-300 with the edges of a byte drawn often: a successor is bytes exactly
    # when each of its counts fits in one, whether it came in as bytes or as a tuple
    rnd = random.Random(33)
    for _ in range(100):
        net = random_net(rnd)
        cn = net.compiled
        for _ in range(10):
            counts = [rnd.choice((0, 1, 254, 255, 256, rnd.randint(0, 300))) for _ in net.places]
            vectors = [tuple(counts)] + ([bytes(counts)] if max(counts) <= 255 else [])
            for tid in cn.tids:
                expected, missing = list(counts), []
                for source, target in net.arcs:
                    if target == tid:
                        place = net.places.index(source)
                        if expected[place]:
                            expected[place] -= 1
                        else:
                            missing.append(place)
                for source, target in net.arcs:
                    if source == tid:
                        expected[net.places.index(target)] += 1
                for vector in vectors:
                    succ, forced = cn.fire(vector, cn.index[tid])
                    assert list(succ) == expected and forced == tuple(missing)
                    assert type(succ) is (bytes if max(expected) <= 255 else tuple)


def test_a_tuple_marking_is_bytes_again_once_its_counts_fit():
    net = PetriNet(("p", "q"), (Transition("t", "T"),), (("p", "t"), ("t", "q")),
                   Marking({"p": 256}), Marking({"q": 1}))
    cn = net.compiled
    assert cn.initial == (256, 0) and cn.final == bytes((0, 1))
    assert cn.fire(cn.initial, 0) == (bytes((255, 1)), ())


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


@given(st.text(st.sampled_from("ab&<>\"'\t\n\r")))
def test_xml_quoting_spells_as_the_standard_library(text):
    # saxutils is the oracle only: it imports urllib.request, and with it ssl and http.client
    assert _quote(text) == quoteattr(text)
    assert _escape(text) == escape(text).replace("\r", "&#13;")


@pytest.mark.parametrize("label", ["a\rb", "a\r\nb", "a\tb", " a ", "a&<>\"'b"])
def test_pnml_roundtrip_keeps_every_label_and_id(label):
    # a raw CR in element text would read back as LF, under XML's end-of-line handling
    net = simple_net(places=("p\r1", "p2"), transitions=(Transition("t\r", label),),
                     arcs=(("p\r1", "t\r"), ("t\r", "p2")),
                     initial_marking=Marking({"p\r1": 1}), name="n\r")
    assert parse_pnml(write_pnml(net)) == net


@pytest.mark.parametrize("char", ["\x01", "\x0b", "\ufffe", "\ud800"])
@pytest.mark.parametrize("changes, owner", [
    (lambda c: {"name": f"n{c}"}, lambda c: "the net holds {!r} in its name".format(c)),
    (lambda c: {"places": (f"p{c}", "p2"), "arcs": ((f"p{c}", "t"), ("t", "p2")),
                "initial_marking": Marking({f"p{c}": 1})},
     lambda c: "place {!r} holds {!r} in its id".format(f"p{c}", c)),
    (lambda c: {"transitions": (Transition(f"t{c}", "A"),),
                "arcs": (("p1", f"t{c}"), (f"t{c}", "p2"))},
     lambda c: "transition {!r} holds {!r} in its id".format(f"t{c}", c)),
    (lambda c: {"transitions": (Transition("t", f"A{c}"),)},
     lambda c: "transition 't' holds {!r} in its label".format(c)),
], ids=["name", "place", "transition", "label"])
def test_write_pnml_refuses_what_xml_cannot_carry(char, changes, owner):
    with pytest.raises(PnmlFormatError) as caught:
        write_pnml(simple_net(**changes(char)))
    assert str(caught.value) == owner(char) + ", a character XML cannot carry"


# a net as ProM and pm4py export it: A, then B or the silent skip_1, which keeps its
# <name> and is marked silent by a <toolspecific> child
PROM_PNML = """<?xml version='1.0' encoding='UTF-8'?>
<pnml>
  <net id="net1" type="http://www.pnml.org/version-2009/grammar/pnmlcoremodel">
    <name><text>net1</text></name>
    <page id="n0">
      <place id="source"><name><text>source</text></name>
        <initialMarking><text>1</text></initialMarking></place>
      <place id="p1"><name><text>p1</text></name></place>
      <place id="sink"><name><text>sink</text></name></place>
      <transition id="A"><name><text>A</text></name></transition>
      <transition id="B"><name><text>B</text></name></transition>
      <transition id="skip_1"><name><text>skip_1</text></name>
        <toolspecific tool="ProM" version="6.4" activity="$invisible$" localNodeID="n1"/>
      </transition>
      <arc id="a1" source="source" target="A"/><arc id="a2" source="A" target="p1"/>
      <arc id="a3" source="p1" target="B"/><arc id="a4" source="B" target="sink"/>
      <arc id="a5" source="p1" target="skip_1"/><arc id="a6" source="skip_1" target="sink"/>
    </page>
    <finalmarkings><marking><place idref="sink"><text>1</text></place></marking></finalmarkings>
  </net>
</pnml>
"""


def test_pnml_reads_prom_silent_transitions_as_silent():
    net = parse_pnml(PROM_PNML)
    assert {(t.id, t.label) for t in net.transitions} == {("A", "A"), ("B", "B"), ("skip_1", None)}
    result = replay_log(net, make_log(["A"], ["A", "B"]))
    assert [t.fitness for t in result.per_trace] == [1.0, 1.0] and result.log_fitness == 1.0


def test_pnml_reads_the_2009_grammar_namespace():
    # as the PNML standard's own examples spell it: every element in the grammar's namespace
    spelled = PROM_PNML.replace("<pnml>",
                                '<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">')
    assert parse_pnml(spelled) == parse_pnml(PROM_PNML)
    assert parse_pnml(spelled).transitions[2] == Transition("skip_1", None)


WEIGHTED = write_pnml(simple_net()).replace(
    '<arc id="a1" source="p1" target="t"/>',
    '<arc id="a1" source="p1" target="t"><inscription><text>2</text></inscription></arc>')


def test_pnml_arc_of_weight_one_reads_as_an_ordinary_arc():
    assert parse_pnml(WEIGHTED.replace("<text>2</text></inscription>",
                                       "<text>1</text></inscription>")) == simple_net(name="net1")


@pytest.mark.parametrize("text, message, location", [
    ("<pnml><net>", "malformed PNML: no element found (line 1, column 11)", (1, 11)),
    ("<net/>", "expected <pnml> root element", (None, None)),
    ("<pnml><page/></pnml>", "no <net> element found", (None, None)),
    ("<pnml><net><place/></net></pnml>", "<place> without id", (None, None)),
    ("<pnml><net><transition/></net></pnml>", "<transition> without id", (None, None)),
    ("<pnml><net><arc source='p1'/></net></pnml>", "<arc> without source/target", (None, None)),
    (WEIGHTED, "arc 'p1' -> 't' has weight '2'; only ordinary arcs (weight 1) are supported",
     (None, None)),
    (PROM_PNML.replace("<pnml>", '<pnml><net id="other"><page id="x"/></net>'),
     "2 <net> elements found; careflow reads one", (None, None)),
    (PROM_PNML.replace("</marking>", '</marking><marking><place idref="p1"><text>1</text>'
                                     "</place></marking>"),
     "2 final markings found; replay needs one", (None, None)),
], ids=["malformed-xml", "root", "no-net", "place-without-id", "transition-without-id",
        "arc-without-ends", "weighted-arc", "two-nets", "two-final-markings"])
def test_pnml_format_errors_say_what_and_where(text, message, location):
    with pytest.raises(PnmlFormatError) as caught:
        parse_pnml(text)
    assert str(caught.value) == message
    assert (caught.value.line, caught.value.column) == location


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
