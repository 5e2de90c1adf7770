import json
import random
from collections import Counter
from datetime import timedelta

import pytest
from hypothesis import given, strategies as st

from careflow.dfg import Dfg, dfg_to_dot, dfg_to_json, discover_dfg, filter_dfg
from careflow.eventlog import EventLog
from helpers import make_log, random_log


def brute_force_pairs(log):
    counts = Counter()
    for trace in log:
        acts = trace.activities()
        for pair in zip(acts, acts[1:]):
            counts[pair] += 1
    return dict(counts)


def test_single_trace_edges_and_endpoints():
    dfg = discover_dfg(make_log(["A", "B", "C"]))
    assert {pair: s.frequency for pair, s in dfg.edges.items()} == {("A", "B"): 1, ("B", "C"): 1}
    assert dfg.start_activities == {"A": 1}
    assert dfg.end_activities == {"C": 1}


def test_repeated_trace_accumulates():
    dfg = discover_dfg(make_log(["A", "B"], ["A", "B"]))
    assert dfg.edges[("A", "B")].frequency == 2
    assert dfg.nodes["A"].frequency == 2
    assert dfg.nodes["A"].case_frequency == 2


def test_edge_durations_summary():
    log = make_log(["A", "B"], ["A", "B"])  # both gaps are one hour
    stats = discover_dfg(log).edges[("A", "B")].durations
    assert stats.mean == timedelta(hours=1)
    assert stats.median == timedelta(hours=1)
    assert stats.min == stats.max == timedelta(hours=1)


def test_matches_bruteforce_on_random_logs():
    rnd = random.Random(17)
    for _ in range(50):
        log = random_log(rnd)
        dfg = discover_dfg(log)
        assert {pair: s.frequency for pair, s in dfg.edges.items()} == brute_force_pairs(log)
        total_edges = sum(s.frequency for s in dfg.edges.values())
        assert total_edges == sum(max(0, len(t.events) - 1) for t in log)
        assert set(dfg.nodes) <= set(log.activity_alphabet())


def test_invariant_under_trace_reordering():
    rnd = random.Random(31)
    log = random_log(rnd)
    reordered = EventLog(tuple(reversed(log.traces)))
    assert discover_dfg(log) == discover_dfg(reordered)


def test_filter_zero_thresholds_is_identity():
    dfg = discover_dfg(make_log(["A", "B", "C"], ["A", "C"]))
    assert filter_dfg(dfg, 0, 0) == dfg


@pytest.mark.parametrize("bad", [-1, -0.5, float("nan")], ids=["negative", "negative-fraction", "nan"])
def test_filter_rejects_thresholds_that_are_not_non_negative(bad):
    dfg = discover_dfg(make_log(["A", "B"]))
    for thresholds in ({"min_node_frequency": bad}, {"min_edge_frequency": bad}):
        with pytest.raises(ValueError, match="non-negative"):
            filter_dfg(dfg, **thresholds)


def test_filter_above_max_removes_all_edges():
    dfg = discover_dfg(make_log(["A", "B"], ["A", "B"]))
    filtered = filter_dfg(dfg, min_edge_frequency=99)
    assert filtered.edges == {}
    assert set(filtered.nodes) == {"A", "B"}


def test_filter_fraction_threshold():
    dfg = discover_dfg(make_log(*([["A", "B"]] * 19 + [["A", "C"]])))
    filtered = filter_dfg(dfg, min_edge_frequency=0.5)  # half of the max edge count
    assert ("A", "B") in filtered.edges and ("A", "C") not in filtered.edges


def test_filter_removes_edges_of_removed_nodes():
    dfg = discover_dfg(make_log(*([["A", "B"]] * 9 + [["C", "A"]])))
    filtered = filter_dfg(dfg, min_node_frequency=2)
    assert "C" not in filtered.nodes
    assert ("C", "A") not in filtered.edges
    assert "C" not in filtered.start_activities


def test_filter_subgraph_idempotent_monotone():
    rnd = random.Random(23)
    for _ in range(40):
        dfg = discover_dfg(random_log(rnd))
        f1 = filter_dfg(dfg, 0.2, 0.3)
        assert set(f1.nodes) <= set(dfg.nodes)
        assert set(f1.edges) <= set(dfg.edges)
        assert filter_dfg(f1, 0.2, 0.3) == f1
        f2 = filter_dfg(dfg, 0.4, 0.5)
        assert set(f2.nodes) <= set(f1.nodes)
        assert set(f2.edges) <= set(f1.edges)


@given(st.lists(st.lists(st.sampled_from("ABC"), max_size=5), max_size=8),
       st.integers(0, 4), st.integers(0, 4))
def test_filter_properties_hypothesis(sequences, node_cut, edge_cut):
    dfg = discover_dfg(make_log(*sequences))
    filtered = filter_dfg(dfg, node_cut, edge_cut)
    assert set(filtered.edges) <= set(dfg.edges)
    assert filter_dfg(filtered, node_cut, edge_cut) == filtered
    for pair in filtered.edges:
        assert pair[0] in filtered.nodes and pair[1] in filtered.nodes


def test_dot_empty_graph():
    text = dfg_to_dot(Dfg({}, {}, {}, {}))
    assert text.startswith("digraph") and text.rstrip().endswith("}")


def test_dot_single_edge_frequency_label():
    dfg = discover_dfg(make_log(["A", "B"], ["A", "B"], ["A", "B"]))
    text = dfg_to_dot(dfg)
    edge_lines = [l for l in text.splitlines() if "->" in l]
    assert edge_lines == ['  "A" -> "B" [label="3"];']


def test_dot_escapes_quotes_and_backslashes():
    text = dfg_to_dot(discover_dfg(make_log(['say "hi"', "a\\b"])))
    assert '  "say \\"hi\\"" [label="say \\"hi\\" (1)"];' in text.splitlines()
    assert '  "a\\\\b" [label="a\\\\b (1)"];' in text.splitlines()
    assert '  "say \\"hi\\"" -> "a\\\\b" [label="1"];' in text.splitlines()


def test_dot_duration_annotation():
    dfg = discover_dfg(make_log(["A", "B"]))
    text = dfg_to_dot(dfg, annotate="mean_duration")
    assert 'label="0d 01h 00m"' in text
    with pytest.raises(ValueError):
        dfg_to_dot(dfg, annotate="nonsense")


def test_dot_and_json_deterministic():
    dfg = discover_dfg(random_log(random.Random(2)))
    assert dfg_to_dot(dfg) == dfg_to_dot(dfg)
    assert dfg_to_json(dfg) == dfg_to_json(dfg)
    payload = json.loads(dfg_to_json(dfg))
    assert set(payload) == {"nodes", "edges", "start_activities", "end_activities"}
