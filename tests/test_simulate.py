import gc
import hashlib
import math
import random
import re
from bisect import bisect_right
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from careflow.covas import ACTIVITIES, covas_model
from careflow.errors import ConfigError, SimulationDeadlockError
from careflow.eventlog import EventLog
from careflow.petri import Marking, PetriNet, Transition
from careflow.replay import replay_log
from careflow.simulate import (DelaySpec, NoiseSpec, SimConfig, WaveSpec, _StepTable,
                               inject_noise, parse_config, simulate, write_config)
from careflow.xesio import write_xes
from helpers import (_oracle_groups, make_log, make_trace, oracle_simulate, paper_logs,
                     pick_weighted)

WAVE = WaveSpec(window_start=datetime(2020, 2, 1, tzinfo=timezone.utc),
                window_end=datetime(2020, 6, 30, tzinfo=timezone.utc),
                share=1.0)


def config(**overrides) -> SimConfig:
    base = dict(
        case_count=20,
        seed=42,
        waves=(WAVE,),
        branch_probabilities={"startSymptoms": 0.5, "endSymptoms": 0.5,
                              "ICUadmission": 0.5, "startVentilation": 0.5,
                              "startECMO": 0.5, "DischDead": 0.5},
        delays={"Start": DelaySpec("fixed", (0.0,)), "default": DelaySpec("lognormal", (24.0, 0.4))},
        ongoing_fraction=0.0,
        ards_probability=0.5,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_same_seed_same_log():
    net = covas_model()
    cfg = config()
    assert write_xes(simulate(cfg, net)) == write_xes(simulate(cfg, net))


def test_different_seed_differs():
    net = covas_model()
    assert write_xes(simulate(config(seed=1), net)) != write_xes(simulate(config(seed=2), net))


def test_shortest_path_when_all_skips_taken():
    cfg = config(case_count=1,
                 branch_probabilities={"startSymptoms": 0.0, "endSymptoms": 0.0,
                                       "ICUadmission": 0.0, "DischDead": 1.0})
    log = simulate(cfg, covas_model())
    assert len(log) == 1
    acts = log.traces[0].activities()
    assert acts == ("Start", "Hospitalization", "startOxygen", "endOxygen", "DischDead", "End")


def test_simulated_traces_replay_perfectly():
    net = covas_model()
    log = simulate(config(case_count=30), net)
    result = replay_log(net, log)
    assert result.log_fitness == 1.0
    assert all(r.fitness == 1.0 for r in result.per_trace)


def test_timestamps_strictly_increasing():
    log = simulate(config(case_count=50, seed=7), covas_model())
    for trace in log:
        stamps = [e.timestamp for e in trace.events]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))


def test_every_activity_is_a_model_label():
    net = covas_model()
    log = simulate(config(case_count=40, seed=3), net)
    assert set(log.activity_alphabet()) <= {t.label for t in net.transitions}


def test_admissions_fall_inside_wave_window():
    log = simulate(config(case_count=60, seed=9), covas_model())
    for trace in log:
        assert WAVE.window_start <= trace.start_time <= WAVE.window_end


def test_ongoing_fraction_truncates_and_flags():
    cfg = config(case_count=40, ongoing_fraction=0.25, seed=11)
    log = simulate(cfg, covas_model())
    ongoing = [t for t in log if not t.complete]
    assert len(ongoing) == 10
    for trace in ongoing:
        assert len(trace.events) >= 1
        assert trace.events[0].activity == "Start"
        assert trace.activities()[-1] != "End" or len(trace.events) == 1


def test_wave_allocation_is_config_forced():
    waves = (WaveSpec(WAVE.window_start, WAVE.window_end, share=133 / 196),
             WaveSpec(datetime(2020, 7, 1, tzinfo=timezone.utc),
                      datetime(2020, 12, 20, tzinfo=timezone.utc), share=63 / 196))
    cfg = config(case_count=216, ongoing_fraction=20 / 216, waves=waves, seed=5)
    log = simulate(cfg, covas_model())
    complete = [t for t in log if t.complete]
    split = datetime(2020, 7, 1, tzinfo=timezone.utc)
    first = [t for t in complete if t.start_time < split]
    assert len(log) == 216
    assert len(complete) == 196
    assert (len(first), len(complete) - len(first)) == (133, 63)


def test_branch_frequencies_converge():
    cfg = config(case_count=1200, seed=13,
                 branch_probabilities={"startSymptoms": 0.3, "endSymptoms": 0.5,
                                       "ICUadmission": 0.4, "startVentilation": 0.9,
                                       "startECMO": 0.2, "DischDead": 0.35})
    log = simulate(cfg, covas_model())
    n = len(log)
    took_symptoms = sum(1 for t in log if "startSymptoms" in t.activities())
    took_icu = sum(1 for t in log if "ICUadmission" in t.activities())
    died = sum(1 for t in log if "DischDead" in t.activities())
    for observed, p in ((took_symptoms, 0.3), (took_icu, 0.4), (died, 0.35)):
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(observed - n * p) <= 3 * sigma


def test_ards_attribute_assigned():
    log = simulate(config(case_count=200, ards_probability=0.7, seed=21), covas_model())
    share = sum(1 for t in log if t.attributes["ards"]) / len(log)
    assert 0.55 < share < 0.85


def test_deadlocking_net_raises():
    net = PetriNet(("p1", "p2", "p3"),
                   (Transition("A", "A"), Transition("B", "B")),
                   (("p1", "A"), ("A", "p2"), ("p2", "B"), ("p3", "B"), ("B", "p3")),
                   Marking({"p1": 1}), Marking({"p3": 1}))
    with pytest.raises(SimulationDeadlockError) as caught:
        simulate(config(case_count=1, branch_probabilities={}, delays={"default": DelaySpec("fixed", (1.0,))}), net)
    assert str(caught.value) == "simulation deadlocked at marking {'p2': 1}"


def test_case_that_never_ends_raises_at_the_step_limit():
    # a silent self-loop that always wins its choice: the case runs out of steps
    net = PetriNet(("p1", "p2"), (Transition("B", "B"), Transition("s", None)),
                   (("p1", "s"), ("s", "p1"), ("p1", "B"), ("B", "p2")),
                   Marking({"p1": 1}), Marking({"p2": 1}))
    cfg = config(case_count=1, branch_probabilities={"s": 1.0, "B": 0.0})
    with pytest.raises(SimulationDeadlockError) as caught:
        simulate(cfg, net)
    assert str(caught.value) == ("simulated case did not reach the final marking "
                                 "within 10000 steps")


def test_missing_delay_is_config_error():
    cfg = config(delays={"Start": DelaySpec("fixed", (0.0,))})
    with pytest.raises(ConfigError, match="no delay"):
        simulate(cfg, covas_model())


def test_noise_zero_is_identity():
    log = simulate(config(case_count=10), covas_model())
    assert inject_noise(log, NoiseSpec(0.0, 1)) == log


def test_noise_one_keeps_first_and_last():
    log = simulate(config(case_count=10, seed=17), covas_model())
    noisy = inject_noise(log, NoiseSpec(1.0, 1))
    for trace in noisy:
        assert len(trace.events) == 2
        assert trace.events[0].activity == "Start"
        assert trace.events[-1].activity == "End"


def test_noise_never_drops_start_end_markers():
    log = make_log(["Start", "A", "End"])
    noisy = inject_noise(log, NoiseSpec(1.0, 5))
    assert noisy.traces[0].activities() == ("Start", "End")


def test_noise_deterministic():
    log = simulate(config(case_count=15, seed=19), covas_model())
    spec = NoiseSpec(0.3, 77)
    assert inject_noise(log, spec) == inject_noise(log, spec)
    assert inject_noise(log, NoiseSpec(0.3, 78)) != inject_noise(log, spec)


def test_config_roundtrip():
    cfg = config(ongoing_fraction=0.1)
    noise = NoiseSpec(0.05, 9)
    text = write_config(cfg, noise)
    cfg2, noise2 = parse_config(text)
    assert cfg2 == cfg
    assert noise2 == noise


def test_config_parse_errors():
    with pytest.raises(ConfigError, match="config_version"):
        parse_config("case_count = 3\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("config_version = 1\nbogus line without equals\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("config_version = 1\nname = x\ncase_count = 1\nseed = 1\n"
                     "wave.1.window_start = 2020-01-01\nwave.1.window_end = 2020-02-01\n"
                     "wave.1.share = 1.0\ndelay.default = fixed 1\nmystery = 4\n")
    with pytest.raises(ConfigError, match="shares"):
        parse_config("config_version = 1\nname = x\ncase_count = 1\nseed = 1\n"
                     "wave.1.window_start = 2020-01-01\nwave.1.window_end = 2020-02-01\n"
                     "wave.1.share = 0.4\ndelay.default = fixed 1\n")


def test_simulated_log_has_unique_case_ids():
    log = simulate(config(case_count=25), covas_model())
    assert isinstance(log, EventLog)
    assert len({t.case_id for t in log}) == 25


def test_packaged_config_log_is_pinned():
    # sha256 of write_xes on the packaged config's clean log, recorded before
    # the simulator moved to the compiled net and its conflict-group memo
    clean, _ = paper_logs()
    digest = hashlib.sha256(write_xes(clean).encode()).hexdigest()
    assert digest == "b4a25c762c839b213c4875c51d62d627ffecaaf8c0d0c084f5f8b9dd45b15b0f"


def loop_net() -> PetriNet:
    """A silent loop back to A, an exit to the final place, and a dead end at D."""
    return PetriNet(("p1", "p2", "p3", "p4"),
                    (Transition("A", "A"), Transition("B", "B"), Transition("D", "D"),
                     Transition("s", None)),
                    (("p1", "A"), ("A", "p2"), ("p2", "s"), ("s", "p1"), ("p2", "B"),
                     ("B", "p3"), ("p2", "D"), ("D", "p4")),
                    Marking({"p1": 1}), Marking({"p3": 1}))


DELAY_SPECS = st.one_of(
    st.builds(lambda hours: DelaySpec("fixed", (hours,)), st.floats(0, 500)),
    st.builds(lambda low, width: DelaySpec("uniform", (low, low + width)),
              st.floats(0, 200), st.floats(0, 200)),
    st.builds(lambda mean, sigma: DelaySpec("lognormal", (mean, sigma)),
              st.floats(0.01, 400), st.floats(0, 1.5)),
)
PROBABILITIES = st.dictionaries(st.sampled_from(ACTIVITIES + ("s", "B", "D")),
                                st.floats(0, 1), max_size=6)


def _outcome(run, cfg, net):
    try:
        return run(cfg, net)
    except (ConfigError, SimulationDeadlockError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), case_count=st.integers(1, 30),
       delays=st.dictionaries(st.sampled_from(ACTIVITIES + ("A", "B")), DELAY_SPECS, max_size=5),
       default=DELAY_SPECS, scales=st.tuples(st.floats(0, 3), st.floats(0, 3)),
       ongoing=st.floats(0, 0.9), ards=st.floats(0, 1), probs=PROBABILITIES,
       mode=st.booleans(), loop=st.booleans())
def test_simulate_equals_the_step_by_step_oracle(seed, case_count, delays, default, scales,
                                                 ongoing, ards, probs, mode, loop):
    # the step table, the inlined generator and the per-activity delay draws change no
    # event; a config without a default delay, or a case that takes the loop net's dead
    # end, must fail the same way
    if seed % 4:
        delays = {**delays, "default": default}
    if loop:  # B keeps a share, so no case loops for ten thousand steps
        probs = {**probs, "s": min(probs.get("s", 0.5), 0.9), "B": max(probs.get("B", 0.1), 0.1)}
        if seed % 3:
            probs["D"] = 0.0
    waves = (WaveSpec(WAVE.window_start, WAVE.window_end, 0.6,
                      datetime(2020, 3, 20, tzinfo=timezone.utc) if mode else None,
                      60.0 if mode else 0.0, scales[0]),
             WaveSpec(datetime(2020, 7, 1, tzinfo=timezone.utc),
                      datetime(2020, 12, 15, tzinfo=timezone.utc), 0.4, delay_scale=scales[1]))
    net = loop_net() if loop else covas_model()
    ids = {t.id for t in net.transitions}  # a key that names no transition fails at once
    probs = {key: p for key, p in probs.items() if key in ids}
    cfg = config(seed=seed, case_count=case_count, delays=delays, waves=waves,
                 ongoing_fraction=ongoing, ards_probability=ards, branch_probabilities=probs)
    assert _outcome(simulate, cfg, net) == _outcome(oracle_simulate, cfg, net)


@pytest.mark.parametrize("delays", [{"Start": DelaySpec("fixed", (0.0,))}], ids=["no-default"])
def test_undefined_delays_fail_at_their_first_draw_like_the_oracle(delays):
    cfg = config(delays=delays)
    failure = _outcome(oracle_simulate, cfg, covas_model())
    # and leave no reference cycle, which an error kept in the step table makes once raised
    net = covas_model()
    gc.collect()
    gc.disable()
    try:
        outcome = _outcome(simulate, cfg, net)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert isinstance(failure, tuple) and outcome == failure


def test_an_activity_never_taken_needs_no_delay():
    # startSymptoms is enabled in every case but never chosen, so it draws no delay
    delays = {a: DelaySpec("fixed", (1.0,)) for a in ACTIVITIES if a != "startSymptoms"}
    cfg = config(delays=delays, branch_probabilities={"startSymptoms": 0.0})
    assert simulate(cfg, covas_model()) == oracle_simulate(cfg, covas_model())


def test_a_group_whose_weights_sum_to_0_fails_when_drawn_like_the_oracle():
    cfg = config(branch_probabilities={"DischDead": 0.0, "DischAlive": 0.0})
    outcome = _outcome(simulate, cfg, covas_model())
    assert outcome == (ConfigError, "the branch probabilities of DischAlive, DischDead sum to 0")
    assert outcome == _outcome(oracle_simulate, cfg, covas_model())


def test_a_probability_for_no_transition_fails_before_any_case_is_played():
    # a misspelled key would otherwise leave DischDead the unconfigured half; with no
    # delays at all, a played case would fail at its first draw instead
    probs = {**config().branch_probabilities, "DischDaed": 0.35}
    cfg = config(branch_probabilities=probs, delays={})
    outcome = _outcome(simulate, cfg, covas_model())
    assert outcome == (ConfigError, "probability for 'DischDaed' names no transition of the net")
    assert outcome == _outcome(oracle_simulate, cfg, covas_model())


def test_a_transition_alone_in_its_group_fires_at_weight_0():
    # only a group of two or more draws, so startOxygen's 0 never weighs
    cfg = config(branch_probabilities={"startOxygen": 0.0})
    log = simulate(cfg, covas_model())
    assert all("startOxygen" in trace.activities() for trace in log)
    assert log == oracle_simulate(cfg, covas_model())


class _Draw:
    """A stream whose one draw is ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def test_an_over_full_group_picks_by_bisection_as_by_linear_scan():
    # B and s weigh 1 + 1e-10, so the unconfigured D gets -1e-10 and the running sums dip
    # below B's; a draw between the dip and B's sum must still pick B
    probs = {"B": 0.5 + 1e-10, "s": 0.5}
    net = loop_net()
    table = _StepTable(net, config(branch_probabilities=probs))
    (((after_a, _, _),), _, _), = table.build(table.initial)
    (members, sums, total), = table.build(after_a)
    (tids, weights), = _oracle_groups(net, Marking({"p2": 1}), probs)
    assert [label or "s" for _, label, _ in members] == list(tids) and weights[1] < 0
    for u in (0.0, 0.25, 0.5, 0.5 + 5e-11, math.nextafter(sums[0] / total, 0), sums[0] / total,
              0.75, math.nextafter(1.0, 0)):
        pick = bisect_right(sums, u * total)
        assert min(pick, len(members) - 1) == pick_weighted(_Draw(u), weights), u
    assert pick_weighted(_Draw(0.5 + 5e-11), weights) == 0


FAR = datetime(9999, 12, 31, 23, 59, 57, tzinfo=timezone.utc)


@pytest.mark.parametrize("default, wave", [
    (DelaySpec("fixed", (1e8,)), WAVE),
    (DelaySpec("fixed", (1e300,)), WAVE),
    (DelaySpec("fixed", (1e308,)), replace(WAVE, delay_scale=3.0)),
    (DelaySpec("lognormal", (1.7e308, 0.1)), WAVE),
    (DelaySpec("fixed", (0.0,)), WaveSpec(FAR, FAR, 1.0)),
], ids=["past-datetime", "past-timedelta", "infinite-once-scaled", "lognormal",
        "a-second-past-the-last"])
def test_a_delay_past_the_year_9999_is_a_config_error_like_the_oracle(default, wave):
    cfg = config(delays={"default": default}, waves=(wave,))
    outcome = _outcome(simulate, cfg, covas_model())
    assert outcome[0] is ConfigError and outcome[1].endswith("case_01 past the year 9999")
    assert outcome == _outcome(oracle_simulate, cfg, covas_model())


def chain_net() -> PetriNet:
    """A, then B, then the final place."""
    return PetriNet(("p1", "p2", "p3"), (Transition("A", "A"), Transition("B", "B")),
                    (("p1", "A"), ("A", "p2"), ("p2", "B"), ("B", "p3")),
                    Marking({"p1": 1}), Marking({"p3": 1}))


# whole hours and an odd multiple of 1/2048 h: a whole number of microseconds and a half
HALF_MICROSECOND_TIES = st.builds(lambda hours, odd: hours + (2 * odd + 1) / 2048,
                                  st.integers(0, 10**5), st.integers(0, 1023))


@settings(max_examples=200, deadline=None)
@given(hours=st.floats(0, 10**6) | HALF_MICROSECOND_TIES)
@example(hours=1 / 2048)  # 1,757,812.5 us: a tie on an even total stays
@example(hours=3 / 2048)  # 5,273,437.5 us: a tie on an odd total goes up
def test_the_clock_rounds_each_delay_as_timedelta_does(hours):
    # B's delay brings A's, as timedelta rounds it, to a second and one more, or to 1 us
    # short of that; a clock that rounded A's delay 1 us off either way puts B a second off
    exact = timedelta(hours=hours) // timedelta(microseconds=1)
    admission = WAVE.window_start
    for short in (0, 1):
        rest = 1_000_000 + (-exact - short) % 1_000_000
        b_hours = rest / 3_600_000_000
        assert timedelta(hours=b_hours) == timedelta(microseconds=rest)
        delays = {"A": DelaySpec("fixed", (hours,)), "B": DelaySpec("fixed", (b_hours,))}
        cfg = config(case_count=1, waves=(WaveSpec(admission, admission, 1.0),), delays=delays,
                     branch_probabilities={})
        log = simulate(cfg, chain_net())
        (trace,) = log
        assert trace.events[1].timestamp - admission == timedelta(seconds=(exact + rest) // 10**6)
        assert log == oracle_simulate(cfg, chain_net())


START, END = WAVE.window_start, WAVE.window_end
SECOND = timedelta(seconds=1)
# id -> (a record that breaks one rule, the message it raises)
RULE_BREAKERS = {
    "window-order": (lambda: WaveSpec(END, START, 1.0), "window_end is before"),
    "delay-scale-negative": (lambda: WaveSpec(START, END, 1.0, delay_scale=-1.0), "delay_scale"),
    "delay-scale-nan": (lambda: WaveSpec(START, END, 1.0, delay_scale=math.nan), "delay_scale"),
    "delay-scale-inf": (lambda: WaveSpec(START, END, 1.0, delay_scale=math.inf), "delay_scale"),
    "spread-negative": (lambda: WaveSpec(START, END, 1.0, START, -5.0), "spread_hours must"),
    "spread-nan": (lambda: WaveSpec(START, END, 1.0, START, math.nan), "spread_hours must"),
    "spread-inf": (lambda: WaveSpec(START, END, 1.0, START, math.inf), "spread_hours must"),
    "spread-without-mode": (lambda: WaveSpec(START, END, 1.0, admission_spread_hours=24.0),
                            "without admission_mode"),
    "mode-before-window": (lambda: WaveSpec(START, END, 1.0, START - SECOND), "outside"),
    "mode-after-window": (lambda: WaveSpec(START, END, 1.0, END + SECOND), "outside"),
    "share-above-one": (lambda: WaveSpec(START, END, 1.5), "share must be in"),
    "share-negative": (lambda: WaveSpec(START, END, -0.5), "share must be in"),
    "share-nan": (lambda: WaveSpec(START, END, math.nan), "share must be in"),
    "unknown-kind": (lambda: DelaySpec("gamma", (1.0, 1.0)), "kind 'gamma'"),
    "fixed-two-params": (lambda: DelaySpec("fixed", (1.0, 2.0)), "parameter count 2"),
    "uniform-one-param": (lambda: DelaySpec("uniform", (1.0,)), "parameter count 1"),
    "lognormal-no-params": (lambda: DelaySpec("lognormal", ()), "parameter count 0"),
    "fixed-negative": (lambda: DelaySpec("fixed", (-30.0,)), "negative delay"),
    "fixed-nan": (lambda: DelaySpec("fixed", (math.nan,)), "negative delay"),
    "fixed-inf": (lambda: DelaySpec("fixed", (math.inf,)), "negative delay"),
    "uniform-negative-low": (lambda: DelaySpec("uniform", (-1.0, 1.0)), "negative delay"),
    "uniform-inf-high": (lambda: DelaySpec("uniform", (1.0, math.inf)), "negative delay"),
    "lognormal-nan-sigma": (lambda: DelaySpec("lognormal", (24.0, math.nan)), "negative delay"),
    "lognormal-negative-sigma": (lambda: DelaySpec("lognormal", (24.0, -0.5)), "negative delay"),
    "lognormal-zero-mean": (lambda: DelaySpec("lognormal", (0.0, 0.5)), "negative delay"),
    "lognormal-negative-mean": (lambda: DelaySpec("lognormal", (-1.0, 0.5)), "negative delay"),
    "uniform-reversed": (lambda: DelaySpec("uniform", (9.0, 1.0)), "negative delay"),
    # a reversed window with a negative delay scale, a reversed range and a negative delay
    "all-at-once": (lambda: SimConfig(5, 1, (WaveSpec(datetime(2020, 1, 1, tzinfo=timezone.utc),
                                                      datetime(2019, 1, 1, tzinfo=timezone.utc),
                                                      1.0, delay_scale=-1.0),), {},
                                      {"default": DelaySpec("uniform", (9.0, 1.0)),
                                       "Start": DelaySpec("fixed", (-30.0,))}),
                    "window_end is before"),
}


@pytest.mark.parametrize("rule", RULE_BREAKERS)
def test_a_spec_that_breaks_a_rule_cannot_be_built(rule):
    build, message = RULE_BREAKERS[rule]
    with pytest.raises(ConfigError, match=message):
        build()


def test_specs_on_the_edge_of_a_rule_are_valid():
    WaveSpec(START, START, 1.0, START, 0.0, 0.0)
    WaveSpec(START, END, 1.0, END, 0.0)
    WaveSpec(START, END, 0.0)
    for kind, params in (("fixed", (0.0,)), ("uniform", (2.0, 2.0)), ("lognormal", (1e-9, 0.0))):
        DelaySpec(kind, params)


def test_packaged_config_round_trips_byte_identically():
    text = (resources.files("careflow") / "data" / "covas_desk.config").read_text(encoding="utf-8")
    assert write_config(*parse_config(text)) == text


INSTANTS = st.datetimes(datetime(1990, 1, 1), datetime(2050, 1, 1), timezones=st.just(timezone.utc))
LABELS = st.from_regex(r"[A-Za-z][A-Za-z0-9_:]*", fullmatch=True)
# any text, text made mostly of what the config format reads specially, and one such
# character between two letters
TEXTS = (st.text() | st.text("#=:aZ.") | st.text(" \t\r\n\x0b\x85\u2028aZ")
         | st.from_regex(r"a[\s#=]Z", fullmatch=True))


@st.composite
def wave_specs(draw, share: float) -> WaveSpec:
    start = draw(INSTANTS)
    end = start + draw(st.timedeltas(timedelta(0), timedelta(days=500)))
    if draw(st.booleans()):
        mode = start + draw(st.timedeltas(timedelta(0), end - start))
        spread = draw(st.floats(0, 1e6))
    else:
        mode, spread = None, 0.0
    return WaveSpec(start, end, share, mode, spread, draw(st.floats(0, 10)))


@st.composite
def sim_configs(draw) -> SimConfig:
    weights = draw(st.lists(st.floats(0.01, 1), min_size=1, max_size=3))
    waves = tuple(draw(wave_specs(w / sum(weights))) for w in weights)
    return SimConfig(draw(st.integers(1, 10**6)), draw(st.integers(0, 2**64 - 1)), waves,
                     draw(st.dictionaries(LABELS | TEXTS, st.floats(0, 1), max_size=4)),
                     draw(st.dictionaries(LABELS | TEXTS | st.just("default"), DELAY_SPECS,
                                          max_size=4)),
                     draw(st.floats(0, 1, exclude_max=True)), draw(st.floats(0, 1)),
                     draw(st.from_regex(r"[A-Za-z0-9_.:-]*", fullmatch=True) | TEXTS))


@settings(max_examples=150, deadline=None)
@given(sim_configs(), st.none() | st.builds(NoiseSpec, st.floats(0, 1), st.integers(0, 2**32)))
def test_written_configs_parse_back(config, noise):
    try:
        text = write_config(config, noise)
    except ConfigError:
        return  # text the parser would read back differently; see the test below
    assert parse_config(text) == (config, noise)


@pytest.mark.parametrize("name, tid, label, named", [
    ("ward #3", "t", "A", "name 'ward #3'"),
    ("ward", "x#y", "A", "transition id 'x#y'"),
    ("ward", "t", "a=b", "activity label 'a=b'"),
    ("ward", "t=1", "A", "transition id 't=1'"),
    ("ward\u20283", "t", "A", "name 'ward\\u20283'"),
    ("ward", "t", "A\x1cB", "activity label 'A\\x1cB'"),
    (" ward", "t", "A", "name ' ward'"),
    ("ward", "t", "A\n", "activity label 'A\\n'"),
], ids=["name-hash", "tid-hash", "label-equals", "tid-equals", "name-line-separator",
        "label-file-separator", "name-leading-space", "label-trailing-newline"])
def test_write_config_refuses_text_it_would_read_back_differently(name, tid, label, named):
    cfg = config(name=name, branch_probabilities={tid: 0.5},
                 delays={label: DelaySpec("fixed", (1.0,))})
    with pytest.raises(ConfigError, match=re.escape(named)):
        write_config(cfg)


def test_written_text_may_hold_what_reads_back_the_same():
    # '=' inside a value and inner spaces survive; only keys end at their first '='
    cfg = config(name="ward = 3 (east)", branch_probabilities={"t 1": 0.5},
                 delays={"A b:c": DelaySpec("fixed", (1.0,))})
    assert parse_config(write_config(cfg)) == (cfg, None)
