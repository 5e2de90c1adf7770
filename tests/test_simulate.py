import hashlib
import math
import random
from datetime import datetime, timezone

import pytest

from careflow.covas import covas_model
from careflow.errors import ConfigError, SimulationDeadlockError
from careflow.eventlog import EventLog
from careflow.petri import Marking, PetriNet, Transition
from careflow.replay import replay_log
from careflow.simulate import (DelaySpec, NoiseSpec, SimConfig, WaveSpec, inject_noise,
                               parse_config, simulate, write_config)
from careflow.xesio import write_xes
from helpers import make_log, make_trace, paper_logs

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
    assert set(log.activity_alphabet()) <= set(net.labels())


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
    with pytest.raises(SimulationDeadlockError):
        simulate(config(case_count=1, branch_probabilities={}, delays={"default": DelaySpec("fixed", (1.0,))}), net)


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
