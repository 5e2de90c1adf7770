#!/usr/bin/env python3
"""Derive the packaged covas_desk.config: the desk-scale simulation whose
headline numbers match the case study's published aggregates.

Targets:
  - 216 cases, 20 ongoing, complete cases split 133/63 at 2020-07-01 (forced
    by the allocator, no tuning needed)
  - 1645 events in total (tuned via branch probabilities; the control-flow
    paths depend only on the path substream, so scanning a probability moves
    one case at a time)
  - wave mean case durations of exactly 33d 06h and 23d 01h (delay draws are
    linear in the configured means, so per-wave delay scales hit these to the
    second)
  - ventilation occupancy peaking at exactly 39 on 2020-04-13 (tuned via the
    wave-1 admission spread and mode, which never touch durations or paths)
  - a noise drop rate under which token replay fitness lands on 0.98

Run:  python3 scripts/calibrate_desk_config.py
Writes src/careflow/data/covas_desk.config, the one copy of the config; the
CLI finds it by its bare name (``careflow simulate --config covas_desk.config``).
"""

import sys
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from careflow.analytics import occupancy
from careflow.covas import covas_model
from careflow.eventlog import filter_complete, split_by_time
from careflow.replay import replay_log
from careflow.simulate import (DelaySpec, NoiseSpec, SimConfig, WaveSpec, inject_noise,
                               simulate, write_config)

UTC = timezone.utc
SPLIT = datetime(2020, 7, 1, tzinfo=UTC)
TARGET_EVENTS = 1645
TARGET_WAVE1_H = 33 * 24 + 6   # 33d 6h
TARGET_WAVE2_H = 23 * 24 + 1   # 23d 1h
TARGET_PEAK = 39
TARGET_PEAK_DAY = datetime(2020, 4, 13, tzinfo=UTC).date()
TARGET_FITNESS = 0.98

NET = covas_model()


def base_config(seed: int) -> SimConfig:
    waves = (
        WaveSpec(window_start=datetime(2020, 2, 15, tzinfo=UTC),
                 window_end=datetime(2020, 6, 30, 23, 59, tzinfo=UTC),
                 share=133 / 196,
                 admission_mode=datetime(2020, 3, 26, tzinfo=UTC),
                 admission_spread_hours=200.0),
        WaveSpec(window_start=datetime(2020, 7, 1, tzinfo=UTC),
                 window_end=datetime(2020, 12, 15, tzinfo=UTC),
                 share=63 / 196,
                 admission_mode=datetime(2020, 10, 20, tzinfo=UTC),
                 admission_spread_hours=760.0),
    )
    delays = {
        "Start": DelaySpec("fixed", (0.0,)),
        "startSymptoms": DelaySpec("lognormal", (30.0, 0.5)),
        "Hospitalization": DelaySpec("lognormal", (26.0, 0.5)),
        "startOxygen": DelaySpec("lognormal", (14.0, 0.5)),
        "endOxygen": DelaySpec("lognormal", (380.0, 0.4)),
        "endSymptoms": DelaySpec("lognormal", (110.0, 0.5)),
        "ICUadmission": DelaySpec("lognormal", (26.0, 0.5)),
        "startVentilation": DelaySpec("lognormal", (30.0, 0.5)),
        "startECMO": DelaySpec("lognormal", (24.0, 0.5)),
        "endECMO": DelaySpec("lognormal", (150.0, 0.4)),
        "endVentilation": DelaySpec("lognormal", (430.0, 0.35)),
        "ICUdischarge": DelaySpec("lognormal", (44.0, 0.5)),
        "DischDead": DelaySpec("lognormal", (100.0, 0.5)),
        "DischAlive": DelaySpec("lognormal", (100.0, 0.5)),
        "End": DelaySpec("lognormal", (6.0, 0.5)),
    }
    probs = {"startSymptoms": 0.25, "endSymptoms": 0.12, "ICUadmission": 0.42,
             "startVentilation": 0.92, "startECMO": 0.22, "DischDead": 0.35}
    return SimConfig(case_count=216, seed=seed, waves=waves,
                     branch_probabilities=probs, delays=delays,
                     ongoing_fraction=20 / 216, ards_probability=0.62,
                     name="covas-desk")


def measure(cfg: SimConfig):
    log = simulate(cfg, NET)
    wave1, wave2 = split_by_time(filter_complete(log), SPLIT)

    def mean_hours(part):
        durs = [t.duration for t in part]
        return sum(durs, timedelta()).total_seconds() / 3600 / len(durs)

    occ = occupancy(log, "startVentilation", "endVentilation")
    vent1 = sum(1 for t in wave1 if "startVentilation" in t.activities())
    return {
        "log": log,
        "events": log.event_count,
        "wave_counts": (len(wave1), len(wave2)),
        "mean1": mean_hours(wave1),
        "mean2": mean_hours(wave2),
        "peak": occ.peak,
        "vent1": vent1,
    }


def with_prob(cfg: SimConfig, key: str, value: float) -> SimConfig:
    probs = dict(cfg.branch_probabilities)
    probs[key] = value
    return replace(cfg, branch_probabilities=probs)


def tune_events(cfg: SimConfig) -> SimConfig | None:
    """Scan startSymptoms/endSymptoms probabilities until the event total is exact."""
    for key in ("startSymptoms", "endSymptoms"):
        lo, hi = 0.02, 0.60
        best = None
        for step in range(0, 117):
            p = lo + step * (hi - lo) / 116
            candidate = with_prob(cfg, key, p)
            events = measure(candidate)["events"]
            if events == TARGET_EVENTS:
                return candidate
            if best is None or abs(events - TARGET_EVENTS) < best[0]:
                best = (abs(events - TARGET_EVENTS), candidate)
        cfg = best[1]  # carry the closest value into the next knob
    return None


def set_duration_scales(cfg: SimConfig) -> SimConfig:
    """Exact per-wave delay scales: durations are linear in the scale."""
    unscaled = replace(cfg, waves=tuple(replace(w, delay_scale=1.0) for w in cfg.waves))
    m = measure(unscaled)
    scales = (TARGET_WAVE1_H / m["mean1"], TARGET_WAVE2_H / m["mean2"])
    waves = tuple(replace(w, delay_scale=s) for w, s in zip(cfg.waves, scales))
    return replace(cfg, waves=waves)


def with_wave1(cfg: SimConfig, **kw) -> SimConfig:
    waves = (replace(cfg.waves[0], **kw),) + cfg.waves[1:]
    return replace(cfg, waves=waves)


def tune_peak(cfg: SimConfig) -> SimConfig | None:
    """Find an admission spread with peak exactly 39, then aim it at April 13."""
    plateau = []
    for spread in range(40, 400, 10):
        m = measure(with_wave1(cfg, admission_spread_hours=float(spread)))
        if m["peak"] and m["peak"][1] == TARGET_PEAK:
            plateau.append(spread)
    if not plateau:
        return None
    spread = float(plateau[len(plateau) // 2])
    cfg = with_wave1(cfg, admission_spread_hours=spread)

    for _ in range(6):  # slide the mode until the peak lands on the target day
        m = measure(cfg)
        peak_day = m["peak"][0].date()
        if m["peak"][1] != TARGET_PEAK:
            return None
        offset = (TARGET_PEAK_DAY - peak_day).days
        if offset == 0:
            return cfg
        mode = cfg.waves[0].admission_mode + timedelta(days=offset)
        cfg = with_wave1(cfg, admission_mode=mode)
    return None


def tune_noise(cfg: SimConfig) -> NoiseSpec | None:
    log = simulate(cfg, NET)

    def fitness(p: float, seed: int) -> float:
        noisy = inject_noise(log, NoiseSpec(p, seed))
        return replay_log(NET, noisy).log_fitness

    for noise_seed in range(1, 20):
        lo, hi = 0.0, 0.15
        for _ in range(28):
            mid = (lo + hi) / 2
            if fitness(mid, noise_seed) > TARGET_FITNESS:
                lo = mid
            else:
                hi = mid
        p = (lo + hi) / 2
        f = fitness(p, noise_seed)
        if abs(f - TARGET_FITNESS) <= 0.002:
            return NoiseSpec(round(p, 6), noise_seed)
    return None


def main():
    for seed in range(1, 40):
        cfg = base_config(seed)
        m = measure(cfg)
        print(f"seed {seed}: events {m['events']}, vent1 {m['vent1']}, "
              f"peak {m['peak'][1] if m['peak'] else 0}")
        if not 30 <= m["vent1"] <= 60:
            continue
        cfg = tune_events(cfg)
        if cfg is None:
            print("  could not hit the exact event total; next seed")
            continue
        cfg = set_duration_scales(cfg)
        cfg = tune_peak(cfg)
        if cfg is None:
            print("  could not place the occupancy peak; next seed")
            continue
        noise = tune_noise(cfg)
        if noise is None:
            print("  could not calibrate the noise rate; next seed")
            continue

        m = measure(cfg)
        noisy = inject_noise(m["log"], noise)
        fit = replay_log(NET, noisy).log_fitness
        print(f"  final: events {m['events']}, waves {m['wave_counts']}, "
              f"means {m['mean1']:.2f}/{m['mean2']:.2f} h, peak {m['peak']}, "
              f"noisy fitness {fit:.4f}")
        ok = (m["events"] == TARGET_EVENTS
              and m["wave_counts"] == (133, 63)
              and abs(m["mean1"] - TARGET_WAVE1_H) <= 12
              and abs(m["mean2"] - TARGET_WAVE2_H) <= 12
              and m["peak"][1] == TARGET_PEAK
              and m["peak"][0].date() == TARGET_PEAK_DAY
              and abs(fit - TARGET_FITNESS) <= 0.01)
        if not ok:
            print("  verification failed; next seed")
            continue

        out = SRC / "careflow" / "data" / "covas_desk.config"
        out.write_text(write_config(cfg, noise), encoding="utf-8")
        print(f"  wrote {out}")
        return 0
    print("calibration failed for all seeds tried")
    return 1


if __name__ == "__main__":
    sys.exit(main())
