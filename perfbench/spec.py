"""The case study's published aggregates, checked on the packaged 1x config.

The paper (arXiv 2202.04625) is the independent reference: 216 cases and
1,645 events; 133/63 complete cases before and after 2020-07-01; wave mean
case durations of 33d 06h and 23d 01h; a ventilation peak of 39 patients on
2020-04-13; and token-replay fitness 0.98 on the noisy log.
"""

from __future__ import annotations

from careflow import analytics, replay, simulate
from careflow.covas import covas_model

from workloads import SPLIT_INSTANT, packaged_config

HOUR = 3600
EXPECTED = {
    "cases": 216,
    "events": 1645,
    "wave_cases": [133, 63],
    "peak": 39,
    "peak_day": "2020-04-13",
}
WAVE_MEAN_S = (33 * 24 * HOUR + 6 * HOUR, 23 * 24 * HOUR + 1 * HOUR)
WAVE_MEAN_TOLERANCE_S = HOUR / 2  # the paper gives the means to the hour
FITNESS = 0.98
FITNESS_TOLERANCE = 0.005  # the paper gives two decimals


def spec_facts() -> dict:
    """The paper's figures as the packaged config reproduces them."""
    config, noise = simulate.parse_config(packaged_config())
    net = covas_model()
    log = simulate.simulate(config, net)
    waves = analytics.compare_waves(log, SPLIT_INSTANT)
    peak_at, peak = analytics.occupancy(log, "startVentilation", "endVentilation").peak
    noisy = simulate.inject_noise(log, noise)
    return {
        "cases": len(log),
        "events": log.event_count,
        "wave_cases": [w.case_count for w in (waves.first, waves.second)],
        "wave_mean_s": [w.mean_case_duration.total_seconds() for w in (waves.first, waves.second)],
        "peak": peak,
        "peak_day": peak_at.date().isoformat(),
        "noisy_fitness": replay.replay_log(net, noisy).log_fitness,
    }


def spec_failures(facts: dict) -> list[str]:
    out = [f"spec {key}: {facts[key]!r}, paper {want!r}"
           for key, want in EXPECTED.items() if facts[key] != want]
    for wave, (got, want) in enumerate(zip(facts["wave_mean_s"], WAVE_MEAN_S), start=1):
        if abs(got - want) > WAVE_MEAN_TOLERANCE_S:
            out.append(f"spec wave {wave} mean: {got:.0f} s, paper {want} s "
                       f"+/- {WAVE_MEAN_TOLERANCE_S:.0f} s")
    if abs(facts["noisy_fitness"] - FITNESS) > FITNESS_TOLERANCE:
        out.append(f"spec noisy fitness: {facts['noisy_fitness']:.4f}, paper {FITNESS}")
    return out
