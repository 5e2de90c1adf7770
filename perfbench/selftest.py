"""Proof that the output checks bite: corrupted outputs must be reported.

Runs each workload at a small size, checks that the untouched outputs pass,
then corrupts one output at a time and checks that a failure is reported.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from careflow.eventlog import EventLog

from spec import spec_failures, spec_facts
from workloads import DEFAULT_SEED, Calibrate, Ingest, PaperNoisy, golden_failures


def _edit_file(path: str, edit) -> str:
    """Apply ``edit`` to a file's text; returns the original text."""
    original = Path(path).read_text(encoding="utf-8")
    Path(path).write_text(edit(original), encoding="utf-8", newline="")
    return original


def self_test(workdir: Path) -> list[str]:
    """Names of the cases where a check missed a corruption or failed clean output."""
    misses = []

    def expect(label: str, failures: list[str], should_fail: bool = True):
        if bool(failures) != should_fail:
            misses.append(label)
        print(f"self-test {'ok  ' if bool(failures) == should_fail else 'MISS'} {label}")

    paper = PaperNoisy(factor=1)
    state = paper.setup(DEFAULT_SEED, workdir)
    result = paper.run(state)
    expect("paper: clean outputs pass", paper.check(state, result), should_fail=False)
    recorded = paper.digests(state, result)
    expect("paper: digests reproduce", golden_failures(recorded, recorded), should_fail=False)

    code, stdout = result["replay"]
    counters = json.loads(stdout[stdout.find("{"):])
    counters["missing"] += 1
    expect("paper: replay --json missing counter +1",
           paper.check(state, dict(result, replay=(code, json.dumps(counters)))))
    expect("paper: a step exits 2", paper.check(state, dict(result, dfg=(2, ""))))

    original = _edit_file(state.paths["clean.csv"],
                          lambda text: "".join(text.splitlines(True)[:3] + text.splitlines(True)[4:]))
    expect("paper: one event dropped from clean.csv", paper.check(state, result))
    Path(state.paths["clean.csv"]).write_text(original, encoding="utf-8", newline="")

    def bump_remaining(text):
        lines = text.splitlines(True)
        cells = lines[1].split(",")
        cells[4] = str(int(cells[4]) + 1)
        return "".join(lines[:1] + [",".join(cells)] + lines[2:])
    original = _edit_file(state.paths["replay.csv"], bump_remaining)
    expect("paper: one per-trace remaining counter +1", paper.check(state, result))
    Path(state.paths["replay.csv"]).write_text(original, encoding="utf-8", newline="")

    original = _edit_file(state.paths["replay.txt"], lambda text: text + "extra line\n")
    expect("paper: report differs from the recorded digest",
           golden_failures(recorded, paper.digests(state, result)))
    Path(state.paths["replay.txt"]).write_text(original, encoding="utf-8", newline="")
    expect("paper: restored outputs pass again", paper.check(state, result), should_fail=False)

    ingest = Ingest(factor=1)
    state = ingest.setup(DEFAULT_SEED, workdir)
    result = ingest.run(state)
    expect("ingest: clean outputs pass", ingest.check(state, result), should_fail=False)
    log = result["log"]
    first = log.traces[0]
    dropped = EventLog((replace(first, events=first.events[:-1]),) + log.traces[1:],
                       name=log.name, attributes=log.attributes)
    expect("ingest: one event dropped after XES parse", ingest.check(state, dict(result, log=dropped)))
    recorded = ingest.digests(state, result)
    expect("ingest: CSV text differs from the recorded digest",
           golden_failures(recorded, ingest.digests(state, dict(result, csv=result["csv"] + "\r\n"))))

    calibrate = Calibrate(scan_steps=2, noise_seeds=1, bisect_steps=2)
    state = calibrate.setup(DEFAULT_SEED, workdir)
    result = calibrate.run(state)
    expect("calibrate: clean outputs pass", calibrate.check(state, result), should_fail=False)
    scan = [dict(result["scan"][0], events=result["scan"][0]["events"] + 1)] + result["scan"][1:]
    expect("calibrate: one measured event count +1", calibrate.check(state, dict(result, scan=scan)))
    noise_seed, mid, noisy, replayed = result["bisect"][0]
    bisect = [(noise_seed, mid, noisy, replace(replayed, consumed=replayed.consumed + 1))]
    bisect += result["bisect"][1:]
    expect("calibrate: one replay aggregate +1", calibrate.check(state, dict(result, bisect=bisect)))

    facts = spec_facts()
    expect("spec: packaged config matches the paper", spec_failures(facts), should_fail=False)
    expect("spec: peak 38", spec_failures(dict(facts, peak=38)))
    expect("spec: wave 2 mean one hour short",
           spec_failures(dict(facts, wave_mean_s=[facts["wave_mean_s"][0],
                                                  facts["wave_mean_s"][1] - 3600])))
    expect("spec: noisy fitness 0.97", spec_failures(dict(facts, noisy_fitness=0.97)))
    return misses
