#!/usr/bin/env python3
"""careflow's benchmark: one workload per invocation, timed from outside the library.

    python3 perfbench/run.py --workload paper-noisy-10x --seed 4 --seconds 25 --trace 0

prints every end-to-end metric by name and unit, the run's provenance, and
as its last line one JSON object {correct, attempted, failed, metrics}.
Without ``--workload`` it runs every workload in turn, each in its own process.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics instead. ``--check`` runs each workload once, untimed, with
every output check; ``--self-test`` proves that the checks catch corrupted
outputs. The exit code is 0 only when every check passed. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# setup_s is the median of SETUPS set-ups spread over the run: one before the first
# iteration, one after each following iteration, the rest after the last. Spread
# out, they see the same drift in host speed as the iterations; on a shared 2-vCPU
# host their median varied less from run to run than that of back-to-back set-ups.
SETUPS = 3
MIN_ITERATIONS = 2


def _require_checkout():
    for need in ("src/careflow/cli.py", "scripts/calibrate_desk_config.py"):
        if not (ROOT / need).is_file():
            sys.exit(f"perfbench: {need} not found; run from the root of a careflow checkout")
    sys.path.insert(0, str(ROOT / "src"))


@contextmanager
def scratch_dir():
    """A directory for written outputs inside the checkout, removed afterwards."""
    path = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def git_sha() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def provenance(workload: str, seed: int, inputs: dict) -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "workload": workload, "seed": seed, "inputs": inputs}


def reset_peak_rss() -> bool:
    """Reset the process's resident-memory high-water mark (Linux); False if not possible."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """The resident-memory high-water mark (VmHWM) since the last reset, in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def measure(wl, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up several times spread over the run; iterate for about ``seconds`` seconds."""
    import spec
    import tracing
    import workloads

    golden = workloads.load_golden()
    started = perf_counter()
    spec_problems = spec.spec_failures(spec.spec_facts())
    spec_s = perf_counter() - started

    setup_times = []

    def set_up():
        gc.collect()
        started = perf_counter()
        fresh = wl.setup(seed, workdir)
        setup_times.append(perf_counter() - started)
        return fresh

    state = set_up()
    more_setups = not trace  # setup_s is not reported when tracing
    tracer = tracing.Tracer() if trace else None
    # peak_rss_mb covers the timed calls only, not the checks, digests and set-ups around them
    timed_peak = reset_peak_rss()
    untraced, traced, peaks, problems, failed, events = [], [], [], [], 0, None
    loop_start, loop_setup_s = perf_counter(), 0.0
    while True:
        traced_turn = trace and len(untraced) > len(traced)
        gc.collect()
        if traced_turn:
            tracer.install()
        elif timed_peak:
            reset_peak_rss()
        started = perf_counter()
        try:
            result, error = wl.run(state), None
        except Exception as exc:  # a crashing iteration is a failed one, not the end of the run
            result, error = None, exc
        finally:
            elapsed = perf_counter() - started
            if traced_turn:
                tracer.uninstall()
            elif timed_peak:
                peaks.append(peak_rss_mb())
        (traced if traced_turn else untraced).append(elapsed)
        if error is not None:
            failures = [f"{type(error).__name__}: {error}"]
        else:
            failures = workloads.iteration_failures(wl, seed, state, result, golden)
        if failures:
            failed += 1
            problems += failures[:5]
        if result is not None:
            events = wl.events(state, result)
        result = None
        if more_setups and len(setup_times) < SETUPS:
            started = perf_counter()
            state = None
            state = set_up()
            loop_setup_s += perf_counter() - started
        attempts = len(untraced) + len(traced)
        spent = perf_counter() - loop_start - loop_setup_s
        if attempts >= MIN_ITERATIONS and spent + spent / attempts > seconds:
            break
    while more_setups and len(setup_times) < SETUPS:
        state = None
        state = set_up()

    run_s = median(untraced)
    end_to_end = {
        "run_s": (run_s, "s"),
        "events_per_s": ((events or 0) / run_s, "1/s"),
        "peak_rss_mb": (max(peaks) if timed_peak
                        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (median(setup_times), "s"),
    }
    return {
        "attempted": attempts, "failed": failed, "problems": spec_problems + problems,
        "spec_ok": not spec_problems, "spec_s": spec_s, "events": events,
        "timed_peak": timed_peak, "setup_times": setup_times,
        "replay_failed": tracer.counts["replay.failed"] / len(traced) if trace else None,
        "samples": {"untraced": len(untraced), "traced": len(traced), "setup": len(setup_times)},
        "inputs": wl.inputs(state),
        "end_to_end": end_to_end,
        "per_layer": tracing.layer_metrics(tracer, traced, untraced) if trace else None,
    }


def timed_run(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    with scratch_dir() as workdir:
        out = measure(wl, args.seed, args.seconds, bool(args.trace), workdir)

    for problem in out["problems"]:
        print(f"FAILED: {problem}")
    samples = out["samples"]
    print(f"workload {wl.name}, seed {args.seed}: {out['events']} input events per iteration; "
          f"{samples['untraced']} untraced and {samples['traced']} traced iterations, "
          f"{samples['setup']} set-ups; paper spec check "
          f"{'passed' if out['spec_ok'] else 'FAILED'} in {out['spec_s']:.2f} s")
    print("  set-up times " + " ".join(f"{t:.4f}" for t in out["setup_times"]) + " s")
    if not out["timed_peak"]:
        print("  peak_rss_mb is the whole process's peak: the high-water mark cannot be reset here")
    for name, (value, unit) in out["end_to_end"].items():
        print(f"  {name:<14} {value:>14.4f} {unit}")
    print(f"  {'error_rate':<14} {out['failed'] / out['attempted']:>14.4f} "
          f"({out['failed']} of {out['attempted']} iterations failed)")
    if out["per_layer"]:
        for name, (value, unit) in out["per_layer"].items():
            print(f"  {name:<22} {value:>14.6f} {unit}")
        # a replay call that raises also fails its iteration, so failed/attempted carry it
        print(f"  {'replay.failed':<22} {out['replay_failed']:>14.6f} count (printed only)")
    print("provenance " + json.dumps(provenance(wl.name, args.seed, out["inputs"])))

    shown = out["per_layer"] if args.trace else out["end_to_end"]
    correct = out["spec_ok"] and out["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in shown.items()}}))
    return 0 if correct else 1


def timed_run_all(args) -> int:
    """Every workload in turn, each in a process of its own."""
    import workloads

    codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                             "--seed", str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)], cwd=ROOT).returncode
             for name in workloads.WORKLOADS]
    return max(codes)


def check_run(args) -> int:
    """Untimed: every selected workload once, with every check, plus the spec check."""
    import spec
    import workloads

    golden = workloads.load_golden()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    problems = spec.spec_failures(spec.spec_facts())
    print(f"spec: {'ok' if not problems else '; '.join(problems)}")
    with scratch_dir() as workdir:
        for name in names:
            wl = workloads.WORKLOADS[name]
            state = wl.setup(args.seed, workdir)
            failures = workloads.iteration_failures(wl, args.seed, state, wl.run(state), golden)
            print(f"{name}: {'ok' if not failures else '; '.join(failures)}")
            problems += failures
    return 0 if not problems else 1


def self_test_run(args) -> int:
    import selftest

    with scratch_dir() as workdir:
        misses = selftest.self_test(workdir)
    print(f"self-test: {'all checks bite' if not misses else f'{len(misses)} cases missed'}")
    return 0 if not misses else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        help="paper-noisy-10x, ingest-50x or calibrate-1x (default: each in turn)")
    parser.add_argument("--seed", type=int, default=4,
                        help="workload seed (default 4, the packaged config's)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per run (default 25, BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced iterations")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="untimed check-only run")
    mode.add_argument("--self-test", action="store_true", help="prove the checks bite")
    args = parser.parse_args(argv)
    _require_checkout()
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.self_test:
        return self_test_run(args)
    if args.check:
        return check_run(args)
    return timed_run(args) if args.workload else timed_run_all(args)


if __name__ == "__main__":
    sys.exit(main())
