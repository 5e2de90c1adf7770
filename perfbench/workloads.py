"""The benchmark's three workloads: set-up, one timed iteration, output checks.

Each workload builds its inputs from the workload seed alone. ``check``
returns the failures that hold on any seed; ``digests`` returns the values
that must equal ``golden.json`` at the default seed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

from careflow import analytics, cli, csvio, dfg, eventlog, simulate, xesio
from careflow.covas import covas_model

ROOT = Path(__file__).resolve().parent.parent
CALIBRATE_SCRIPT = ROOT / "scripts" / "calibrate_desk_config.py"
GOLDEN = Path(__file__).with_name("golden.json")
DEFAULT_SEED = 4  # the packaged config's seed
SPLIT = "2020-07-01"
SPLIT_INSTANT = datetime(2020, 7, 1, tzinfo=timezone.utc)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def packaged_config() -> str:
    return (Path(simulate.__file__).parent / "data" / "covas_desk.config").read_text("utf-8")


def scaled_config(seed: int, factor: int):
    """The packaged config at ``factor`` times its case count, under ``seed``."""
    config, noise = simulate.parse_config(packaged_config())
    text = simulate.write_config(replace(config, case_count=config.case_count * factor,
                                         seed=seed), noise)
    config, noise = simulate.parse_config(text)
    return text, config, noise


def fitness(produced: int, consumed: int, missing: int, remaining: int) -> float:
    """Token-replay fitness, recomputed here as an independent check."""
    miss = 1.0 - missing / consumed if consumed else 1.0
    rem = 1.0 - remaining / produced if produced else 1.0
    return 0.5 * miss + 0.5 * rem


def replay_sum_failures(label: str, result, log) -> list[str]:
    """Aggregate replay counters must equal the sum of the per-trace rows."""
    rows = result.per_trace
    out = []
    if [r.case_id for r in rows] != [t.case_id for t in log]:
        out.append(f"{label}: per-trace rows do not match the log's cases")
    sums = tuple(sum(getattr(r, k) for r in rows)
                 for k in ("produced", "consumed", "missing", "remaining"))
    aggregate = (result.produced, result.consumed, result.missing, result.remaining)
    if sums != aggregate:
        out.append(f"{label}: aggregate counters {aggregate} != per-trace sums {sums}")
    if abs(result.log_fitness - fitness(*sums)) > 1e-12:
        out.append(f"{label}: log fitness {result.log_fitness} disagrees with the counters")
    return out


def golden_failures(expected: dict, actual: dict) -> list[str]:
    """Every recorded value must be reproduced; dicts are compared key by key."""
    out = []
    for key, want in expected.items():
        got = actual.get(key)
        if isinstance(want, dict) and isinstance(got, dict):
            bad = [k for k in want if got.get(k) != want[k]]
            if bad:
                out.append(f"golden {key}: {', '.join(bad)} differ from the recorded values")
        elif got != want:
            out.append(f"golden {key}: {got!r} differs from the recorded {want!r}")
    return out


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["workloads"]


def iteration_failures(wl, seed: int, state, result, golden: dict) -> list[str]:
    """The seed-independent checks, plus the recorded digests at the default seed."""
    try:
        failures = wl.check(state, result)
        if seed == DEFAULT_SEED:
            if wl.name not in golden:
                failures.append(f"golden.json has no record for {wl.name}")
            else:
                failures += golden_failures(golden[wl.name], wl.digests(state, result))
    except Exception as exc:  # output too malformed to check is a failure, not a crash
        failures = [f"checking raised {type(exc).__name__}: {exc}"]
    return failures


class PaperNoisy:
    """The analyst's CLI pipeline through ``careflow.cli.main``, in process."""

    name = "paper-noisy-10x"

    def __init__(self, factor: int = 10):
        self.factor = factor

    def setup(self, seed: int, workdir: Path):
        text, config, noise = scaled_config(seed, self.factor)
        config_path = workdir / "covas.config"
        config_path.write_text(text, encoding="utf-8")
        reference = simulate.simulate(config, covas_model())
        p = {name: str(workdir / name) for name in
             ("clean.xes", "noisy.xes", "clean.csv", "dotted.svg", "replay.csv", "replay.txt")}
        steps = [
            ("simulate", ["simulate", "--config", str(config_path), "--out", p["clean.xes"]]),
            ("simulate-noise", ["simulate", "--config", str(config_path), "--with-noise",
                                "--out", p["noisy.xes"]]),
            ("convert", ["convert", p["clean.xes"], p["clean.csv"]]),
            ("stats", ["stats", p["clean.xes"]]),
            ("variants", ["variants", p["clean.xes"]]),
            ("dfg", ["dfg", p["clean.xes"]]),
            ("waves", ["waves", p["clean.xes"], "--split", SPLIT]),
            ("occupancy", ["occupancy", p["clean.xes"], "--start", "startVentilation",
                           "--end", "endVentilation"]),
            ("dotted-chart", ["dotted-chart", p["clean.xes"], "--out", p["dotted.svg"]]),
            ("replay", ["replay", p["noisy.xes"], "--out", p["replay.csv"],
                        "--report", p["replay.txt"], "--json"]),
        ]
        return SimpleNamespace(paths=p, steps=steps, reference=reference,
                               noisy=simulate.inject_noise(reference, noise))

    @staticmethod
    def events(state, result) -> int:
        """Events in the simulated clean log, the pipeline's input."""
        return state.reference.event_count

    @staticmethod
    def inputs(state) -> dict:
        return {"cases": len(state.reference), "events": state.reference.event_count,
                "noisy_events": state.noisy.event_count}

    def run(self, state) -> dict[str, tuple[int, str]]:
        """Exit code and standard output of every step."""
        for path in state.paths.values():
            Path(path).unlink(missing_ok=True)
        out = {}
        for key, argv in state.steps:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(argv)
            out[key] = (code, stdout.getvalue())
        return out

    @staticmethod
    def _files(state) -> dict[str, str]:
        files = {}
        for name, path in state.paths.items():
            try:
                files[name] = Path(path).read_text(encoding="utf-8")
            except FileNotFoundError:
                files[name] = None
        return files

    @staticmethod
    def _replay_json(stdout: str) -> dict:
        start = stdout.find("{")
        return json.loads(stdout[start:]) if start >= 0 else {}

    def check(self, state, result) -> list[str]:
        out = [f"{key} exited with {code}" for key, (code, _) in result.items() if code != 0]
        files = self._files(state)
        out += [f"{name} was not written" for name, text in files.items() if text is None]
        if out:
            return out
        ref, noisy = state.reference, state.noisy
        if xesio.parse_xes(files["clean.xes"]).traces != ref.traces:
            out.append("clean.xes does not reproduce the simulated log")
        if xesio.parse_xes(files["noisy.xes"]).traces != noisy.traces:
            out.append("noisy.xes does not reproduce the noise-injected log")
        mapping = csvio.roundtrip_mapping(ref)
        if csvio.parse_csv(files["clean.csv"], mapping).traces != ref.traces:
            out.append("clean.csv does not reproduce the simulated log")

        counters = self._replay_json(result["replay"][1])
        rows = files["replay.csv"].splitlines()[1:]
        cells = [row.split(",") for row in rows]
        if [c[0] for c in cells] != [t.case_id for t in noisy]:
            out.append("replay.csv rows do not match the noisy log's cases")
        sums = [sum(int(c[i]) for c in cells) for i in (1, 2, 3, 4)]
        keys = ("produced", "consumed", "missing", "remaining")
        if [counters.get(k) for k in keys] != sums or counters.get("traces") != len(noisy):
            out.append(f"replay --json counters {counters} != per-trace sums {sums}")
        elif abs(counters.get("log_fitness", -1) - fitness(*sums)) > 1e-12:
            out.append("replay --json log_fitness disagrees with its counters")
        head = files["replay.txt"].splitlines()[:2]
        want = [f"log fitness: {fitness(*sums):.4f}",
                "aggregate counters: p={} c={} m={} r={}".format(*sums)]
        if head != want:
            out.append(f"replay report header {head} != {want}")

        stats = dict(line.rsplit(None, 1) for line in result["stats"][1].splitlines())
        if (stats.get("cases"), stats.get("events")) != (str(len(ref)), str(ref.event_count)):
            out.append("stats does not report the log's case and event counts")
        counts = [int(line.split()[0]) for line in result["variants"][1].splitlines()]
        if sum(counts) != len(ref):
            out.append("variant counts do not sum to the case count")
        waves = [int(line.split()[2]) for line in result["waves"][1].splitlines()[1:]]
        if sum(waves) != sum(1 for t in ref if t.complete):
            out.append("wave case counts do not sum to the complete cases")
        if not result["dfg"][1].startswith("digraph"):
            out.append("dfg did not print a DOT graph")
        if len(result["occupancy"][1].splitlines()) < 2:
            out.append("occupancy printed no breakpoints")
        if files["dotted.svg"].count("<circle") != ref.event_count:
            out.append("dotted chart does not draw one circle per event")
        return out

    def digests(self, state, result) -> dict:
        digests = {name: sha(text or "") for name, text in self._files(state).items()}
        for key in ("stats", "variants", "dfg", "waves", "occupancy"):
            digests[key] = sha(result[key][1])
        digests["replay.json"] = self._replay_json(result["replay"][1])
        return digests


class Ingest:
    """Serialise, parse and analyse a 10,800-case log through the library."""

    name = "ingest-50x"

    def __init__(self, factor: int = 50):
        self.factor = factor

    def setup(self, seed: int, workdir: Path):
        _, config, _ = scaled_config(seed, self.factor)
        log = simulate.simulate(config, covas_model())
        return SimpleNamespace(log=log, mapping=csvio.roundtrip_mapping(log))

    @staticmethod
    def events(state, result) -> int:
        return state.log.event_count

    @staticmethod
    def inputs(state) -> dict:
        return {"cases": len(state.log), "events": state.log.event_count}

    def run(self, state) -> dict:
        xes = xesio.write_xes(state.log)
        log = xesio.parse_xes(xes)
        csv = csvio.write_csv(state.log)
        from_csv = csvio.parse_csv(csv, state.mapping)
        chart = analytics.dotted_chart(log)
        return {
            "xes": xes, "log": log, "csv": csv, "from_csv": from_csv,
            "variants": eventlog.variants(log),
            "stats": eventlog.log_stats(log),
            "dfg": dfg.discover_dfg(log),
            "waves": analytics.compare_waves(log, SPLIT_INSTANT),
            "occupancy": analytics.occupancy(log, "startVentilation", "endVentilation"),
            "chart": chart,
            "svg": analytics.dotted_chart_svg(chart),
        }

    def check(self, state, r) -> list[str]:
        ref = state.log
        events, complete = ref.event_count, sum(1 for t in ref if t.complete)
        out = []
        if r["log"].traces != ref.traces:
            out.append("XES round-trip does not reproduce the log")
        if r["from_csv"].traces != ref.traces:
            out.append("CSV round-trip does not reproduce the log")
        if sum(v.count for v in r["variants"]) != len(ref):
            out.append("variant counts do not sum to the case count")
        stats = r["stats"]
        if (stats.case_count, stats.event_count, stats.complete_case_count) != (
                len(ref), events, complete):
            out.append("log_stats disagrees with the log")
        if sum(node.frequency for node in r["dfg"].nodes.values()) != events:
            out.append("DFG node frequencies do not sum to the event count")
        waves = r["waves"]
        if waves.first.case_count + waves.second.case_count != complete:
            out.append("wave case counts do not sum to the complete cases")
        if r["occupancy"].peak is None:
            out.append("occupancy found no ventilation interval")
        if len(r["chart"].rows) != events or r["svg"].count("<circle") != events:
            out.append("dotted chart does not have one point per event")
        return out

    def digests(self, state, r) -> dict:
        waves = r["waves"]
        return {
            "xes": sha(r["xes"]),
            "csv": sha(r["csv"]),
            "variants": sha(json.dumps([[list(v.sequence), v.count, list(v.case_ids)]
                                        for v in r["variants"]])),
            "stats": sha(repr([getattr(r["stats"], k) for k in (
                "case_count", "event_count", "activity_count", "variant_count",
                "complete_case_count", "mean_events_per_case", "mean_case_duration")])),
            "dfg": sha(dfg.dfg_to_json(r["dfg"])),
            "waves": sha(repr([(w.case_count, w.event_count, w.mean_case_duration)
                               for w in (waves.first, waves.second)])),
            "occupancy": sha(analytics.occupancy_csv(r["occupancy"])),
            "chart": sha(analytics.dotted_chart_csv(r["chart"])),
            "svg": sha(r["svg"]),
        }


def load_calibrate_script():
    """Import the script as a module (registered, so the tracer can patch its names)."""
    spec = importlib.util.spec_from_file_location("calibrate_desk_config", CALIBRATE_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class Calibrate:
    """A bounded slice of scripts/calibrate_desk_config.py at 1x."""

    name = "calibrate-1x"

    def __init__(self, scan_steps: int = 20, noise_seeds: int = 3, bisect_steps: int = 2):
        self.scan_steps = scan_steps
        self.noise_seeds = noise_seeds
        self.bisect_steps = bisect_steps

    def setup(self, seed: int, workdir: Path):
        script = load_calibrate_script()
        config = script.base_config(seed)
        base = script.simulate(config, script.NET)
        return SimpleNamespace(script=script, config=config, base=base)

    def run(self, state) -> dict:
        s = state.script
        # The first steps of tune_events' scan of startSymptoms over [0.02, 0.60].
        scan = [s.measure(s.with_prob(state.config, "startSymptoms", 0.02 + step * 0.58 / 116))
                for step in range(self.scan_steps)]
        # The first steps of tune_noise's bisection for its first noise seeds. Several
        # noise seeds keep one seed's unlucky drops from deciding the replay time.
        bisect = []
        for noise_seed in range(1, self.noise_seeds + 1):
            lo, hi = 0.0, 0.15
            for _ in range(self.bisect_steps):
                mid = (lo + hi) / 2
                noisy = s.inject_noise(state.base, s.NoiseSpec(mid, noise_seed))
                result = s.replay_log(s.NET, noisy)
                bisect.append((noise_seed, mid, noisy, result))
                if result.log_fitness > s.TARGET_FITNESS:
                    lo = mid
                else:
                    hi = mid
        return {"scan": scan, "bisect": bisect}

    def inputs(self, state) -> dict:
        return {"cases": len(state.base), "base_events": state.base.event_count,
                "scan_steps": self.scan_steps, "noise_seeds": self.noise_seeds,
                "bisect_steps": self.bisect_steps}

    @staticmethod
    def events(state, r) -> int:
        """Events simulated by the scan plus events replayed by the bisection."""
        return (sum(m["events"] for m in r["scan"])
                + sum(noisy.event_count for _, _, noisy, _ in r["bisect"]))

    def check(self, state, r) -> list[str]:
        out = []
        for i, m in enumerate(r["scan"]):
            log = m["log"]
            if m["events"] != log.event_count or len(log) != state.config.case_count:
                out.append(f"scan step {i}: event or case count disagrees with its log")
            if sum(m["wave_counts"]) != sum(1 for t in log if t.complete):
                out.append(f"scan step {i}: wave counts do not sum to the complete cases")
            if not m["peak"] or m["vent1"] > m["wave_counts"][0]:
                out.append(f"scan step {i}: implausible ventilation figures")
        bounds = {}
        for i, (noise_seed, mid, noisy, result) in enumerate(r["bisect"]):
            lo, hi = bounds.get(noise_seed, (0.0, 0.15))
            if mid != (lo + hi) / 2:
                out.append(f"bisection step {i}: probed {mid}, expected {(lo + hi) / 2}")
            if [t.case_id for t in noisy] != [t.case_id for t in state.base]:
                out.append(f"bisection step {i}: noise changed the cases")
            out += replay_sum_failures(f"bisection step {i}", result, noisy)
            above = result.log_fitness > state.script.TARGET_FITNESS
            bounds[noise_seed] = (mid, hi) if above else (lo, mid)
        return out

    def digests(self, state, r) -> dict:
        scan = [[m["events"], list(m["wave_counts"]), m["mean1"], m["mean2"],
                 m["peak"][0].isoformat(), m["peak"][1], m["vent1"]] for m in r["scan"]]
        bisect = [[seed, mid, res.log_fitness, res.produced, res.consumed, res.missing,
                   res.remaining] for seed, mid, _, res in r["bisect"]]
        return {"scan": sha(json.dumps(scan)), "bisect": sha(json.dumps(bisect))}


WORKLOADS = {w.name: w for w in (PaperNoisy(), Ingest(), Calibrate())}
