"""Spans around the public functions of each careflow layer.

The tracer patches every public function of the layer modules, and every
name elsewhere that refers to one of them, for the duration of one traced
iteration. Nothing inside the library changes: a span covers one call into a
layer as seen from outside it. ``petri``, ``covas``, ``rng`` and ``timeutil``
are not wrapped; their time lands in the layer that called them.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from statistics import median
from time import perf_counter

LAYERS = ("cli", "simulate", "xesio", "csvio", "replay", "eventlog", "dfg", "analytics")
COUNTED = ("replay_log", "simulate", "parse_xes", "parse_csv")


class Tracer:
    """In-memory spans (layer, function, start, end, parent) and layer counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.variant_keys: set = set()
        self._calls: list[tuple] = []  # (function, args, kwargs, result), counted on uninstall
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, calls = self.spans, self._stack, self._calls

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([layer, name, perf_counter(), 0.0, parent])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent < 0 or spans[parent][0] != layer:  # count each failed call once
                    self.counts[f"{layer}.failed"] += 1
                raise
            finally:
                spans[index][3] = perf_counter()
                stack.pop()
            if name in COUNTED:
                calls.append((name, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, args, kwargs, result):
        counts = self.counts
        if name == "replay_log":
            log = args[1] if len(args) > 1 else kwargs["log"]
            counts["replay.traces"] += len(log)
            self.variant_keys.update((t.activities(), t.complete) for t in log)
        elif name == "simulate":
            counts["simulate.cases"] += len(result)
            counts["simulate.events"] += result.event_count
        elif name == "parse_xes":
            counts["xesio.bytes"] += len(args[0] if args else kwargs["text"])
        elif name == "parse_csv":
            counts["csvio.bytes"] += len(args[0] if args else kwargs["text"])

    def install(self):
        """Wrap the layers' public functions wherever an imported module refers to them."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"careflow.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapped[id(obj)] = (obj, self._wrap(layer, name, obj))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None) or {}
            for name, obj in list(namespace.items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((namespace, name, obj))
                    namespace[name] = hit[1]

    def uninstall(self):
        """Restore the originals, then count the recorded calls outside any span."""
        for namespace, name, original in reversed(self._patched):
            namespace[name] = original
        self._patched.clear()
        for call in self._calls:
            self._count(*call)
        self._calls.clear()

    def layer_times(self) -> dict[str, float]:
        """Self seconds per layer and per (layer, function): span minus its children."""
        child_time = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        for (layer, name, start, end, _), children in zip(self.spans, child_time):
            own = end - start - children
            out[layer] += own
            out[f"{layer}.{name}"] += own
        return out


def layer_metrics(tracer: Tracer, traced_times: list[float], untraced_times: list[float]) -> dict:
    """Per-iteration layer metrics from the spans of ``len(traced_times)`` iterations.

    Layer self times, ``cli.self_s`` and ``trace.uncovered_s`` add up to
    ``trace.run_s``, the mean traced iteration; the overhead compares medians.
    """
    n = len(traced_times)
    own = tracer.layer_times()
    counts = tracer.counts
    run_s = sum(traced_times) / n
    covered = sum(own[layer] for layer in LAYERS) / n

    def per_iter(value):
        return value / n

    replay_busy = per_iter(own["replay"])
    traces = per_iter(counts["replay.traces"])
    parse_xes_s = per_iter(own["xesio.parse_xes"])
    xes_bytes = per_iter(counts["xesio.bytes"])
    return {
        "replay.busy_s": (replay_busy, "s"),
        "replay.ms_per_trace": (1000 * replay_busy / traces if traces else 0.0, "ms"),
        "replay.traces": (traces, "count"),
        # every traced iteration replays the same logs, so the union is one iteration's
        "replay.variants": (len(tracer.variant_keys), "count"),
        "simulate.busy_s": (per_iter(own["simulate"]), "s"),
        "simulate.cases": (per_iter(counts["simulate.cases"]), "count"),
        "simulate.events": (per_iter(counts["simulate.events"]), "count"),
        "simulate.noise_busy_s": (per_iter(own["simulate.inject_noise"]), "s"),
        "xesio.busy_s": (per_iter(own["xesio"]), "s"),
        "xesio.parse_busy_s": (parse_xes_s, "s"),
        "xesio.write_busy_s": (per_iter(own["xesio.write_xes"]), "s"),
        "xesio.parse_mb_per_s": (xes_bytes / parse_xes_s / 1e6 if parse_xes_s else 0.0, "MB/s"),
        "xesio.bytes": (xes_bytes, "bytes"),
        "csvio.busy_s": (per_iter(own["csvio"]), "s"),
        "csvio.parse_busy_s": (per_iter(own["csvio.parse_csv"]), "s"),
        "csvio.write_busy_s": (per_iter(own["csvio.write_csv"]), "s"),
        "csvio.bytes": (per_iter(counts["csvio.bytes"]), "bytes"),
        "eventlog.busy_s": (per_iter(own["eventlog"]), "s"),
        "dfg.busy_s": (per_iter(own["dfg"]), "s"),
        "analytics.busy_s": (per_iter(own["analytics"]), "s"),
        "cli.self_s": (per_iter(own["cli"]), "s"),
        "trace.run_s": (run_s, "s"),
        "trace.uncovered_s": (run_s - covered, "s"),
        "trace.spans": (per_iter(len(tracer.spans)), "count"),
        "trace.overhead_s": (median(traced_times) - median(untraced_times), "s"),
    }
