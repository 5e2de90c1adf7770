"""Command-line interface.

Every subcommand is a thin adapter over the library: it parses arguments,
loads a log, calls one operation and serializes the result. Exit status is 0
on success, 1 on usage errors, 2 on data errors (unreadable files, malformed
logs, bad configs). Relative --out paths are resolved against the
CAREFLOW_OUT_DIR environment variable when it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import timedelta
from importlib import resources

from . import analytics, csvio, dfg as dfg_mod, xesio
from .covas import covas_model
from .errors import CareflowError
from .eventlog import EventLog, drop_activities, log_stats, variants
from .petri import parse_pnml
from .replay import deviation_report, replay_csv, replay_log
from .simulate import inject_noise, parse_config, simulate
from .timeutil import format_duration, format_timestamp, parse_split_instant


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the documented contract is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _out_path(path: str) -> str:
    base = os.environ.get("CAREFLOW_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _read_log(path: str, types: str | None = None) -> EventLog:
    kind = xesio.sniff_format(path)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if kind == "xes":
        return xesio.parse_xes(text)
    mapping = csvio.DEFAULT_MAPPING
    if types:
        mapping = csvio.ColumnMapping(type_map=_parse_types(types))
    return csvio.parse_csv(text, mapping)


def _count(text: str) -> int:
    """An option value that counts: an integer, 0 or more (a usage error otherwise)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _parse_types(spec: str) -> dict[str, str]:
    out = {}
    for part in spec.split(","):
        if "=" not in part:
            raise CareflowError(f"bad --types entry {part!r}; expected column=kind")
        column, kind = part.split("=", 1)
        out[column.strip()] = kind.strip()
    return out


def _write_log(log: EventLog, path: str):
    kind = xesio.sniff_format(path)
    text = xesio.write_xes(log) if kind == "xes" else csvio.write_csv(log)
    _write_text(path, text)


def _write_text(path: str, text: str):
    path = _out_path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    print(f"wrote {path}")


def _load_model(spec: str):
    if spec == "covas":
        return covas_model()
    with open(spec, "r", encoding="utf-8") as handle:
        return parse_pnml(handle.read())


def _resolve_config(path: str) -> str:
    """Config text from a file, or from the packaged config named by a bare file name."""
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    if not os.path.dirname(path):
        packaged = resources.files("careflow") / "data" / path
        if packaged.is_file():
            return packaged.read_text(encoding="utf-8")
    raise CareflowError(f"config file not found: {path}")


def _fmt_mean(duration: timedelta | None) -> str:
    return format_duration(duration) if duration is not None else "n/a"


# --- subcommand implementations -------------------------------------------------

def _cmd_stats(args) -> int:
    stats = log_stats(_read_log(args.log))
    if args.json:
        payload = {
            "case_count": stats.case_count,
            "event_count": stats.event_count,
            "activity_count": stats.activity_count,
            "variant_count": stats.variant_count,
            "complete_case_count": stats.complete_case_count,
            "mean_events_per_case": stats.mean_events_per_case,
            "mean_case_duration_seconds":
                stats.mean_case_duration.total_seconds() if stats.mean_case_duration else None,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        ("cases", str(stats.case_count)),
        ("events", str(stats.event_count)),
        ("activities", str(stats.activity_count)),
        ("variants", str(stats.variant_count)),
        ("complete cases", str(stats.complete_case_count)),
        ("mean events per case",
         f"{stats.mean_events_per_case:.2f}" if stats.mean_events_per_case is not None else "n/a"),
        ("mean case duration", _fmt_mean(stats.mean_case_duration)),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")
    return 0


def _cmd_variants(args) -> int:
    out = variants(_read_log(args.log))
    if args.top:
        out = out[:args.top]
    if args.json:
        payload = [{"sequence": list(v.sequence), "count": v.count, "case_ids": list(v.case_ids)}
                   for v in out]
        print(json.dumps(payload, indent=2))
        return 0
    for v in out:
        print(f"{v.count:>6}  {' -> '.join(v.sequence)}")
    return 0


def _cmd_dfg(args) -> int:
    graph = dfg_mod.discover_dfg(_read_log(args.log))
    graph = dfg_mod.filter_dfg(graph, args.min_node, args.min_edge)
    if args.json or (args.out and args.out.endswith(".json")):
        text = dfg_mod.dfg_to_json(graph)
    else:
        text = dfg_mod.dfg_to_dot(graph, annotate=args.annotate)
    if args.out:
        _write_text(args.out, text)
    else:
        print(text, end="")
    return 0


def _cmd_replay(args) -> int:
    net = _load_model(args.model)
    result = replay_log(net, _read_log(args.log),
                        ignore_final_for_ongoing=not args.strict_ongoing)
    if args.out:
        _write_text(args.out, replay_csv(result))
    if args.report:
        _write_text(args.report, deviation_report(result))
    if args.json:
        payload = {"log_fitness": result.log_fitness, "produced": result.produced,
                   "consumed": result.consumed, "missing": result.missing,
                   "remaining": result.remaining, "traces": len(result.per_trace)}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"log fitness: {result.log_fitness:.3f}")
        print(f"traces: {len(result.per_trace)}  produced: {result.produced}  "
              f"consumed: {result.consumed}  missing: {result.missing}  "
              f"remaining: {result.remaining}")
    return 0


def _cmd_dotted_chart(args) -> int:
    data = analytics.dotted_chart(_read_log(args.log), color_attribute=args.color,
                                  sort=args.sort)
    if args.out:
        if args.out.endswith(".svg"):
            _write_text(args.out, analytics.dotted_chart_svg(data))
        else:
            _write_text(args.out, analytics.dotted_chart_csv(data))
    else:
        print(analytics.dotted_chart_csv(data), end="")
    return 0


def _cmd_occupancy(args) -> int:
    series = analytics.occupancy(_read_log(args.log), args.start, args.end)
    for case_id in series.flagged_cases:
        print(f"warning: unpaired {args.start}/{args.end} events in case {case_id}",
              file=sys.stderr)
    if args.json:
        payload = {
            "peak": None if series.peak is None else
                    {"timestamp": format_timestamp(series.peak[0]), "count": series.peak[1]},
            "breakpoints": len(series.breakpoints),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.out:
        if args.out.endswith(".svg"):
            _write_text(args.out, analytics.occupancy_svg(series))
        else:
            _write_text(args.out, analytics.occupancy_csv(series, daily_max=args.daily_max))
        if series.peak:
            print(f"peak: {series.peak[1]} at {format_timestamp(series.peak[0])}")
    else:
        print(analytics.occupancy_csv(series, daily_max=args.daily_max), end="")
    return 0


def _cmd_waves(args) -> int:
    split = parse_split_instant(args.split)
    cmp = analytics.compare_waves(_read_log(args.log), split,
                                  complete_only=not args.include_ongoing)
    if args.json:
        def wave_payload(w):
            return {"case_count": w.case_count, "event_count": w.event_count,
                    "mean_case_duration_seconds":
                        w.mean_case_duration.total_seconds() if w.mean_case_duration else None}
        print(json.dumps({"split": format_timestamp(split),
                          "wave_1": wave_payload(cmp.first),
                          "wave_2": wave_payload(cmp.second)}, indent=2, sort_keys=True))
        return 0
    print(f"split at {format_timestamp(split)}"
          + ("" if args.include_ongoing else " (complete cases only)"))
    for name, wave in (("wave 1", cmp.first), ("wave 2", cmp.second)):
        print(f"{name}: {wave.case_count} cases, {wave.event_count} events, "
              f"mean case duration {_fmt_mean(wave.mean_case_duration)}")
    return 0


def _cmd_simulate(args) -> int:
    config, noise = parse_config(_resolve_config(args.config))
    log = simulate(config, covas_model() if args.model == "covas" else _load_model(args.model))
    if args.with_noise:
        if noise is None:
            raise CareflowError("--with-noise requires noise.* keys in the config")
        log = inject_noise(log, noise)
    _write_log(log, args.out)
    return 0


def _cmd_convert(args) -> int:
    log = _read_log(args.input, types=args.types)
    if args.drop_activity:
        log = drop_activities(log, set(args.drop_activity))
    _write_log(log, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="careflow",
                     description="Process mining toolkit for clinical event logs.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("stats", _cmd_stats, "print summary statistics of a log")
    p.add_argument("log")
    p.add_argument("--json", action="store_true")

    p = add("variants", _cmd_variants, "list activity-sequence variants by frequency")
    p.add_argument("log")
    p.add_argument("--top", type=_count, default=0, help="show only the N most frequent")
    p.add_argument("--json", action="store_true")

    p = add("dfg", _cmd_dfg, "discover a directly-follows graph")
    p.add_argument("log")
    p.add_argument("--min-node", type=float, default=0.0,
                   help="minimum node frequency (count, or fraction of the max)")
    p.add_argument("--min-edge", type=float, default=0.05,
                   help="minimum edge frequency (count, or fraction of the max; default 5%%)")
    p.add_argument("--annotate", choices=("frequency", "mean_duration"), default="frequency")
    p.add_argument("--out", help="output file (.dot or .json)")
    p.add_argument("--json", action="store_true")

    p = add("replay", _cmd_replay, "token-based replay conformance against a net")
    p.add_argument("log")
    p.add_argument("--model", default="covas", help="'covas' or a PNML file")
    p.add_argument("--out", help="write per-trace counters as CSV")
    p.add_argument("--report", help="write a human-readable deviation report")
    p.add_argument("--strict-ongoing", action="store_true",
                   help="apply final-marking penalties to ongoing cases too")
    p.add_argument("--json", action="store_true")

    p = add("dotted-chart", _cmd_dotted_chart, "dotted chart of the log")
    p.add_argument("log")
    p.add_argument("--color", default="ards", help="trace attribute used for colors")
    p.add_argument("--sort", choices=("by_first_event", "by_case_id"), default="by_first_event")
    p.add_argument("--out", help="output file (.svg or .csv)")

    p = add("occupancy", _cmd_occupancy, "concurrent interval count between two activities")
    p.add_argument("log")
    p.add_argument("--start", required=True, help="interval-opening activity")
    p.add_argument("--end", required=True, help="interval-closing activity")
    p.add_argument("--daily-max", action="store_true", help="downsample CSV to daily maxima")
    p.add_argument("--out", help="output file (.csv or .svg)")
    p.add_argument("--json", action="store_true")

    p = add("waves", _cmd_waves, "compare the log before and after a split instant")
    p.add_argument("log")
    p.add_argument("--split", required=True, help="split instant, e.g. 2020-07-01")
    p.add_argument("--include-ongoing", action="store_true")
    p.add_argument("--json", action="store_true")

    p = add("simulate", _cmd_simulate, "generate a synthetic log from a config")
    p.add_argument("--config", required=True,
                   help="config file, or the bare name of a packaged one")
    p.add_argument("--model", default="covas", help="'covas' or a PNML file")
    p.add_argument("--out", required=True, help="output log (.xes or .csv)")
    p.add_argument("--with-noise", action="store_true",
                   help="apply the config's noise spec after generation")

    p = add("convert", _cmd_convert, "transcode a log between CSV and XES")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--drop-activity", action="append", default=[],
                   help="drop all events with this activity (repeatable)")
    p.add_argument("--types", help="CSV column types, e.g. 'case:ards=bool,n=int'")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help or usage error
        code = exc.code if isinstance(exc.code, int) else 1
        return code
    except (CareflowError, OSError, ValueError) as exc:
        print(f"careflow: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
