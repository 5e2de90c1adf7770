"""Command-line interface.

Every subcommand is a thin adapter over the library: it parses arguments,
loads a log, calls one operation and serializes the result. Exit status is 0
on success, 1 on usage errors, 2 on data errors (unreadable files, malformed
logs, bad configs).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from collections.abc import Iterable
from contextlib import nullcontext
from datetime import timedelta
from itertools import islice
from pathlib import Path

from . import analytics, csvio, dfg as dfg_mod, xesio
from .covas import covas_model
from .errors import CareflowError
from .eventlog import EventLog, drop_activities, log_stats, variants
from .jsontext import json_text
from .petri import parse_pnml
from .replay import deviation_report, replay_csv, replay_log
from .simulate import inject_noise, parse_config, simulate
from .timeutil import format_duration, format_timestamp, parse_timestamp


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the documented contract is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# the format a file name's suffix selects, read in any letter case
_FORMATS = {".xes": "xes", ".xml": "xes", ".csv": "csv", ".json": "json", ".svg": "svg"}


def _format(path: str | None) -> str | None:
    lowered = (path or "").lower()
    return _FORMATS.get(lowered[lowered.rfind("."):])


def _log_io(path: str):
    """xesio or csvio, as the suffix of ``path`` selects: the module that reads and writes it."""
    if _format(path) not in ("xes", "csv"):
        raise CareflowError(f"cannot infer log format from {path!r}; expected .xes, .xml or .csv")
    return xesio if _format(path) == "xes" else csvio


def _read_log(path: str, types: str | None = None) -> EventLog:
    module = _log_io(path)
    text = Path(path).read_text(encoding="utf-8")
    if module is xesio:
        return xesio.parse_xes(text)
    return csvio.parse_csv(text, _parse_types(types) if types else None)


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


def _write(path: str | None, pieces: Iterable[str]):
    """Write text ``pieces`` to the file at ``path`` 1,024 at a time, so they, their whole text
    and its UTF-8 encoding are never held at once, or print them when no path is given. A log
    goes in as its ``_document`` lines, which refuse what the format cannot spell."""
    pieces = iter(pieces)
    with open(path, "w", encoding="utf-8", newline="") if path else nullcontext(sys.stdout) as out:
        while batch := "".join(islice(pieces, 1024)):  # one write per line runs slower
            out.write(batch)
    if path:
        print(f"wrote {path}")


def _print_json(payload, sort_keys: bool = True):
    print(json_text(payload, sort_keys))


def _payload(record) -> dict:
    """A stats record's fields for JSON, with its mean case duration in seconds."""
    payload = dataclasses.asdict(record)
    duration = payload.pop("mean_case_duration")
    payload["mean_case_duration_seconds"] = None if duration is None else duration.total_seconds()
    return payload


def _load_model(spec: str):
    if spec == "covas":
        return covas_model()
    return parse_pnml(Path(spec).read_text(encoding="utf-8"))


def _resolve_config(path: str) -> str:
    """Config text from a file, or from the packaged config named by a bare file name."""
    if os.path.exists(path):
        return Path(path).read_text(encoding="utf-8")
    if not os.path.dirname(path):
        packaged = Path(__file__).parent / "data" / path
        if packaged.is_file():
            return packaged.read_text(encoding="utf-8")
    raise CareflowError(f"config file not found: {path}")


def _fmt_mean(duration: timedelta | None) -> str:
    return format_duration(duration) if duration is not None else "n/a"


# --- subcommand implementations -------------------------------------------------

def _cmd_stats(args) -> int:
    stats = log_stats(_read_log(args.log))
    if args.json:
        _print_json(_payload(stats))
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
        _print_json([dataclasses.asdict(v) for v in out], sort_keys=False)
        return 0
    for v in out:
        print(f"{v.count:>6}  {' -> '.join(v.sequence)}")
    return 0


def _cmd_dfg(args) -> int:
    graph = dfg_mod.discover_dfg(_read_log(args.log))
    graph = dfg_mod.filter_dfg(graph, args.min_node, args.min_edge)
    _write(args.out, [dfg_mod.dfg_to_json(graph) if args.json or _format(args.out) == "json"
                      else dfg_mod.dfg_to_dot(graph, annotate=args.annotate)])
    return 0


def _cmd_replay(args) -> int:
    net = _load_model(args.model)
    result = replay_log(net, _read_log(args.log),
                        ignore_final_for_ongoing=not args.strict_ongoing)
    if args.out:
        _write(args.out, [replay_csv(result)])
    if args.report:
        _write(args.report, [deviation_report(result)])
    if args.json:
        payload = {"log_fitness": result.log_fitness, "produced": result.produced,
                   "consumed": result.consumed, "missing": result.missing,
                   "remaining": result.remaining, "traces": len(result.per_trace)}
        _print_json(payload)
    else:
        print(f"log fitness: {result.log_fitness:.3f}")
        print(f"traces: {len(result.per_trace)}  produced: {result.produced}  "
              f"consumed: {result.consumed}  missing: {result.missing}  "
              f"remaining: {result.remaining}")
    return 0


def _cmd_dotted_chart(args) -> int:
    data = analytics.dotted_chart(_read_log(args.log), color_attribute=args.color,
                                  sort=args.sort)
    _write(args.out, [analytics.dotted_chart_svg(data) if _format(args.out) == "svg"
                      else analytics.dotted_chart_csv(data)])
    return 0


def _cmd_occupancy(args) -> int:
    series = analytics.occupancy(_read_log(args.log), args.start, args.end)
    for case_id in series.flagged_cases:
        print(f"warning: unpaired {args.start}/{args.end} events in case {case_id}",
              file=sys.stderr)
    if args.out or not args.json:
        _write(args.out, [analytics.occupancy_svg(series) if _format(args.out) == "svg"
                          else analytics.occupancy_csv(series, daily_max=args.daily_max)])
    if args.json:
        payload = {
            "peak": None if series.peak is None else
                    {"timestamp": format_timestamp(series.peak[0]), "count": series.peak[1]},
            "breakpoints": len(series.breakpoints),
        }
        _print_json(payload)
    elif args.out and series.peak:
        print(f"peak: {series.peak[1]} at {format_timestamp(series.peak[0])}")
    return 0


def _cmd_waves(args) -> int:
    split = parse_timestamp(args.split)
    cmp = analytics.compare_waves(_read_log(args.log), split,
                                  complete_only=not args.include_ongoing)
    if args.json:
        _print_json({"split": format_timestamp(split),
                     "wave_1": _payload(cmp.first), "wave_2": _payload(cmp.second)})
        return 0
    print(f"split at {format_timestamp(split)}"
          + ("" if args.include_ongoing else " (complete cases only)"))
    for name, wave in (("wave 1", cmp.first), ("wave 2", cmp.second)):
        print(f"{name}: {wave.case_count} cases, {wave.event_count} events, "
              f"mean case duration {_fmt_mean(wave.mean_case_duration)}")
    return 0


def _cmd_simulate(args) -> int:
    writer = _log_io(args.out)  # a bad output name fails before the config is read
    config, noise = parse_config(_resolve_config(args.config))
    if args.with_noise and noise is None:
        raise CareflowError("--with-noise requires noise.* keys in the config")
    log = simulate(config, _load_model(args.model))
    if args.with_noise:
        log = inject_noise(log, noise)
    _write(args.out, writer._document(log))
    return 0


def _cmd_convert(args) -> int:
    writer = _log_io(args.output)  # a bad output name fails before the input is read
    log = _read_log(args.input, types=args.types)
    if args.drop_activity:
        log = drop_activities(log, set(args.drop_activity))
    _write(args.output, writer._document(log))
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
    p.add_argument("--types",
                   help="types of extra CSV columns (the core ones are case_id, activity and "
                        "timestamp), e.g. 'case:ards=bool,n=int'; kinds: string, int, float, "
                        "boolean (or bool), date")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: a parser is cyclic garbage, which
    only a full collection frees. Parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help or usage error
        code = exc.code if isinstance(exc.code, int) else 1
        return code
    except (CareflowError, OSError, ValueError) as exc:
        print(f"careflow: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
