import gc
import json
import shlex
from datetime import timedelta
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from careflow import analytics, cli, csvio, dfg, xesio
from careflow.covas import covas_model
from careflow.csvio import parse_csv, write_csv
from careflow.errors import ConfigError, CsvFormatError, PnmlFormatError, XesFormatError
from careflow.eventlog import Event, EventLog, Trace, drop_activities
from careflow.jsontext import json_text
from careflow.petri import parse_pnml
from careflow.replay import deviation_report, replay_csv, replay_log
from careflow.simulate import parse_config, simulate
from careflow.timeutil import format_timestamp
from careflow.xesio import parse_xes, write_xes
from helpers import T0, budget_net, make_log, make_trace, write_pnml


def run_json(capsys, *argv) -> dict:
    capsys.readouterr()
    assert cli.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_paper_numbers_from_packaged_config(tmp_path, monkeypatch, capsys):
    """The case study's headline figures, end to end through the CLI."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--config", "covas_desk.config", "--out", "clean.xes"]) == 0
    assert cli.main(["simulate", "--config", "covas_desk.config", "--with-noise",
                     "--out", "noisy.xes"]) == 0

    stats = run_json(capsys, "stats", "clean.xes", "--json")
    assert (stats["case_count"], stats["event_count"]) == (216, 1645)
    assert stats["complete_case_count"] == 196

    waves = run_json(capsys, "waves", "clean.xes", "--split", "2020-07-01", "--json")
    assert (waves["wave_1"]["case_count"], waves["wave_2"]["case_count"]) == (133, 63)
    tolerance = timedelta(minutes=30).total_seconds()
    for wave, expected in (("wave_1", timedelta(days=33, hours=6)),
                           ("wave_2", timedelta(days=23, hours=1))):
        got = waves[wave]["mean_case_duration_seconds"]
        assert abs(got - expected.total_seconds()) <= tolerance, (wave, got)

    occupancy = run_json(capsys, "occupancy", "clean.xes", "--start", "startVentilation",
                         "--end", "endVentilation", "--json")
    assert occupancy["peak"]["count"] == 39
    assert occupancy["peak"]["timestamp"].startswith("2020-04-13")

    replay = run_json(capsys, "replay", "noisy.xes", "--json")
    assert replay["traces"] == 216
    assert abs(replay["log_fitness"] - 0.98) <= 0.005


def readme_transcript() -> list[tuple[list[str], str]]:
    """The commands of README.md's paper pipeline, each with the output shown under it."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## The paper pipeline\n")[1].split("\n## ")[0]
    steps: list[tuple[list[str], str]] = []
    for line in section.splitlines():
        if line.startswith("    $ careflow "):
            steps.append((shlex.split(line[len("    $ careflow "):]), ""))
        elif line.startswith("    ") and steps:
            steps[-1] = (steps[-1][0], steps[-1][1] + line[4:] + "\n")
    return steps


def test_readme_paper_pipeline_transcript(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = readme_transcript()
    assert [argv[0] for argv, _ in steps] == ["simulate", "simulate", "stats", "waves",
                                              "occupancy", "replay"]
    for argv, shown in steps:
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == shown, argv
    header, *rows = (tmp_path / "vent.csv").read_text(encoding="utf-8").splitlines()
    assert header == "timestamp,count" and all("T00:00:00+00:00," in row for row in rows)
    assert max(int(row.split(",")[1]) for row in rows) == 39  # the peak the transcript shows


@pytest.fixture
def small_log(tmp_path):
    """Three cases over two variants, written as XES; returns (log, path)."""
    log = make_log(["A", "B"], ["A"], ["A", "B", "C"], ["A", "B"])
    path = tmp_path / "log.xes"
    path.write_text(write_xes(log), encoding="utf-8")
    return log, str(path)


def test_variants_text_top_and_json(small_log, capsys):
    _, path = small_log
    capsys.readouterr()
    assert cli.main(["variants", path]) == 0
    assert capsys.readouterr().out == "     2  A -> B\n     1  A\n     1  A -> B -> C\n"
    assert cli.main(["variants", path, "--top", "1"]) == 0
    assert capsys.readouterr().out == "     2  A -> B\n"
    assert cli.main(["variants", path, "--top", "2", "--json"]) == 0
    expected = [{"sequence": ["A", "B"], "count": 2, "case_ids": ["c1", "c4"]},
                {"sequence": ["A"], "count": 1, "case_ids": ["c2"]}]
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"  # keys unsorted


def test_dfg_prints_dot_and_writes_json(small_log, tmp_path, capsys):
    log, path = small_log
    graph = dfg.filter_dfg(dfg.discover_dfg(log), 0.0, 0.05)
    capsys.readouterr()
    assert cli.main(["dfg", path]) == 0
    assert capsys.readouterr().out == dfg.dfg_to_dot(graph)
    out = tmp_path / "graph.json"
    assert cli.main(["dfg", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_text(encoding="utf-8") == dfg.dfg_to_json(graph)


def test_dotted_chart_writes_svg_and_prints_csv(small_log, tmp_path, capsys):
    log, path = small_log
    data = analytics.dotted_chart(log)
    out = tmp_path / "chart.svg"
    capsys.readouterr()
    assert cli.main(["dotted-chart", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_text(encoding="utf-8") == analytics.dotted_chart_svg(data)
    assert cli.main(["dotted-chart", path]) == 0
    assert capsys.readouterr().out == analytics.dotted_chart_csv(data)


@pytest.mark.parametrize("sort", ["by_first_event", "by_case_id"])
@pytest.mark.parametrize("suffix", [".svg", ".csv"])
def test_dotted_chart_out_writes_what_the_library_renders(suffix, sort, tmp_path, monkeypatch):
    # the paper log's 1,645 points cross the writer's 1,024-line batch edge
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--config", "covas_desk.config", "--out", "log.csv"]) == 0
    assert cli.main(["dotted-chart", "log.csv", "--sort", sort, "--out", f"chart{suffix}"]) == 0
    log = parse_csv((tmp_path / "log.csv").read_text(encoding="utf-8"))
    assert log.event_count > 1024
    render = analytics.dotted_chart_svg if suffix == ".svg" else analytics.dotted_chart_csv
    expected = render(analytics.dotted_chart(log, sort=sort)).encode("utf-8")
    assert (tmp_path / f"chart{suffix}").read_bytes() == expected


def test_a_csv_field_past_the_csv_modules_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text("case_id,activity,timestamp\nc1," + "A" * 131_073
                    + ",2020-02-01T00:00:00+00:00\n", encoding="utf-8")
    assert cli.main(["stats", str(path)]) == 2
    assert capsys.readouterr().err == (
        "careflow: error: cannot read the row: field larger than field limit (131072) (row 2)\n")


def test_waves_text_with_ongoing_cases(small_log, capsys):
    _, path = small_log
    capsys.readouterr()
    assert cli.main(["waves", path, "--split", "2020-02-01T00:02:00", "--include-ongoing"]) == 0
    assert capsys.readouterr().out == (
        "split at 2020-02-01T00:02:00+00:00\n"
        "wave 1: 2 cases, 3 events, mean case duration 0d 00h 30m\n"
        "wave 2: 2 cases, 5 events, mean case duration 0d 01h 30m\n")


def test_replay_text_writes_counters_and_report(small_log, tmp_path, capsys):
    log, path = small_log
    (tmp_path / "net.pnml").write_text(write_pnml(budget_net()), encoding="utf-8")
    result = replay_log(budget_net(), log)
    counters, report = tmp_path / "counters.csv", tmp_path / "report.txt"
    capsys.readouterr()
    assert cli.main(["replay", path, "--model", str(tmp_path / "net.pnml"),
                     "--out", str(counters), "--report", str(report)]) == 0
    assert capsys.readouterr().out == (
        f"wrote {counters}\nwrote {report}\n"
        f"log fitness: {result.log_fitness:.3f}\n"
        f"traces: 4  produced: {result.produced}  consumed: {result.consumed}  "
        f"missing: {result.missing}  remaining: {result.remaining}\n")
    assert counters.read_text(encoding="utf-8") == replay_csv(result)
    assert report.read_text(encoding="utf-8") == deviation_report(result)


def test_a_zero_mean_duration_is_zero_seconds_in_json(tmp_path, capsys):
    # one complete case of one event lasts no time: a duration, not a missing one
    path = tmp_path / "one.csv"
    path.write_text("case_id,activity,timestamp\nc1,A,2020-02-01T00:00:00+00:00\n",
                    encoding="utf-8")
    assert run_json(capsys, "stats", str(path), "--json")["mean_case_duration_seconds"] == 0.0
    waves = run_json(capsys, "waves", str(path), "--split", "2020-03-01", "--json")
    assert waves["wave_1"]["mean_case_duration_seconds"] == 0.0
    assert waves["wave_2"]["mean_case_duration_seconds"] is None  # no case at all


def test_config_bare_name_falls_back_to_packaged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no covas_desk.config here
    assert cli.main(["simulate", "--config", "covas_desk.config", "--out", "log.csv"]) == 0
    assert (tmp_path / "log.csv").is_file()


def test_config_missing_path_with_directory_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for path in (str(tmp_path / "no" / "such" / "covas_desk.config"), "./covas_desk.config"):
        assert cli.main(["simulate", "--config", path, "--out", "log.csv"]) == 2
        assert "config file not found" in capsys.readouterr().err
    assert not (tmp_path / "log.csv").exists()


def test_replay_budget_exhaustion_exits_2(tmp_path, monkeypatch, capsys):
    (tmp_path / "net.pnml").write_text(write_pnml(budget_net()), encoding="utf-8")
    (tmp_path / "log.xes").write_text(write_xes(make_log(["B", "A", "B"])), encoding="utf-8")
    monkeypatch.setattr(cli, "replay_log", partial(replay_log, max_expansions=10))
    code = cli.main(["replay", str(tmp_path / "log.xes"), "--model", str(tmp_path / "net.pnml")])
    assert code == 2
    err = capsys.readouterr().err
    assert "'c1'" in err and "budget of 10" in err


CONFIG = """config_version = 1
case_count = 5
seed = 1
wave.1.window_start = 2020-01-01
wave.1.window_end = 2020-02-01
wave.1.share = 1
"""
PNML = write_pnml(budget_net())
CSV = "case_id,activity,timestamp\nc1,A,2020-02-01T00:00:00+00:00\n"
XES = write_xes(make_log(["A"]))
TRACE = XES[XES.index("  <trace>"):XES.index("</log>")]
PARSERS = {"config": (parse_config, ConfigError), "pnml": (parse_pnml, PnmlFormatError),
           "csv": (parse_csv, CsvFormatError), "xes": (parse_xes, XesFormatError)}


def test_a_delay_past_the_year_9999_exits_2_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "far.config"
    path.write_text(CONFIG + "delay.default = fixed 100000000.0\n", encoding="utf-8")
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "log.xes")]) == 2
    assert capsys.readouterr().err == ("careflow: error: the delay of 'Start' carries case_1 "
                                       "past the year 9999\n")
    assert not (tmp_path / "log.xes").exists()


def test_a_probability_for_no_transition_exits_2_naming_its_key(tmp_path, capsys):
    path = tmp_path / "typo.config"
    path.write_text(CONFIG + "delay.default = fixed 1.0\nprob.DischDaed = 0.35\n",
                    encoding="utf-8")
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "log.xes")]) == 2
    assert capsys.readouterr().err == ("careflow: error: probability for 'DischDaed' names no "
                                       "transition of the net\n")
    assert not (tmp_path / "log.xes").exists()


@pytest.mark.parametrize("kind, text, location", [
    ("config", CONFIG + "noise.seed = x\n", "line 7"),
    ("config", CONFIG + "noise.drop_probability = x\n", "line 7"),
    ("config", CONFIG + "wave.x.share = 1\n", "line 7"),
    ("config", CONFIG + "wave. = 1\n", "line 7"),
    ("config", CONFIG + "delay.A = lognormal -5 0.5\n", "line 7"),
    ("config", CONFIG + "delay.A = fixed -30\n", "line 7"),
    ("config", CONFIG + "delay.A = uniform 9 1\n", "line 7"),
    ("config", CONFIG.replace("2020-02-01", "2019-12-01"), "wave 1"),
    ("config", CONFIG + "wave.1.delay_scale = -1\n", "wave 1"),
    ("config", CONFIG + "noise.seed = 3\n", "line 7"),
    ("config", CONFIG + "wave.1.admission_mode = 2020-01-15\n"
     "wave.1.admission_spread_hours = -5\n", "wave 1"),
    ("config", CONFIG + "wave.1.admission_mode = 2021-01-15\n", "wave 1"),
    ("config", CONFIG + "wave.1.admission_spread_hours = 24\n", "wave 1"),
    ("config", CONFIG.replace("share = 1", "share = nan"), "wave 1"),
    ("pnml", PNML.replace("<text>1</text></initialMarking>", "<text>one</text></initialMarking>"),
     "'p1'"),
    ("pnml", PNML.replace("<text>1</text></place>", "<text>1.5</text></place>"), "'p3'"),
    ("pnml", PNML.replace('source="b" target="p3"', 'source="b" target="p9"'), "'p9'"),
    ("pnml", PNML.replace('idref="p3"', 'idref="p9"'), "'p9'"),
    ("pnml", PNML.replace("</pnml>", ""), "line 35, column 0"),
    ("csv", CSV + ",B,2020-02-01T01:00:00+00:00\n", "row 3"),
    ("csv", CSV + "c1,,2020-02-01T01:00:00+00:00\n", "row 3"),
    ("csv", CSV + "c1,B,0001-01-01T00:00:00+01:00\n", "row 3"),
    ("csv", CSV.replace("timestamp\n", "timestamp,case_id\n").replace("00:00\n", "00:00,c2\n"),
     "repeated column 'case_id'"),
    ("xes", XES.replace("</log>", TRACE + "</log>"), "trace #2"),
    ("xes", XES.replace('value="A"', 'value=""'), "case 'c1'"),
    ("xes", XES.replace("2020-02-01T00:00:00+00:00", "0001-01-01T00:00:00+01:00"),
     "bad date literal"),
], ids=["noise-seed", "noise-drop", "wave-number", "wave-empty", "delay-undefined",
        "delay-negative", "delay-reversed-range", "wave-reversed-window",
        "wave-negative-delay-scale", "noise-seed-alone", "wave-negative-spread",
        "wave-mode-outside-window", "wave-spread-without-mode", "wave-nan-share",
        "initial-marking", "final-marking", "arc-to-unknown-place", "final-marking-unknown-place",
        "malformed-pnml",
        "empty-case", "empty-activity", "instant-out-of-range-csv", "repeated-column",
        "duplicate-case", "empty-event-name", "instant-out-of-range-xes"])
def test_bad_input_is_a_careflow_error_with_its_location(kind, text, location, tmp_path, capsys):
    parse, error = PARSERS[kind]
    with pytest.raises(error, match=location):
        parse(text)
    path = tmp_path / f"bad.{kind}"
    path.write_text(text, encoding="utf-8")
    argv = {"config": ["simulate", "--config", str(path), "--out", str(tmp_path / "log.xes")],
            "pnml": ["replay", str(tmp_path / "unread.xes"), "--model", str(path)]
            }.get(kind, ["stats", str(path)])
    assert cli.main(argv) == 2
    assert location in capsys.readouterr().err


@pytest.mark.parametrize("kind, text, message, location", [
    ("csv", CSV + ",B,2020-02-01T01:00:00+00:00\n", "empty 'case_id' cell (row 3)",
     (3, None, None)),
    ("config", CONFIG + "noise.seed = 3\n", "noise.seed without noise.drop_probability (line 7)",
     (None, 7, None)),
    ("xes", XES.replace("</log>", "</lg>"), "malformed XML: mismatched tag (line 10, column 2)",
     (None, 10, 2)),
    ("xes", XES.replace("log", "x"), "expected <log> root element, found <x>", (None, None, None)),
], ids=["row", "line", "line-and-column", "no-location"])
def test_error_message_ends_with_its_location(kind, text, message, location):
    parse, error = PARSERS[kind]
    with pytest.raises(error) as caught:
        parse(text)
    assert str(caught.value) == message
    assert (caught.value.row, caught.value.line, caught.value.column) == location


def test_convert_rejects_a_cell_beyond_the_header(tmp_path, capsys):
    (tmp_path / "in.csv").write_text(CSV.replace("00:00\n", "00:00,extra\n"), encoding="utf-8")
    assert cli.main(["convert", str(tmp_path / "in.csv"), str(tmp_path / "out.xes")]) == 2
    assert "(row 2)" in capsys.readouterr().err
    assert not (tmp_path / "out.xes").exists()


@pytest.mark.parametrize("existed", [False, True], ids=["absent", "present"])
def test_a_refused_write_leaves_the_output_file_as_it_was(existed, tmp_path, capsys):
    # the last case's concept:name is an event attribute XES reserves, and its activity one
    # CSV spells as a core column; in ctl.csv its activity holds a control character XML
    # forbids; a writer that opened the file before it met that case would truncate or
    # create it
    rows = "".join(f"c{k},A,2020-02-01T00:00:00+00:00,\n" for k in range(2000))
    source = tmp_path / "in.csv"
    source.write_text("case_id,activity,timestamp,concept:name\n" + rows
                      + "c2000,A,2020-02-01T00:00:00+00:00,B\n", encoding="utf-8")
    (tmp_path / "ctl.csv").write_text("case_id,activity,timestamp,k\n" + rows
                                      + "c2000,A\x01B,2020-02-01T00:00:00+00:00,\n",
                                      encoding="utf-8")
    traces = [make_trace(f"c{k}", ["A"]) for k in range(2000)]
    log = EventLog((*traces, Trace("c2000", (Event("A", T0, {"activity": "B"}),))))
    (tmp_path / "in.xes").write_text(write_xes(log), encoding="utf-8")
    for source, out, refusal in ((source, tmp_path / "out.xes", "a key XES reserves"),
                                 (tmp_path / "in.xes", tmp_path / "out.csv",
                                  "a column name CSV reserves"),
                                 (tmp_path / "ctl.csv", tmp_path / "out.xes",
                                  "holds '\\x01' in its activity, a character XML cannot carry")):
        if existed:
            out.write_bytes(b"kept\r\n")
        assert cli.main(["convert", str(source), str(out)]) == 2
        assert refusal in capsys.readouterr().err
        assert (out.read_bytes() == b"kept\r\n") if existed else not out.exists()


@pytest.mark.parametrize("suffix, module, writer", [(".xes", xesio, write_xes),
                                                    (".csv", csvio, write_csv)], ids=["xes", "csv"])
def test_simulate_out_writes_what_the_library_writer_returns(suffix, module, writer, tmp_path):
    config, _ = parse_config(cli._resolve_config("covas_desk.config"))
    log = simulate(config, covas_model())
    assert len(list(module._document(log))) > 1024  # the CLI writes 1,024 lines at a time
    out = tmp_path / f"log{suffix}"
    assert cli.main(["simulate", "--config", "covas_desk.config", "--out", str(out)]) == 0
    assert out.read_bytes() == writer(log).encode("utf-8")


@pytest.mark.parametrize("argv", [["no-such-command"], ["waves", "log.xes"],
                                  ["variants", "log.xes", "--top", "-1"],
                                  ["variants", "log.xes", "--top", "abc"]],
                         ids=["unknown-command", "missing-split", "negative-top",
                              "top-not-a-number"])
def test_usage_errors_exit_1(argv, capsys):
    assert cli.main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_main_parses_each_call_afresh_and_leaves_no_garbage(tmp_path, capsys):
    # main builds its parser once per process; a parser per call would be cyclic garbage
    log = make_log(["A", "B"], ["A", "C"])
    source = tmp_path / "in.xes"
    source.write_text(write_xes(log), encoding="utf-8")
    dropped, kept = tmp_path / "dropped.xes", tmp_path / "kept.xes"
    assert cli.main(["convert", str(source), str(dropped), "--drop-activity", "B"]) == 0
    assert cli.main(["convert", str(source), str(kept)]) == 0
    assert parse_xes(dropped.read_text(encoding="utf-8")) == drop_activities(log, {"B"})
    assert parse_xes(kept.read_text(encoding="utf-8")) == log
    capsys.readouterr()
    assert cli.main(["--help"]) == 0 and capsys.readouterr().out.startswith("usage: careflow")
    assert cli.main(["stats", "--help"]) == 0
    assert cli.main(["no-such-command"]) == 1
    # argparse's help formatter makes cycles of its own; json.dumps with an indent would too
    calls = [["stats", str(source)], ["convert", str(source), str(kept)],
             ["convert", str(source), str(dropped), "--drop-activity", "B"],
             ["stats", str(tmp_path / "missing.xes")], ["stats", str(source), "--json"],
             ["replay", str(source), "--json"], ["dfg", str(source), "--json"]]
    gc.collect()
    gc.disable()
    try:
        codes = [cli.main(argv) for argv in calls]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert codes == [0, 0, 0, 2, 0, 0, 0]


_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
_json_keys = st.one_of(st.text(), st.integers(), st.floats(allow_nan=False), st.booleans(),
                       st.none())
_json_values = st.recursive(_json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_json_keys, inner, max_size=4)), max_leaves=20)


def _encoded(encode, value, sort_keys):
    try:
        return encode(value, sort_keys)
    except TypeError as exc:  # keys of kinds that do not sort together, or an unknown type
        return TypeError, str(exc)


@given(_json_values, st.booleans())
def test_json_text_spells_as_json_dumps(value, sort_keys):
    def dumps(case, sort):
        return json.dumps(case, indent=2, sort_keys=sort)

    for case in (value, {"a": [1, {"b": object()}]}):
        assert _encoded(json_text, case, sort_keys) == _encoded(dumps, case, sort_keys)


@pytest.mark.parametrize("flag", ["--min-edge", "--min-node"])
def test_dfg_nan_threshold_is_an_input_error(flag, tmp_path, capsys):
    (tmp_path / "log.xes").write_text(write_xes(make_log(["A", "B"])), encoding="utf-8")
    assert cli.main(["dfg", str(tmp_path / "log.xes"), flag, "nan"]) == 2
    assert "non-negative" in capsys.readouterr().err


def test_occupancy_json_with_out_writes_the_file(tmp_path, capsys):
    log = make_log(["startVentilation", "endVentilation"])
    (tmp_path / "log.xes").write_text(write_xes(log), encoding="utf-8")
    argv = ["occupancy", str(tmp_path / "log.xes"), "--start", "startVentilation",
            "--end", "endVentilation"]
    expected = run_json(capsys, *argv, "--json")
    out = tmp_path / "occupancy.csv"
    assert cli.main(argv + ["--json", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith(f"wrote {out}\n")
    assert json.loads(stdout[stdout.index("{"):]) == expected
    assert cli.main(argv) == 0
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out


def test_csv_types_accept_bool(tmp_path):
    log = EventLog((make_trace("c1", ["A"], ards=True),))
    (tmp_path / "in.csv").write_text(write_csv(log), encoding="utf-8")
    assert cli.main(["convert", str(tmp_path / "in.csv"), str(tmp_path / "out.xes"),
                     "--types", "case:ards=bool"]) == 0
    assert parse_xes((tmp_path / "out.xes").read_text(encoding="utf-8")) == log


def test_a_types_entry_without_a_kind_exits_2(tmp_path, capsys):
    (tmp_path / "in.csv").write_text(write_csv(make_log(["A"])), encoding="utf-8")
    assert cli.main(["convert", str(tmp_path / "in.csv"), str(tmp_path / "out.xes"),
                     "--types", "foo"]) == 2
    assert capsys.readouterr().err == ("careflow: error: bad --types entry 'foo'; "
                                       "expected column=kind\n")
    assert not (tmp_path / "out.xes").exists()


def test_occupancy_warns_of_each_flagged_case_on_stderr(tmp_path, capsys):
    log = make_log(["startVentilation", "startVentilation", "endVentilation"],
                   ["startVentilation", "endVentilation"])
    (tmp_path / "log.xes").write_text(write_xes(log), encoding="utf-8")
    assert cli.main(["occupancy", str(tmp_path / "log.xes"), "--start", "startVentilation",
                     "--end", "endVentilation", "--json"]) == 0
    assert capsys.readouterr().err == \
        "warning: unpaired startVentilation/endVentilation events in case c1\n"


def test_csv_route_equals_xes_route(tmp_path, monkeypatch, capsys):
    # case:complete reads as a boolean from CSV, so ongoing cases stay ongoing: read as
    # the string "false", all 216 cases counted as complete (196 from the XES)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--config", "covas_desk.config", "--with-noise",
                     "--out", "log.xes"]) == 0
    assert cli.main(["convert", "log.xes", "log.csv"]) == 0
    for argv in (["stats"], ["replay"], ["waves", "--split", "2020-07-01"]):
        from_xes = run_json(capsys, argv[0], "log.xes", *argv[1:], "--json")
        assert run_json(capsys, argv[0], "log.csv", *argv[1:], "--json") == from_xes, argv
    assert from_xes["wave_2"]["case_count"] == 63


def test_csv_complete_column_is_boolean_unless_typed_otherwise(tmp_path, capsys):
    header = "case_id,activity,timestamp,case:complete\n"
    (tmp_path / "in.csv").write_text(header + "c1,A,2020-02-01T00:00:00+00:00,FALSE\n"
                                     "c2,A,2020-02-01T00:00:00+00:00,\n", encoding="utf-8")
    assert run_json(capsys, "stats", str(tmp_path / "in.csv"), "--json")[
        "complete_case_count"] == 1
    log = parse_csv((tmp_path / "in.csv").read_text(encoding="utf-8"),
                    {"case:complete": "string"})
    assert [t.attributes.get("complete") for t in log] == ["FALSE", None]
    (tmp_path / "bad.csv").write_text(header + "c1,A,2020-02-01T00:00:00+00:00,no\n",
                                      encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["stats", str(tmp_path / "bad.csv")]) == 2
    assert ("cannot parse 'no' as boolean in column 'case:complete' (row 2)"
            in capsys.readouterr().err)


def test_csv_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    """Spreadsheet tools save "CSV UTF-8" with a leading U+FEFF."""
    text = write_csv(make_log(["A", "B"], ["A"]))
    (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
    (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
    assert (tmp_path / "bom.csv").read_text(encoding="utf-8").startswith("\ufeffcase_id")
    assert (run_json(capsys, "stats", str(tmp_path / "bom.csv"), "--json")
            == run_json(capsys, "stats", str(tmp_path / "plain.csv"), "--json"))


# --- every output route: what each subcommand prints and writes, byte for byte ---------

VENT = ["--start", "startVentilation", "--end", "endVentilation"]


@pytest.fixture
def routed(tmp_path):
    """A log with ventilation intervals, a non-ASCII label and a label that CSV quotes,
    written as XES next to a PNML net; returns the library's renderings of it."""
    log = EventLog((make_trace("c1", ["A", "startVentilation", "Röntgen, Thorax", "endVentilation"],
                               ards=True),
                    make_trace("c2", ["startVentilation", "B", "endVentilation"],
                               start=T0 + timedelta(minutes=30), ards=False),
                    make_trace("c3", ["A", "B"], start=T0 + timedelta(hours=2))))
    (tmp_path / "log.xes").write_text(write_xes(log), encoding="utf-8")
    (tmp_path / "net.pnml").write_text(write_pnml(budget_net()), encoding="utf-8")
    graph = dfg.filter_dfg(dfg.discover_dfg(log), 0.0, 0.05)
    chart = analytics.dotted_chart(log)
    series = analytics.occupancy(log, "startVentilation", "endVentilation")
    result = replay_log(budget_net(), log)
    peak = {"timestamp": format_timestamp(series.peak[0]), "count": series.peak[1]}
    return {
        "dot": dfg.dfg_to_dot(graph), "dfg-json": dfg.dfg_to_json(graph),
        "chart-csv": analytics.dotted_chart_csv(chart),
        "chart-svg": analytics.dotted_chart_svg(chart),
        "occupancy-csv": analytics.occupancy_csv(series),
        "occupancy-svg": analytics.occupancy_svg(series),
        "occupancy-json": json.dumps({"breakpoints": len(series.breakpoints), "peak": peak},
                                     indent=2, sort_keys=True) + "\n",
        "peak": f"peak: {series.peak[1]} at {peak['timestamp']}\n",
        "replay-csv": replay_csv(result), "report": deviation_report(result),
        "replay-text": (f"log fitness: {result.log_fitness:.3f}\ntraces: 3  produced: "
                        f"{result.produced}  consumed: {result.consumed}  missing: "
                        f"{result.missing}  remaining: {result.remaining}\n"),
        "replay-json": json.dumps({"consumed": result.consumed, "log_fitness": result.log_fitness,
                                   "missing": result.missing, "produced": result.produced,
                                   "remaining": result.remaining, "traces": 3},
                                  indent=2, sort_keys=True) + "\n",
    }


# (subcommand and options, the option that names the output file and its name, what
# stdout shows after any "wrote" line, what the file holds); "" shows nothing
ROUTES = {
    "dfg": (["dfg"], None, "dot", None),
    "dfg-json": (["dfg", "--json"], None, "dfg-json", None),
    "dfg-out-dot": (["dfg"], ("--out", "g.dot"), "", "dot"),
    "dfg-out-json": (["dfg"], ("--out", "g.json"), "", "dfg-json"),
    "dfg-out-JSON": (["dfg"], ("--out", "G.JSON"), "", "dfg-json"),
    "dotted-chart": (["dotted-chart"], None, "chart-csv", None),
    "dotted-chart-svg": (["dotted-chart"], ("--out", "chart.svg"), "", "chart-svg"),
    "dotted-chart-SVG": (["dotted-chart"], ("--out", "P.SVG"), "", "chart-svg"),
    "dotted-chart-csv": (["dotted-chart"], ("--out", "chart.csv"), "", "chart-csv"),
    "occupancy": (["occupancy", *VENT], None, "occupancy-csv", None),
    "occupancy-json": (["occupancy", *VENT, "--json"], None, "occupancy-json", None),
    "occupancy-csv": (["occupancy", *VENT], ("--out", "o.csv"), "peak", "occupancy-csv"),
    "occupancy-svg": (["occupancy", *VENT], ("--out", "o.svg"), "peak", "occupancy-svg"),
    "occupancy-SVG": (["occupancy", *VENT], ("--out", "O.SVG"), "peak", "occupancy-svg"),
    "occupancy-json-csv": (["occupancy", *VENT, "--json"], ("--out", "o.csv"), "occupancy-json",
                           "occupancy-csv"),
    "occupancy-json-svg": (["occupancy", *VENT, "--json"], ("--out", "o.svg"), "occupancy-json",
                           "occupancy-svg"),
    "replay-out": (["replay", "--model", "net.pnml"], ("--out", "r.csv"), "replay-text",
                   "replay-csv"),
    "replay-report": (["replay", "--model", "net.pnml"], ("--report", "r.txt"), "replay-text",
                      "report"),
    "replay-json": (["replay", "--model", "net.pnml", "--json"], None, "replay-json", None),
}


@pytest.mark.parametrize("route", ROUTES)
def test_every_output_route_writes_what_the_library_renders(route, routed, tmp_path, monkeypatch,
                                                            capsysbinary):
    argv, target, shown, kept = ROUTES[route]
    monkeypatch.chdir(tmp_path)
    argv = [argv[0], "log.xes", *argv[1:], *(target or ())]
    assert cli.main(argv) == 0
    wrote = f"wrote {target[1]}\n" if target else ""
    assert capsysbinary.readouterr().out == (wrote + routed.get(shown, "")).encode("utf-8")
    if target:
        assert (tmp_path / target[1]).read_bytes() == routed[kept].encode("utf-8")


def test_a_log_suffix_selects_its_reader_in_any_case(tmp_path, capsys):
    log = make_log(["A", "B"], ["A"])
    (tmp_path / "a" / "b").mkdir(parents=True)
    for name in ("log.xes", "a/b/LOG.XES", "log.xml", "log.csv", "LOG.CSV"):
        (tmp_path / name).write_text((write_csv if "csv" in name.lower() else write_xes)(log),
                                     encoding="utf-8")
    expected = run_json(capsys, "stats", str(tmp_path / "log.xes"), "--json")
    for name in ("a/b/LOG.XES", "log.xml", "log.csv", "LOG.CSV"):
        assert run_json(capsys, "stats", str(tmp_path / name), "--json") == expected, name
    (tmp_path / "notes.txt").write_text(write_xes(log), encoding="utf-8")
    assert cli.main(["stats", str(tmp_path / "notes.txt")]) == 2
    assert "notes.txt" in capsys.readouterr().err


def test_a_bad_output_name_or_missing_noise_fails_before_any_work(tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("called before the arguments were checked")

    monkeypatch.setattr(cli, "simulate", forbidden)
    monkeypatch.setattr(cli, "_read_log", forbidden)
    out = str(tmp_path / "log.txt")
    for argv in (["simulate", "--config", "covas_desk.config", "--out", out],
                 ["convert", str(tmp_path / "in.xes"), out]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == (f"careflow: error: cannot infer log format from {out!r}; "
                       "expected .xes, .xml or .csv\n")
        assert not (tmp_path / "log.txt").exists()
    config = tmp_path / "quiet.config"
    config.write_text("".join(line for line in cli._resolve_config("covas_desk.config")
                              .splitlines(keepends=True) if not line.startswith("noise.")),
                      encoding="utf-8")
    assert cli.main(["simulate", "--config", str(config), "--with-noise",
                     "--out", str(tmp_path / "log.xes")]) == 2
    assert capsys.readouterr().err == ("careflow: error: --with-noise requires noise.* keys "
                                       "in the config\n")
