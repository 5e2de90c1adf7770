import json
from datetime import timedelta
from functools import partial

import pytest

from careflow import cli
from careflow.csvio import parse_csv, write_csv
from careflow.errors import ConfigError, CsvFormatError, PnmlFormatError, XesFormatError
from careflow.eventlog import EventLog
from careflow.petri import parse_pnml, write_pnml
from careflow.replay import replay_log
from careflow.simulate import parse_config
from careflow.xesio import parse_xes, write_xes
from helpers import budget_net, make_log, make_trace


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


@pytest.mark.parametrize("kind, text, location", [
    ("config", CONFIG + "noise.seed = x\n", "line 7"),
    ("config", CONFIG + "noise.drop_probability = x\n", "line 7"),
    ("config", CONFIG + "wave.x.share = 1\n", "line 7"),
    ("config", CONFIG + "wave. = 1\n", "line 7"),
    ("pnml", PNML.replace("<text>1</text></initialMarking>", "<text>one</text></initialMarking>"),
     "'p1'"),
    ("pnml", PNML.replace("<text>1</text></place>", "<text>1.5</text></place>"), "'p3'"),
    ("csv", CSV + ",B,2020-02-01T01:00:00+00:00\n", "row 3"),
    ("csv", CSV + "c1,,2020-02-01T01:00:00+00:00\n", "row 3"),
    ("csv", CSV + "c1,B,0001-01-01T00:00:00+01:00\n", "row 3"),
    ("xes", XES.replace("</log>", TRACE + "</log>"), "trace #2"),
    ("xes", XES.replace('value="A"', 'value=""'), "case 'c1'"),
    ("xes", XES.replace("2020-02-01T00:00:00+00:00", "0001-01-01T00:00:00+01:00"),
     "bad date literal"),
], ids=["noise-seed", "noise-drop", "wave-number", "wave-empty", "initial-marking",
        "final-marking", "empty-case", "empty-activity", "instant-out-of-range-csv",
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


@pytest.mark.parametrize("argv", [["no-such-command"], ["waves", "log.xes"],
                                  ["variants", "log.xes", "--top", "-1"]],
                         ids=["unknown-command", "missing-split", "negative-top"])
def test_usage_errors_exit_1(argv, capsys):
    assert cli.main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_csv_types_accept_bool(tmp_path):
    log = EventLog((make_trace("c1", ["A"], ards=True),))
    (tmp_path / "in.csv").write_text(write_csv(log), encoding="utf-8")
    assert cli.main(["convert", str(tmp_path / "in.csv"), str(tmp_path / "out.xes"),
                     "--types", "case:ards=bool"]) == 0
    assert parse_xes((tmp_path / "out.xes").read_text(encoding="utf-8")) == log


def test_csv_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    """Spreadsheet tools save "CSV UTF-8" with a leading U+FEFF."""
    text = write_csv(make_log(["A", "B"], ["A"]))
    (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
    (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
    assert (tmp_path / "bom.csv").read_text(encoding="utf-8").startswith("\ufeffcase_id")
    assert (run_json(capsys, "stats", str(tmp_path / "bom.csv"), "--json")
            == run_json(capsys, "stats", str(tmp_path / "plain.csv"), "--json"))
