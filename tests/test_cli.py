import json
from datetime import timedelta
from functools import partial

from careflow import cli
from careflow.petri import write_pnml
from careflow.replay import replay_log
from careflow.xesio import write_xes
from helpers import budget_net, make_log


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
