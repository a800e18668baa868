"""End-to-end CLI checks: flags, scenario parsing, artifacts, exit codes."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import socd
from socd import (
    HighwayParams,
    MechanismKind,
    ParticipationRecord,
    RingRoadParams,
    SwitchKind,
)
from socd.cli import (
    _RECORD_FIELDS,
    CliError,
    _csv,
    _exact,
    _records,
    main,
)

S1_SCENARIO = {
    "agents": [
        {"id": "a1", "arrive": 0, "leave": 10},
        {"id": "a2", "arrive": 4, "leave": 16},
        {"id": "a3", "arrive": 8, "leave": 20},
    ],
    "params": {"u": 1, "c": 0},
}

HIGHWAY_SCENARIO = {
    "experiment": "highway",
    "params": {"n_stations": 12, "n_convoys": 3, "agents_per_convoy": 3},
}

RING_SCENARIO = {
    "experiment": "ring",
    "params": {
        "n_stations": 10,
        "n_vehicles": 4,
        "target_mean_participations": 8,
        "curve_step": 2,
    },
}

RECORD_HEADER = "convoy,agent,actual_lead,epps,ratio,rotations,net_utility"


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("SOCD_SEED", raising=False)


def write_scenario(tmp_path: Path, doc: dict, name: str = "scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------- game


def test_game_scenario_reference_schedule(tmp_path, capsys):
    scenario = write_scenario(tmp_path, S1_SCENARIO)
    out_dir = tmp_path / "out"
    code = main(["--scenario", scenario, "--mechanism", "rg",
                 "--out", str(out_dir)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "rg: shares a1=4 a2=4 a3=12; efficiency 14" in out
    schedule = (out_dir / "schedule_rg.csv").read_text()
    assert schedule == "agent,start,stop\na1,0,4\na2,4,8\na3,8,20\n"


def test_game_artifacts_cover_all_mechanisms(tmp_path):
    scenario = write_scenario(tmp_path, S1_SCENARIO)
    out_dir = tmp_path / "out"
    assert main(["--scenario", scenario, "--out", str(out_dir)]) == 0
    names = {p.name for p in out_dir.iterdir()}
    for kind in ("pt", "rg", "sg", "sg-da"):
        assert f"schedule_{kind}.csv" in names
        assert f"switches_{kind}.csv" in names
        assert f"share_reports_{kind}.csv" in names
    assert "ledger_pt.csv" in names  # only the payment mechanism keeps one
    reports = (out_dir / "share_reports_sg-da.csv").read_text().splitlines()
    assert reports[0] == "agent,assigned,ex_ante,ex_post,net_utility,rotations"
    assert reports[1] == "a1,7,10,20/3,3,1"  # exact fraction cells


def test_game_json_document(tmp_path, capsys):
    scenario = write_scenario(tmp_path, S1_SCENARIO)
    code = main(["--scenario", scenario, "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    # the JSON document precedes the summary lines on stdout
    doc = json.loads(out[: out.rindex("}") + 1])
    assert set(doc["mechanisms"]) == {"pt", "rg", "sg", "sg-da"}
    da_shares = {
        r["agent"]: r["assigned"]
        for r in doc["mechanisms"]["sg-da"]["share_reports"]
    }
    assert da_shares == {"a1": "7", "a2": "16/3", "a3": "23/3"}
    assert doc["mechanisms"]["pt"]["ledger"] is not None
    assert doc["mechanisms"]["rg"]["ledger"] is None


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d["agents"][0].update(arrive=4.0), "agents[0].arrive"),
        (lambda d: d.update(extra=1), "unknown key 'extra'"),
        (lambda d: d["agents"][0].update(depart=9), "unknown key 'depart'"),
        (lambda d: d["params"].update(u=0), "u must be positive"),
        (lambda d: d["params"].update(ca=1), "params: ca must be zero"),
        (lambda d: d["agents"][1].update(arrive=0, leave="1/2"),
         "arrive"),  # duplicate arrival time
    ],
)
def test_malformed_game_scenarios_exit_1(tmp_path, capsys, mutate, fragment):
    doc = json.loads(json.dumps(S1_SCENARIO))
    mutate(doc)
    scenario = write_scenario(tmp_path, doc)
    code = main(["--scenario", scenario])
    _, err = capsys.readouterr()
    assert code == 1
    assert fragment in err


@pytest.mark.parametrize("ca", [0, "0"])
def test_zero_active_time_cost_is_accepted(tmp_path, capsys, ca):
    # `ca` is no GameParams field, but scenario files may still give it as 0
    code = main(["--scenario", write_scenario(tmp_path, S1_SCENARIO)])
    plain = capsys.readouterr()
    doc = dict(S1_SCENARIO, params={**S1_SCENARIO["params"], "ca": ca})
    assert main(["--scenario", write_scenario(tmp_path, doc)]) == code == 0
    assert capsys.readouterr() == plain


@pytest.mark.parametrize(
    "first_id, second_id, fragment",
    [
        ([1], "a2", "agent id [1] must be a str or an int"),
        ({"x": 1}, "a2", "agent id {'x': 1} must be a str or an int"),
        (True, "a2", "agent id True must be a str or an int"),
        (1, "1", "agent ids 1 and '1' print alike"),
    ],
)
def test_bad_agent_ids_exit_1(tmp_path, capsys, first_id, second_id, fragment):
    doc = json.loads(json.dumps(S1_SCENARIO))
    doc["agents"][0]["id"] = first_id
    doc["agents"][1]["id"] = second_id
    scenario = write_scenario(tmp_path, doc)
    code = main(["--scenario", scenario])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == f"error: {fragment}\n"
    assert out == ""


_A = {"id": "a", "arrive": 0, "leave": 5}
_CSV_REFUSAL = "holds a comma, a double quote, a CR or an LF"


@pytest.mark.parametrize(
    "doc, flags, message",
    [
        ({"agents": []}, [], "scenario field 'agents' must be a non-empty list"),
        ({"agents": [1]}, [], "agents[0]: expected an object"),
        ({"agents": [{"id": "a", "arrive": 0}]}, [],
         "agents[0]: missing field 'leave'"),
        ({"agents": [dict(_A, arrive=5)]}, [],
         "agents[0]: agent 'a' has an empty availability window"),
        ({"agents": [_A], "params": []}, [],
         "scenario field 'params' must be an object"),
        ({"experiment": "ring", "params": []}, [],
         "scenario field 'params' must be an object"),
        ({"experiment": None}, [], "unknown experiment None; use 'ring' or 'highway'"),
        ([], [], "scenario must be a JSON object"),
        (None, ["--experiment", "ring", "--config", "uniform"],
         "--config only applies to the highway experiment"),
        (None, ["--experiment", "ring", "--bogus"], "unrecognized arguments: --bogus"),
        ({"experiment": "ring", "params": {"road_length": 100}}, [],
         "unknown key 'road_length' in params"),
        ({"agents": [dict(_A, id="a,b")]}, [],
         f"agents[0]: agent id 'a,b' {_CSV_REFUSAL}"),
        ({"agents": [_A, dict(_A, id='c"d\ne', arrive=1)]}, [],
         f"agents[1]: agent id 'c\"d\\ne' {_CSV_REFUSAL}"),
        ({"agents": [dict(_A, id="\r")]}, [],
         f"agents[0]: agent id '\\r' {_CSV_REFUSAL}"),
        ({"agents": [_A, dict(_A, id="", arrive=1)]}, [],
         "agents[1]: agent id is empty"),
    ],
    ids=["no-agents", "agent-not-object", "missing-leave", "empty-window",
         "game-params-list", "experiment-params-list", "experiment-null",
         "scenario-list",
         "ring-config", "unknown-flag", "ring-road-length", "id-comma",
         "id-quote-lf", "id-cr", "id-empty"],
)
def test_validation_branches_exit_1_with_their_message(tmp_path, capsys, doc, flags,
                                                        message):
    argv = flags if doc is None else ["--scenario", write_scenario(tmp_path, doc)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: {message}\n")


_AGENT = '{"id": "a", "arrive": 0, "leave": 5}'


@pytest.mark.parametrize(
    "text, key",
    [
        (f'{{"agents": [{_AGENT}], "agents": []}}', "agents"),
        (f'{{"agents": [], "agents": [{_AGENT}]}}', "agents"),
        ('{"agents": [{"id": "a", "arrive": 0, "leave": 5, "leave": 9}]}', "leave"),
        (f'{{"agents": [{_AGENT}], "params": {{"u": 1, "c": 0, "u": 2}}}}', "u"),
    ],
    ids=["agents-then-empty", "empty-then-agents", "agent-leave", "params-u"],
)
def test_a_duplicate_scenario_key_exits_1_with_no_artifact(tmp_path, capsys, text, key):
    # json keeps the last value given for a key, so one of the two was ignored
    scenario, out_dir = tmp_path / "scenario.json", tmp_path / "out"
    scenario.write_text(text)
    code = main(["--scenario", str(scenario), "--out", str(out_dir)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: scenario: duplicate key {key!r}\n")
    assert not out_dir.exists()


_LONE_SURROGATE_GAME = {"agents": [dict(_A, id="a\ud800"), dict(_A, id="b", arrive=1)]}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_lone_surrogate_id_exits_1_before_any_output(tmp_path, capsys, fmt):
    # JSON's "\ud800" escape parses into a str that UTF-8 cannot encode; it
    # failed only when the output was written, after a whole result.json
    code = main(["--scenario", write_scenario(tmp_path, _LONE_SURROGATE_GAME),
                 "--format", fmt, "--mechanism", "rg"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == ("error: agents[0]: agent id 'a\\ud800' holds a lone surrogate, "
                   "which UTF-8 cannot encode\n")


def test_highway_of_single_agent_convoys_has_too_few_records(tmp_path, capsys):
    doc = {"experiment": "highway", "params": {"n_convoys": 1, "agents_per_convoy": 1}}
    code = main(["--scenario", write_scenario(tmp_path, doc),
                 "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"gini {kind}/uniform: too few records"
                                for kind in ("rg", "sg", "sg-da")]


def test_missing_scenario_file_exits_2(tmp_path, capsys):
    code = main(["--scenario", str(tmp_path / "absent.json")])
    _, err = capsys.readouterr()
    assert code == 2
    assert "i/o error" in err


def test_non_json_scenario_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    code = main(["--scenario", str(path)])
    _, err = capsys.readouterr()
    assert code == 1
    assert "not valid JSON" in err


def test_too_deeply_nested_scenario_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["--scenario", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: scenario is not valid JSON: ")


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"agents": [{"id": "a", "arrive": 0, "leave": "1e999999999"}]},
         "agents[0].leave"),
        (dict(S1_SCENARIO, params={"u": "1e-999999999"}), "params.u"),
        (dict(HIGHWAY_SCENARIO, params={"switch_cost": "1E+4301"}),
         "params.switch_cost"),
    ],
)
def test_huge_exponents_exit_1_without_hanging(tmp_path, doc, where):
    # Fraction would build 10**|exponent|; in a subprocess, so a regression
    # fails on the timeout instead of hanging the suite
    env = dict(os.environ, PYTHONPATH=str(Path(socd.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "socd.cli", "--scenario", write_scenario(tmp_path, doc)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"error: {where}: not an exact number: ")


def test_values_within_the_digit_bound_are_exact():
    assert _exact("1e99", "x") == 10**99
    assert _exact(" 1.5E-99 ", "x") == Fraction(3, 2 * 10**99)
    assert _exact("1_0e1_0", "x") == 10**11
    with pytest.raises(CliError, match="x: not an exact number"):
        _exact("1e4301", "x")
    for value in ("1e100", "-1e100", "1e-100", "1/" + "7" * 101, 10**100, "1e4300"):
        with pytest.raises(CliError, match="x: more than 100 digits"):
            _exact(value, "x")


@pytest.mark.parametrize(
    "doc, where",
    [
        (dict(HIGHWAY_SCENARIO, params={"switch_cost": "1e4300"}),
         "params.switch_cost"),
        ({"agents": [{"id": "a", "arrive": 0, "leave": "1e4300"}]},
         "agents[0].leave"),
    ],
)
def test_huge_values_exit_1_naming_the_field(tmp_path, doc, where):
    # both used to crash after parsing: a float overflow in the highway's
    # utilities, an unprintable 4301-digit int in the game's artifacts; in a
    # subprocess, so a regression fails on the timeout instead of hanging
    env = dict(os.environ, PYTHONPATH=str(Path(socd.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "socd.cli", "--scenario", write_scenario(tmp_path, doc),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"error: {where}: more than 100 digits")
    assert "Traceback" not in proc.stderr


def test_game_denominators_are_bounded_together(tmp_path, capsys):
    # pairwise coprime denominators of 98 or 99 digits: every value is in
    # bound, but their common multiple passes 1000 digits at the 11th
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    denominators = [b ** int(99 / math.log10(b)) for b in bases]
    assert all(10**97 < d < 10**99 for d in denominators)
    doc = {"agents": [{"id": f"a{k}", "arrive": k, "leave": f"{(k + 1) * d + 1}/{d}"}
                      for k, d in enumerate(denominators)]}
    code = main(["--scenario", write_scenario(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == (f"error: agents[{len(bases) - 1}].leave: the game's denominators "
                   "together need more than 1000 digits\n")


def test_unknown_mechanism_name(tmp_path, capsys):
    scenario = write_scenario(tmp_path, S1_SCENARIO)
    code = main(["--scenario", scenario, "--mechanism", "zz"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "unknown mechanism 'zz'" in err


@pytest.mark.parametrize("selection", ["rg,rg", "sg, rg ,sg"])
def test_repeated_mechanism_exit_1(capsys, monkeypatch, selection):
    # each repeat wrote its records, summary and Gini row again
    monkeypatch.setattr("socd.cli.highway_experiment",
                        lambda *args: pytest.fail("the experiment ran"))
    code = main(["--experiment", "highway", "--mechanism", selection])
    name = selection.split(",")[0].strip()
    assert (code, *capsys.readouterr()) == (
        1, "", f"error: mechanism {name!r} is selected twice\n")


def test_experiment_flags_rejected_for_games(tmp_path, capsys):
    scenario = write_scenario(tmp_path, S1_SCENARIO)
    assert main(["--scenario", scenario, "--seeds", "3"]) == 1
    _, err = capsys.readouterr()
    assert "--seeds only applies to experiments" in err
    for seed in ("3", "-5"):
        assert main(["--scenario", scenario, "--seed", seed]) == 1
        assert capsys.readouterr() == (
            "", "error: --seed only applies to experiments\n"
        )
    assert main(["--scenario", scenario, "--config", "uniform"]) == 1


@pytest.mark.parametrize("env", ["abc", "-5", "7"])
def test_games_ignore_the_env_seed(tmp_path, capsys, monkeypatch, env):
    scenario = write_scenario(tmp_path, S1_SCENARIO)
    assert main(["--scenario", scenario, "--format", "json"]) == 0
    unseeded = capsys.readouterr()
    monkeypatch.setenv("SOCD_SEED", env)
    assert main(["--scenario", scenario, "--format", "json"]) == 0
    assert capsys.readouterr() == unseeded


def test_exactly_one_mode_required(tmp_path, capsys):
    assert main([]) == 1
    scenario = write_scenario(tmp_path, S1_SCENARIO)
    assert main(["--scenario", scenario, "--experiment", "ring"]) == 1


# --------------------------------------------------------------------- seeds


def test_env_seed_feeds_experiments(tmp_path, capsys, monkeypatch):
    scenario = write_scenario(tmp_path, HIGHWAY_SCENARIO)
    monkeypatch.setenv("SOCD_SEED", "7")
    code = main(["--scenario", scenario, "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out[: out.rindex("}") + 1])["seeds"] == [7]


def test_seed_flag_overrides_env(tmp_path, capsys, monkeypatch):
    scenario = write_scenario(tmp_path, HIGHWAY_SCENARIO)
    monkeypatch.setenv("SOCD_SEED", "7")
    code = main(["--scenario", scenario, "--format", "json", "--seed", "3"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out[: out.rindex("}") + 1])["seeds"] == [3]


def test_scenario_seed_overrides_env(tmp_path, capsys, monkeypatch):
    doc = dict(HIGHWAY_SCENARIO, seed=5, seeds=2)
    scenario = write_scenario(tmp_path, doc)
    monkeypatch.setenv("SOCD_SEED", "7")
    code = main(["--scenario", scenario, "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out[: out.rindex("}") + 1])["seeds"] == [5, 6]


def test_invalid_env_seed(tmp_path, capsys, monkeypatch):
    scenario = write_scenario(tmp_path, HIGHWAY_SCENARIO)
    monkeypatch.setenv("SOCD_SEED", "abc")
    code = main(["--scenario", scenario])
    _, err = capsys.readouterr()
    assert code == 1
    assert "SOCD_SEED" in err


@pytest.mark.parametrize("experiment", ["highway", "ring"])
@pytest.mark.parametrize("source", ["flag", "env", "scenario"])
def test_negative_seed_is_named(tmp_path, capsys, monkeypatch, experiment, source):
    argv = ["--experiment", experiment]
    if source == "flag":
        argv += ["--seed", "-1"]
    elif source == "env":
        monkeypatch.setenv("SOCD_SEED", "-1")
    else:
        doc = HIGHWAY_SCENARIO if experiment == "highway" else RING_SCENARIO
        argv = ["--scenario", write_scenario(tmp_path, dict(doc, seed=-1))]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: seed must be non-negative, not -1\n")


def test_nonpositive_seeds_rejected(tmp_path, capsys):
    scenario = write_scenario(tmp_path, HIGHWAY_SCENARIO)
    assert main(["--scenario", scenario, "--seeds", "0"]) == 1
    assert capsys.readouterr() == ("", "error: seeds must be at least 1\n")
    scenario = write_scenario(tmp_path, dict(HIGHWAY_SCENARIO, seeds=-2))
    assert main(["--scenario", scenario]) == 1
    assert capsys.readouterr() == ("", "error: seeds must be at least 1\n")


@pytest.mark.parametrize("experiment", ["highway", "ring"])
@pytest.mark.parametrize("n_seeds", [10**6 + 1, 10**10, 10**20])
@pytest.mark.parametrize("source", ["flag", "scenario"])
def test_seeds_are_bounded(tmp_path, capsys, monkeypatch, experiment, n_seeds, source):
    # the seed list was built first: 10**10 seeds ended in a MemoryError and
    # 10**20 in an OverflowError, both tracebacks
    def never(*args, **kwargs):
        pytest.fail("a seed ran")

    monkeypatch.setattr("socd.cli.ring_road_experiment", never)
    monkeypatch.setattr("socd.cli.highway_experiment", never)
    doc = HIGHWAY_SCENARIO if experiment == "highway" else RING_SCENARIO
    if source == "flag":
        argv = ["--scenario", write_scenario(tmp_path, doc), "--seeds", str(n_seeds)]
    else:
        argv = ["--scenario", write_scenario(tmp_path, dict(doc, seeds=n_seeds))]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: seeds must be at most 1000000\n")


def test_seeds_at_the_bound_are_accepted(monkeypatch):
    ran = []

    def run_ring(params, seeds):
        ran.append(seeds)
        return [], {}, None

    monkeypatch.setattr("socd.cli._run_ring", run_ring)
    assert main(["--experiment", "ring", "--seed", "5", "--seeds", "1000000"]) == 0
    assert ran == [range(5, 5 + 10**6)]


# --------------------------------------------------------------- experiments


def test_highway_artifacts_and_summary(tmp_path, capsys):
    scenario = write_scenario(tmp_path, HIGHWAY_SCENARIO)
    out_dir = tmp_path / "out"
    code = main(["--scenario", scenario, "--out", str(out_dir)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert re.search(r"gini rg/uniform = \d\.\d\d\n", out)
    gini_lines = (out_dir / "gini.csv").read_text().splitlines()
    assert gini_lines[0] == "mechanism,configuration,seed,gini"
    records = (out_dir / "records_rg.csv").read_text().splitlines()
    assert records[0] == RECORD_HEADER
    assert len(records) == 1 + 3 * 3  # three convoys of three agents


def test_highway_multi_seed_artifacts(tmp_path):
    scenario = write_scenario(tmp_path, HIGHWAY_SCENARIO)
    out_dir = tmp_path / "out"
    code = main(["--scenario", scenario, "--seeds", "2", "--mechanism", "sg",
                 "--out", str(out_dir)])
    assert code == 0
    names = {p.name for p in out_dir.iterdir()}
    assert names == {"gini.csv", "records_sg_seed0.csv", "records_sg_seed1.csv"}


def test_highway_config_flag_switches_pattern(tmp_path, capsys):
    scenario = write_scenario(tmp_path, HIGHWAY_SCENARIO)
    code = main(["--scenario", scenario, "--config", "bimodal",
                 "--mechanism", "rg", "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    doc = json.loads(out[: out.rindex("}") + 1])
    assert doc["params"]["configuration"] == "bimodal"


def test_builtin_experiment_needs_no_scenario_file(capsys):
    # default highway parameters, trimmed to one mechanism for speed
    code = main(["--experiment", "highway", "--mechanism", "rg"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "gini rg/uniform" in out


def test_ring_experiment_outputs(tmp_path, capsys):
    scenario = write_scenario(tmp_path, RING_SCENARIO)
    out_dir = tmp_path / "out"
    code = main(["--scenario", scenario, "--out", str(out_dir)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "unsatisfied fraction" in out
    curve = (out_dir / "curve.csv").read_text().splitlines()
    assert curve[0] == "mean_participations,unsatisfied_fraction,band_low,band_high"
    assert len(curve) == 1 + 4  # checkpoints at 2, 4, 6, 8
    records = (out_dir / "records.csv").read_text().splitlines()
    assert records[0] == RECORD_HEADER


@pytest.mark.parametrize(
    "params, rows, summary",
    [
        ({"target_mean_participations": 5, "curve_step": 10}, 500,
         ["no curve checkpoint reached: curve_step 10 exceeds "
          "target_mean_participations 5"]),
        ({"join_probability": 0}, 0, ["no participations recorded"]),
    ],
    ids=["step-past-target", "no-joins"],
)
def test_ring_summary_without_curve_points(tmp_path, capsys, params, rows, summary):
    doc = {"experiment": "ring", "params": params}
    out_dir = tmp_path / "out"
    assert main(["--scenario", write_scenario(tmp_path, doc), "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out.splitlines() == summary
    assert len((out_dir / "records.csv").read_text().splitlines()) == 1 + rows
    assert (out_dir / "curve.csv").read_text().count("\n") == 1


def test_ring_scenario_accepts_long_experiment_name(tmp_path, capsys):
    doc = dict(RING_SCENARIO, experiment="ring_road")
    scenario = write_scenario(tmp_path, doc)
    assert main(["--scenario", scenario]) == 0
    capsys.readouterr()


def test_ring_runs_under_rg_only(tmp_path, capsys):
    scenario = write_scenario(tmp_path, RING_SCENARIO)
    code = main(["--scenario", scenario, "--mechanism", "pt"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "ring road experiment runs under rg only" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("target_mean_participations", math.inf),
        ("target_mean_participations", math.nan),
        ("curve_step", math.nan),
    ],
)
def test_non_finite_ring_params_exit_1(tmp_path, capsys, key, value):
    doc = json.loads(json.dumps(RING_SCENARIO))
    doc["params"][key] = value  # written as JSON Infinity / NaN
    scenario = write_scenario(tmp_path, doc)
    code = main(["--scenario", scenario])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == f"error: params: {key} must be finite\n"
    assert out == ""


@pytest.mark.parametrize(
    "key", ["join_probability", "target_mean_participations", "curve_step"]
)
def test_ring_params_too_large_for_a_float_exit_1(tmp_path, capsys, key):
    # a 401-digit JSON integer: float() of it raised OverflowError, a traceback
    doc = dict(RING_SCENARIO, params={**RING_SCENARIO["params"], key: 10**400})
    code = main(["--scenario", write_scenario(tmp_path, doc)])
    assert (code, *capsys.readouterr()) == (
        1, "", f"error: params.{key}: too large for a float\n")


# one vehicle riding 10**6 participations, the most the record bound allows
LONG_RING = dict(RING_SCENARIO, params={**RING_SCENARIO["params"], "n_vehicles": 1,
                                        "target_mean_participations": 10**6,
                                        "curve_step": 1000})
SECTIONS = ("target_mean_participations * n_stations / join_probability (the "
            "estimated section count) must be at most 100000000")
CURVE_READS = ("n_vehicles * target_mean_participations / curve_step (the curve's "
               "vehicle reads) must be at most 100000000")


@pytest.mark.parametrize(
    "base, key, value, message",
    [
        (RING_SCENARIO, "n_stations", 10**20, "n_stations must be at most 1000000"),
        (RING_SCENARIO, "n_vehicles", 10**20, "n_vehicles must be at most 1000000"),
        (dict(RING_SCENARIO, params={**RING_SCENARIO["params"], "n_vehicles": 2}),
         "curve_step", 1e-300, "target_mean_participations / curve_step (the "
         "checkpoint count) must be at most 1000000"),
        (dict(RING_SCENARIO, params={**RING_SCENARIO["params"], "n_vehicles": 2,
                                     "curve_step": 1e7}),
         "target_mean_participations", 1e12, "target_mean_participations * "
         "n_vehicles (the record count) must be at most 1000000"),
        # these two ran past a 20-s timeout
        ({"experiment": "ring", "params": {}}, "join_probability", 1e-9, SECTIONS),
        (LONG_RING, "n_stations", 10**6, SECTIONS),
        # one station past the bound: 10**6 * 51 / 0.5
        (dict(LONG_RING, params={**LONG_RING["params"], "curve_step": 1,
                                 "join_probability": 0.5}),
         "n_stations", 51, SECTIONS),
        # one vehicle past the bound: (5**8 + 1) * 1 / 2**-8
        (dict(RING_SCENARIO, params={**RING_SCENARIO["params"],
                                     "target_mean_participations": 1,
                                     "curve_step": 2**-8}),
         "n_vehicles", 5**8 + 1, CURVE_READS),
        (HIGHWAY_SCENARIO, "n_stations", 10**20, "n_stations must be at most 1000000"),
        (HIGHWAY_SCENARIO, "n_convoys", 10**20, "n_convoys must be at most 1000000"),
        (HIGHWAY_SCENARIO, "n_convoys", 10**6, "n_convoys * agents_per_convoy (the "
         "record count per mechanism) must be at most 1000000"),
    ],
    ids=["ring-n_stations", "ring-n_vehicles", "ring-checkpoints", "ring-records",
         "ring-rare-joins", "ring-long-road", "ring-sections", "ring-curve-reads",
         "highway-n_stations", "highway-n_convoys", "highway-records"],
)
def test_experiment_sizes_are_bounded(tmp_path, capsys, monkeypatch, base, key, value,
                                      message):
    # refused when the params are built, before the experiment allocates or
    # loops: these used to overflow numpy, exhaust memory or never finish
    def never(*args, **kwargs):
        pytest.fail("the experiment ran")

    monkeypatch.setattr("socd.cli.ring_road_experiment", never)
    monkeypatch.setattr("socd.cli.highway_experiment", never)
    doc = dict(base, params={**base["params"], key: value})
    code = main(["--scenario", write_scenario(tmp_path, doc)])
    assert (code, *capsys.readouterr()) == (1, "", f"error: params: {message}\n")


def test_experiment_sizes_at_the_bound_are_accepted():
    # the record counts, target_mean_participations * n_vehicles and
    # n_convoys * agents_per_convoy, are bounded too, so each factor reaches
    # the bound with the other at 1 (and every join probability at 1, so the
    # estimated section count stays at its own bound)
    RingRoadParams(n_stations=10**6, n_vehicles=10**6,
                   target_mean_participations=1, curve_step=1)
    RingRoadParams(n_vehicles=1, target_mean_participations=10**6, curve_step=1,
                   join_probability=1.0)
    # the curve's vehicle reads, 5**8 * 1 / 2**-8, exactly 10**8
    RingRoadParams(n_vehicles=5**8, target_mean_participations=1, curve_step=2**-8)
    HighwayParams(n_stations=10**6, n_convoys=10**6, agents_per_convoy=1)


class _LoopStarted(Exception):
    pass


@pytest.mark.parametrize(
    "params",
    [
        {"join_probability": 1e-3},  # 1000 * 100 / 1e-3, about 20 s
        {"n_vehicles": 1, "target_mean_participations": 10**6, "curve_step": 1,
         "n_stations": 50, "join_probability": 0.5},
        # no join draws, so no loop however long the road
        {"n_vehicles": 1, "target_mean_participations": 10**6, "curve_step": 1,
         "n_stations": 10**6, "join_probability": 0},
    ],
    ids=["rare-joins", "long-road", "no-joins"],
)
def test_ring_sections_at_the_bound_are_accepted(tmp_path, monkeypatch, params):
    def start(*args, **kwargs):
        raise _LoopStarted

    monkeypatch.setattr("socd.simulation._draws", start)
    argv = ["--scenario", write_scenario(tmp_path, {"experiment": "ring",
                                                    "params": params}),
            "--out", str(tmp_path / "out")]
    if params["join_probability"]:
        with pytest.raises(_LoopStarted):
            main(argv)
    else:
        assert main(argv) == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("doc", [RING_SCENARIO, HIGHWAY_SCENARIO], ids=["ring", "highway"])
def test_experiments_build_no_record_on_the_cli_path(tmp_path, record_counts, doc, fmt):
    """The CLI writes an experiment's records from its rows: no
    `ParticipationRecord` is built, in either format."""
    built, checked = record_counts
    out_dir = tmp_path / "out"
    argv = ["--scenario", write_scenario(tmp_path, doc), "--seeds", "2",
            "--format", fmt, "--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert built == []
    written = "".join(path.read_text() for path in out_dir.iterdir())
    assert written.count('"net_utility"' if fmt == "json" else "\n") >= len(checked) > 20
    # the count sees a record built anywhere
    ParticipationRecord(agent=1, convoy=0, actual_lead=1.0, epps=2.0)
    assert len(built) == 1


def test_unknown_experiment_name(tmp_path, capsys):
    scenario = write_scenario(tmp_path, {"experiment": "maze", "params": {}})
    code = main(["--scenario", scenario])
    _, err = capsys.readouterr()
    assert code == 1
    assert "unknown experiment" in err


# ------------------------------------------------------------- determinism


def _cases(*pairs):
    return [pytest.param(value, text, id=repr(value)) for value, text in pairs]


@pytest.mark.parametrize(
    "value, text",
    _cases(
        (True, "True"),
        (False, "False"),
        # an enum cell is `str` of the enum, which is why the row builders
        # give an enum by its value
        *((kind, str(kind)) for kind in MechanismKind),
        (SwitchKind.FRONT_JOIN, str(SwitchKind.FRONT_JOIN)),
        (Fraction(-7, 3), "-7/3"),
        (Fraction(5), "5"),
        (-0.0, "-0.0"),
        (1e-320, "1e-320"),
        (float("inf"), "inf"),
        (float("nan"), "nan"),
        (3**100, "515377520732011331036461129765621272702107522001"),
        ("v7", "v7"),
        (7, "7"),
        (None, "None"),
        (np.int64(3), "3"),
        # a numpy float prints by `str`: "0.1", not its repr "np.float64(0.1)"
        (np.float64(0.1), "0.1"),
    ),
)
def test_cell_formatter_matches_fmt(value, text):
    """Each CSV cell is `str` of its value: exact fractions, floats and ints
    by repr, str ids as they are."""
    assert _csv(("x",), [(value,)]) == f"x\n{text}\n"


def test_record_csv_matches_the_oracle():
    """Record files are the table writer's `_csv` of the record columns,
    picked from experiment rows (the record fields in field order), each
    cell `str` of its value, for every Python type a record holds."""
    nan, inf = float("nan"), float("inf")
    records = [
        ParticipationRecord(agent="a1", convoy="c1", actual_lead=1.0, epps=2.0),
        ParticipationRecord(agent=7, convoy=0, actual_lead=3.0, epps=1e-300,
                            rotations=2, net_utility=-0.0),
        ParticipationRecord(agent=1.5, convoy=3**40, actual_lead=0.0, epps=inf,
                            net_utility=nan),
        ParticipationRecord(agent="a2", convoy=4, actual_lead=Fraction(1, 2),
                            epps=2.0, net_utility=Fraction(-1, 3)),
        ParticipationRecord(agent="a3", convoy=5, actual_lead=2.0, epps=2.0,
                            ratio=nan, net_utility="x"),
    ]

    def rows(records):
        return [tuple(getattr(r, field) for field in _RECORD_FIELDS) for r in records]

    for some in [records, *([r] for r in records), []]:
        want = "".join(f"{line}\n" for line in [RECORD_HEADER, *(
            ",".join(str(getattr(r, column)) for column in RECORD_HEADER.split(","))
            for r in some)])
        assert _csv(*_records(rows(some))) == want
    lines = _csv(*_records(rows(records))).splitlines()
    assert lines[0] == RECORD_HEADER
    assert lines[2] == "0,7,3.0,1e-300,3e+300,2,-0.0"
    assert lines[3] == f"{3**40},1.5,0.0,inf,0.0,0,nan"
    assert lines[4] == "4,a2,1/2,2.0,0.25,0,-1/3"
    assert lines[5] == "5,a3,2.0,2.0,nan,0,x"


def test_highway_negative_switch_cost_exits_1_naming_it(tmp_path, capsys):
    for value in (-1, "-1/2"):
        doc = json.loads(json.dumps(HIGHWAY_SCENARIO))
        doc["params"]["switch_cost"] = value
        code = main(["--scenario", write_scenario(tmp_path, doc)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: params: switch_cost must be non-negative")


def test_reruns_are_byte_identical(tmp_path, capsys):
    scenario = write_scenario(tmp_path, HIGHWAY_SCENARIO)
    dirs = (tmp_path / "first", tmp_path / "second")
    for d in dirs:
        assert main(["--scenario", scenario, "--out", str(d)]) == 0
    capsys.readouterr()
    first, second = ({p.name: p.read_bytes() for p in d.iterdir()} for d in dirs)
    assert first == second
    assert set(first) >= {"gini.csv", "records_rg.csv"}


def test_game_reruns_are_byte_identical(tmp_path, capsys):
    scenario = write_scenario(tmp_path, S1_SCENARIO)
    dirs = (tmp_path / "first", tmp_path / "second")
    for d in dirs:
        assert main(["--scenario", scenario, "--format", "json",
                     "--out", str(d)]) == 0
    capsys.readouterr()
    a, b = ((d / "result.json").read_bytes() for d in dirs)
    assert a == b


# ------------------------------------------------------- the contract, fuzzed

_numbers = st.one_of(st.integers(-2, 12), st.floats(0, 10), st.none(),
                     st.sampled_from(["1/2", "5/7", "x", "1e2", ""]))
# Ids by the scenario's rules, or odd: CSV metacharacters, bools, null, lists,
# a lone surrogate, the empty id.
_ids = st.text(alphabet="ab1 é", min_size=1, max_size=3) | st.integers(-2, 9)
_odd_ids = st.one_of(st.text(alphabet=',"\r\nab', min_size=1, max_size=3),
                     st.booleans(), st.none(), st.lists(st.integers(0, 2), max_size=2),
                     st.just("a\ud800"), st.just(""))


@st.composite
def _game_docs(draw):
    """Small games, mostly well formed: each agent's field is odd one time
    in four."""
    agents = []
    for k in range(draw(st.integers(1, 4))):
        arrive = k + draw(st.sampled_from([0, Fraction(1, 2), Fraction(1, 3)]))
        agent = {"id": draw(_ids), "arrive": str(arrive),
                 "leave": str(arrive + draw(st.integers(1, 6)))}
        if draw(st.integers(0, 3)) == 0:
            key = draw(st.sampled_from(sorted(agent)))
            agent[key] = draw(_odd_ids if key == "id" else _numbers)
        agents.append(agent)
    doc = {"agents": agents}
    if draw(st.booleans()):
        doc["params"] = draw(st.fixed_dictionaries({}, optional={"u": _numbers,
                                                                 "c": _numbers}))
    return doc


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_game_docs(), st.sampled_from(["csv", "json"]))
@example({"agents": [{"id": "a,b", "arrive": 0, "leave": 4},
                     {"id": 'c"d\ne', "arrive": 1, "leave": 3}]}, "csv")
@example(_LONE_SURROGATE_GAME, "csv")
@example(_LONE_SURROGATE_GAME, "json")
@example({"agents": [dict(_A, id="")]}, "csv")
def test_the_cli_contract_holds_on_fuzzed_games(doc, fmt):
    assert_cli_contract(doc, fmt)


def assert_cli_contract(doc, fmt):
    """Exit 0 or 1, never a raise; exit 1 writes one `error:` line and no
    artifact; exit 0 writes CSVs whose rows all have the header's width and
    no empty cell (which a CSV reader takes as a missing value), and JSON
    that loads."""
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = Path(tmp, "scenario.json"), Path(tmp, "out")
        scenario.write_text(json.dumps(doc))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--scenario", str(scenario), "--format", fmt,
                         "--out", str(out)])
        assert code in (0, 1)
        if code == 1:
            assert stdout.getvalue() == "" and not out.exists()
            assert re.fullmatch(r"error: [^\n]*\n", stderr.getvalue())
            return
        assert stderr.getvalue() == ""
        for path in out.iterdir():
            text = path.read_text(encoding="utf-8")
            if path.suffix == ".csv":
                rows = list(csv.reader(io.StringIO(text, newline="")))
                assert {len(row) for row in rows} == {len(rows[0])}, path.name
                assert all(all(row) for row in rows), path.name
            else:
                json.loads(text)


# Odd values for any field: wrong types, out of range, non-finite, too large
# for a float.  None of them is a size that runs long: each is refused, or
# (a huge curve_step, a target of 1.5) runs as a small size.
_odd = st.sampled_from([-1, 0, 1.5, 2**70, 10**400, math.nan, math.inf, True, None,
                        "x", "1/2", "", [1], {}])
# Sizes from ranges where a run takes milliseconds.  The fields that set a
# run's length are always given, since their defaults run for a second or
# more; the others are optional.
_RING = ({"n_stations": st.integers(1, 6), "n_vehicles": st.integers(1, 4),
          "target_mean_participations": st.integers(1, 4) | st.floats(0.5, 4)},
         {"join_probability": st.floats(0.2, 1) | st.sampled_from([0, 1]),
          "curve_step": st.integers(1, 2) | st.floats(0.25, 2)})
_HIGHWAY = ({"n_stations": st.integers(2, 12), "n_convoys": st.integers(1, 3),
             "agents_per_convoy": st.integers(1, 4)},
            {"configuration": st.sampled_from(["uniform", "bimodal"]),
             "switch_cost": st.integers(0, 3) | st.sampled_from(["1/2", "5/7"])})


# True about one draw in eight (Hypothesis leans to the first element, False)
_rarely = st.sampled_from([False] * 7 + [True])


@st.composite
def _experiment_docs(draw):
    """Small ring and highway scenarios, mostly well formed: about one field
    in eight odd, one scenario in eight with a wrong key in `params` and one
    in eight with a wrong key beside it."""
    name = draw(st.sampled_from(["ring", "highway", "ring_road"]))
    required, optional = _RING if name != "highway" else _HIGHWAY
    params = draw(st.fixed_dictionaries(required, optional=optional))
    for key in sorted(params):
        if draw(_rarely):
            params[key] = draw(_odd)
    if draw(_rarely):
        # a misspelt field, a field of the other experiment, or the seed
        params[draw(st.sampled_from(["n_station", "n_convoys", "n_vehicles",
                                     "seed"]))] = 2
    doc = {"experiment": draw(st.sampled_from([name] * 7 + ["maze", None])),
           "params": draw(st.sampled_from([params] * 7 + [[], None]))}
    for key, values in (("seed", st.integers(0, 9)), ("seeds", st.integers(1, 3))):
        if draw(st.booleans()):
            doc[key] = draw(_odd if draw(_rarely) else values)
    if draw(_rarely):
        doc[draw(st.sampled_from(["agents", "mechanism", "seedz"]))] = 1
    return doc


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_experiment_docs(), st.sampled_from(["csv", "json"]))
def test_the_cli_contract_holds_on_fuzzed_experiments(doc, fmt):
    assert_cli_contract(doc, fmt)
