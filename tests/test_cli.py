"""End-to-end CLI checks: flags, scenario parsing, artifacts, exit codes."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import socd
from socd import (
    HighwayParams,
    MechanismKind,
    ParticipationRecord,
    RingRoadParams,
    SwitchKind,
)
from socd.cli import (
    _RECORD_COLUMNS,
    CliError,
    _attrs,
    _cell,
    _csv,
    _exact,
    _records_csv,
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
        "road_length": 10,
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

    def run_ring(params, seeds, fmt):
        ran.append(seeds)
        return [], {}

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
        ("road_length", math.inf),
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
    "key", ["road_length", "join_probability", "target_mean_participations", "curve_step"]
)
def test_ring_params_too_large_for_a_float_exit_1(tmp_path, capsys, key):
    # a 401-digit JSON integer: float() of it raised OverflowError, a traceback
    doc = dict(RING_SCENARIO, params={**RING_SCENARIO["params"], key: 10**400})
    code = main(["--scenario", write_scenario(tmp_path, doc)])
    assert (code, *capsys.readouterr()) == (
        1, "", f"error: params.{key}: too large for a float\n")


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
        (HIGHWAY_SCENARIO, "n_stations", 10**20, "n_stations must be at most 1000000"),
        (HIGHWAY_SCENARIO, "n_convoys", 10**20, "n_convoys must be at most 1000000"),
        (HIGHWAY_SCENARIO, "n_convoys", 10**6, "n_convoys * agents_per_convoy (the "
         "record count per mechanism) must be at most 1000000"),
    ],
    ids=["ring-n_stations", "ring-n_vehicles", "ring-checkpoints", "ring-records",
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
    # the bound with the other at 1
    RingRoadParams(n_stations=10**6, n_vehicles=10**6,
                   target_mean_participations=1, curve_step=1)
    RingRoadParams(n_vehicles=1, target_mean_participations=10**6, curve_step=1)
    HighwayParams(n_stations=10**6, n_convoys=10**6, agents_per_convoy=1)


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
        *((kind, kind.value) for kind in MechanismKind),
        (SwitchKind.FRONT_JOIN, "front_join"),
        (Fraction(-7, 3), "-7/3"),
        (-0.0, "-0.0"),
        (1e-320, "1e-320"),
        (float("inf"), "inf"),
        (3**100, "515377520732011331036461129765621272702107522001"),
        ("v7", "v7"),
        (None, "None"),
        (np.int64(3), "3"),
        # a float subclass keeps its own repr ("np.float64(0.1)" on numpy 2)
        (np.float64(0.1), repr(np.float64(0.1))),
    ),
)
def test_cell_formatter_matches_fmt(value, text):
    """Each CSV cell has its documented format: exact fractions, enum values,
    repr for floats and ints, str for the rest."""
    assert _cell(value) == text


def test_records_csv_matches_the_table_writer():
    """The one-f-string row writer gives `_csv`'s bytes, and a row with any
    other value type keeps `_cell`'s format (repr of numpy floats, str of
    fractions and of str values)."""
    nan, inf = float("nan"), float("inf")
    records = [
        ParticipationRecord(agent="a1", convoy="c1", actual_lead=1.0, epps=2.0),
        ParticipationRecord(agent=7, convoy=0, actual_lead=3.0, epps=1e-300,
                            rotations=2, net_utility=-0.0),
        ParticipationRecord(agent=1.5, convoy=3**40, actual_lead=0.0, epps=inf,
                            net_utility=nan),
        ParticipationRecord(agent=1, convoy=1, actual_lead=1.0, epps=4.0,
                            rotations=True),
        ParticipationRecord(agent=np.int64(2), convoy=np.int64(5),
                            actual_lead=np.float64(1.5), epps=np.float64(0.1),
                            rotations=np.int64(1)),
        ParticipationRecord(agent="a2", convoy=4, actual_lead=Fraction(1, 2),
                            epps=2.0, net_utility=Fraction(-1, 3)),
        ParticipationRecord(agent="a3", convoy=5, actual_lead=2.0, epps=2.0,
                            ratio=nan, net_utility="x"),
    ]
    for rows in [records, *([r] for r in records), []]:
        assert _records_csv(rows) == _csv(*_attrs(_RECORD_COLUMNS, rows))
    lines = _records_csv(records).splitlines()
    assert lines[3] == f"{3**40},1.5,0.0,inf,0.0,0,nan"
    assert lines[4] == "1,1,1.0,4.0,0.25,True,0.0"
    assert lines[5].startswith(f"5,2,{np.float64(1.5)!r},")
    assert lines[6] == "4,a2,1/2,2.0,0.25,0,-1/3"
    assert lines[7] == "5,a3,2.0,2.0,nan,0,x"


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
