"""`socd.cli` against the builders and parsers it replaced.

`tests/artifact_oracle.py` keeps the per-format builders and the
per-experiment params parsers as they were before every artifact came from
one row table.  Here each run kind, in both formats, must give exactly the
oracle's summary lines and artifact bytes, and every malformed params value
must fail with the oracle's message.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import artifact_oracle as oracle
from socd import cli
from socd.cli import CliError
from socd.simulation import HighwayParams, RingRoadParams


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("SOCD_SEED", raising=False)


def _agents(*windows, ids=None):
    ids = ids or [f"a{i}" for i in range(1, len(windows) + 1)]
    return [{"id": i, "arrive": a, "leave": b} for i, (a, b) in zip(ids, windows)]


GAMES = {
    "str_ids": {"agents": _agents((0, 10), (4, 16), (8, 20)), "params": {"u": 1, "c": 0}},
    "int_ids": {"agents": _agents((0, 10), (4, 16), (8, 20), ids=[3, 1, 2]),
                "params": {"u": 2, "c": 0}},
    # c > 0: sg and sg-da rotate, and rotations cost c per member
    "rotations": {"agents": _agents((0, 12), (1, 30), (2, "61/2"), ("5/2", 9)),
                  "params": {"u": 1, "c": "1/3"}},
    # an availability hole between 6 and 8, and one between 15 and 20
    "hole": {"agents": _agents((0, 4), (1, 6), (8, 12), ("17/2", 15), (20, 21)),
             "params": {"u": 1, "c": 1}},
}

HIGHWAY = {"n_stations": 12, "n_convoys": 3, "agents_per_convoy": 3,
           "switch_cost": "1/2"}
RING = {"n_stations": 10, "road_length": 10, "n_vehicles": 4,
        "target_mean_participations": 8, "curve_step": 2}


def _cli_run(tmp_path: Path, doc: dict, *flags: str):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    args = cli.build_parser().parse_args(["--scenario", str(path), *flags])
    return cli.run(args)


def _as_bytes(result):
    lines, artifacts = result
    return lines, {name: text.encode("utf-8") for name, text in artifacts.items()}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("game", sorted(GAMES))
def test_game_artifacts_match_oracle(tmp_path, game, fmt):
    doc = GAMES[game]
    got = _cli_run(tmp_path, doc, "--format", fmt)
    agents, params = cli._parse_game_scenario(doc)
    want = oracle._run_game(agents, params, cli.ALL_MECHANISMS, fmt)
    assert _as_bytes(got) == _as_bytes(want)


def test_game_fixtures_cover_ledger_rotations_and_holes(tmp_path):
    _, artifacts = _cli_run(tmp_path, GAMES["rotations"])
    assert artifacts["ledger_pt.csv"].count("\n") > 1
    rotations = [line.rsplit(",", 1)[1]
                 for line in artifacts["share_reports_sg.csv"].splitlines()[1:]]
    assert "1" in rotations
    assert "rotation" in artifacts["switches_sg.csv"]
    _, artifacts = _cli_run(tmp_path, GAMES["hole"])
    starts = [line.split(",")[1] for line in artifacts["schedule_rg.csv"].splitlines()[1:]]
    assert "8" in starts and "6" not in starts


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_seeds", [1, 3])
@pytest.mark.parametrize("config", [None, "bimodal"])
def test_highway_artifacts_match_oracle(tmp_path, fmt, n_seeds, config):
    doc = {"experiment": "highway", "params": HIGHWAY, "seed": 4}
    flags = ["--format", fmt, "--seeds", str(n_seeds)]
    if config is not None:
        flags += ["--config", config]
    got = _cli_run(tmp_path, doc, *flags)
    params = oracle._parse_highway_params(HIGHWAY, config, 4)
    seeds = list(range(4, 4 + n_seeds))
    want = oracle._run_highway(params, seeds, list(cli.HIGHWAY_MECHANISMS), fmt)
    assert _as_bytes(got) == _as_bytes(want)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_seeds", [1, 3])
def test_ring_artifacts_match_oracle(tmp_path, fmt, n_seeds):
    doc = {"experiment": "ring", "params": RING, "seed": 2, "seeds": n_seeds}
    got = _cli_run(tmp_path, doc, "--format", fmt)
    params = oracle._parse_ring_params(RING, 2)
    want = oracle._run_ring(params, list(range(2, 2 + n_seeds)), fmt)
    assert _as_bytes(got) == _as_bytes(want)


# ------------------------------------------------------------------- params

BAD_VALUES = ['"x"', "2.5", "true", "null", "[1]", "-1", "0", '"1/2"', "1e400"]
PARSERS = {
    "ring": (RingRoadParams, lambda raw: oracle._parse_ring_params(raw, 0)),
    "highway": (HighwayParams, lambda raw: oracle._parse_highway_params(raw, None, 0)),
}
CASES = [
    (experiment, f.name, value)
    for experiment, (cls, _) in PARSERS.items()
    for f in dataclasses.fields(cls)
    if f.name != "seed"
    for value in BAD_VALUES
]


def _outcome(parse):
    try:
        return "ok", parse()
    except Exception as exc:  # any difference in type or message fails the test
        return type(exc).__name__, str(exc)


def _main(tmp_path: Path, capsys, text: str):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    code = cli.main(["--scenario", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("experiment, key, value", CASES)
def test_params_values_parse_like_oracle(tmp_path, capsys, experiment, key, value):
    cls, oracle_parse = PARSERS[experiment]
    raw = json.loads(f'{{"{key}": {value}}}')
    want = _outcome(lambda: oracle_parse(raw))
    assert _outcome(lambda: cli._parse_params(cls, raw, 0)) == want
    if want[0] != "ok":  # valid params would run a whole experiment
        assert want[0] == "CliError"
        text = f'{{"experiment": "{experiment}", "params": {{"{key}": {value}}}}}'
        assert _main(tmp_path, capsys, text) == (1, "", f"error: {want[1]}\n")


@pytest.mark.parametrize("experiment", sorted(PARSERS))
def test_seed_inside_params_is_unknown(tmp_path, capsys, experiment):
    text = f'{{"experiment": "{experiment}", "params": {{"seed": 1}}}}'
    assert _main(tmp_path, capsys, text) == (
        1, "", "error: unknown key 'seed' in params\n")


def test_first_bad_field_in_field_order_is_reported():
    raw = {"n_vehicles": "x", "road_length": "x"}
    with pytest.raises(CliError, match=r"^params\.road_length: expected a number$"):
        cli._parse_params(RingRoadParams, raw, 0)
    # the old parser checked every int field before any float field
    with pytest.raises(CliError, match=r"^params\.n_vehicles: expected an integer$"):
        oracle._parse_ring_params(raw, 0)
