"""`socd.cli`'s artifacts against the library and the spelling they define.

Each run kind, in both formats, on fixed inputs, must give the summary lines
and artifact text built here from the library's own results: a CSV cell is
`str` of its value, and `result.json` is the JSON writer's reference
(`test_json_writer.reference_json`, `json.dumps(..., sort_keys=True,
indent=2)` of plain values) of the same tables.  Both formats are built
here from one table per artifact, so the CSV rows equal the JSON rows.  Every malformed params value must fail with the message its
field type gives, or with the params dataclass's own.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from socd import (
    AgentSpec,
    GameParams,
    MechanismKind,
    aggregate_curves,
    efficiency,
    highway_experiment,
    net_utilities,
    ring_road_experiment,
    run_mechanism,
    stream_shares,
)
from socd import cli
from socd.cli import CliError
from socd.simulation import HIGHWAY_MECHANISMS, HighwayParams, RingRoadParams
from test_json_writer import reference_json


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
RING = {"n_stations": 10, "n_vehicles": 4,
        "target_mean_participations": 8, "curve_step": 2}

RECORD_COLUMNS = ("convoy", "agent", "actual_lead", "epps", "ratio", "rotations",
                  "net_utility")


def _cli_run(tmp_path: Path, doc: dict, *flags: str):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    args = cli.build_parser().parse_args(["--scenario", str(path), *flags])
    return cli.run(args)


def _csv(header, rows) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def _records(records) -> list[tuple]:
    return [tuple(getattr(r, c) for c in RECORD_COLUMNS) for r in records]


def _game_tables(outcome) -> dict:
    """A mechanism's tables, as (header, rows), read off its outcome."""
    nets = net_utilities(outcome)
    tables = {
        "schedule": (("agent", "start", "stop"),
                     [(p.agent, p.start, p.stop) for p in outcome.schedule.periods]),
        "switches": (("time", "outgoing", "incoming", "kind", "n_r", "cost"),
                     [(ev.time, ev.outgoing, ev.incoming, ev.kind.value, ev.n_r, ev.cost)
                      for ev in outcome.schedule.switches]),
        "share_reports": (
            ("agent", "assigned", "ex_ante", "ex_post", "net_utility", "rotations"),
            [(r.agent, r.assigned, r.ex_ante, r.ex_post, nets[r.agent],
              int(r.agent in outcome.rotation_costs)) for r in outcome.reports]),
    }
    if outcome.ledger is not None:  # one row per payer
        tables["ledger"] = (
            ("segment_start", "segment_end", "payer", "payee", "amount"),
            [(p.segment.start, p.segment.end, payer, p.payee, p.amount)
             for p in outcome.ledger.payments for payer in p.payers])
    return tables


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("game", sorted(GAMES))
def test_game_artifacts_match_oracle(tmp_path, game, fmt):
    doc = GAMES[game]
    got = _cli_run(tmp_path, doc, "--format", fmt)
    sweep = stream_shares(AgentSpec(a["id"], Fraction(a["arrive"]), Fraction(a["leave"]))
                          for a in doc["agents"])
    params = GameParams(u=Fraction(doc["params"]["u"]), c=Fraction(doc["params"]["c"]))
    lines, csvs, mechanisms = [], {}, {}
    for kind in MechanismKind:
        outcome = run_mechanism(kind, sweep, params)
        eff = efficiency(outcome.schedule, sweep, params)
        shares = " ".join(f"{r.agent}={r.assigned}" for r in outcome.reports)
        lines.append(f"{kind.value}: shares {shares}; efficiency {eff}")
        tables = _game_tables(outcome)
        for name, table in tables.items():
            csvs[f"{name}_{kind.value}.csv"] = _csv(*table)
        header, rows = tables["share_reports"]
        tables["share_reports"] = header[:-1], rows  # JSON reports: no rotations
        mechanisms[kind.value] = {
            "ledger": None, "efficiency": eff,
            **{name: [dict(zip(header, row)) for row in rows]  # rows cut to the header
               for name, (header, rows) in tables.items()},
        }
    game_params = {"u": params.u, "c": params.c, "ca": "0", "charge_all_switches": False}
    result = reference_json({"scenario": "game", "params": game_params,
                             "mechanisms": mechanisms})
    assert got == (lines, csvs if fmt == "csv" else {"result.json": result})


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
    config = config or "uniform"
    params = HighwayParams(n_stations=12, n_convoys=3, agents_per_convoy=3,
                           configuration=config, switch_cost=Fraction(1, 2), seed=4)
    seeds = list(range(4, 4 + n_seeds))
    kinds = [kind.value for kind in HIGHWAY_MECHANISMS]
    results = [highway_experiment(dataclasses.replace(params, seed=s), kinds)
               for s in seeds]
    lines, gini_rows, means = [], [], {}
    for kind in kinds:
        cells = [(r.seed, r.gini_cells[kind]) for r in results]  # every cell is there
        means[kind] = sum(g for _, g in cells) / len(cells)
        gini_rows += [(kind, config, seed, g) for seed, g in cells]
        gini_rows.append((kind, config, "mean", means[kind]))
        lines.append(f"gini {kind}/{config} = {means[kind]:.2f}")
    if fmt == "csv":
        want = {"gini.csv": _csv(("mechanism", "configuration", "seed", "gini"),
                                 gini_rows)}
        for res in results:
            suffix = f"_seed{res.seed}" if n_seeds > 1 else ""
            for kind in kinds:
                want[f"records_{kind}{suffix}.csv"] = _csv(RECORD_COLUMNS, _records(
                    r for r in res.records if r.mechanism == kind))
    else:
        want = {"result.json": reference_json({
            "experiment": "highway",
            "params": params,
            "seeds": seeds,
            "gini": {"per_seed": [{"seed": r.seed, "cells": r.gini_cells}
                                  for r in results],
                     "mean": means},
            "records": {str(r.seed): r.records for r in results},
        })}
    assert got == (lines, want)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_seeds", [1, 3])
def test_ring_artifacts_match_oracle(tmp_path, fmt, n_seeds):
    doc = {"experiment": "ring", "params": RING, "seed": 2, "seeds": n_seeds}
    got = _cli_run(tmp_path, doc, "--format", fmt)
    # number fields are floats
    params = RingRoadParams(n_stations=10, n_vehicles=4,
                            target_mean_participations=8.0, curve_step=2.0, seed=2)
    seeds = list(range(2, 2 + n_seeds))
    results = [ring_road_experiment(dataclasses.replace(params, seed=s)) for s in seeds]
    curve = aggregate_curves([r.curve for r in results])
    crossing = next(x for x, y in curve.points if y < 0.10)  # the fixture crosses
    x_last, y_last = curve.points[-1]
    lines = [f"unsatisfied fraction first drops below 0.10 at mean {crossing:g} "
             "participations",
             f"unsatisfied fraction at mean {x_last:g} participations: {y_last:.3f}"]
    if fmt == "csv":
        want = {"curve.csv": _csv(
            ("mean_participations", "unsatisfied_fraction", "band_low", "band_high"),
            [(x, y, lo, hi) for (x, y), (lo, hi) in zip(curve.points, curve.band)])}
        for res in results:
            suffix = f"_seed{res.seed}" if n_seeds > 1 else ""
            want[f"records{suffix}.csv"] = _csv(RECORD_COLUMNS, _records(res.records))
    else:
        want = {"result.json": reference_json({
            "experiment": "ring",
            "params": params,
            "seeds": seeds,
            "curve": {"points": curve.points, "band": curve.band},
            "records": {str(r.seed): r.records for r in results},
        })}
    assert got == (lines, want)


# ------------------------------------------------------------------- params

BAD_VALUES = ['"x"', "2.5", "true", "null", "[1]", "-1", "0", '"1/2"', "1e400"]
PARAMS = {"ring": RingRoadParams, "highway": HighwayParams}
CASES = [
    (experiment, f.name, value)
    for experiment, cls in PARAMS.items()
    for f in dataclasses.fields(cls)
    if f.name != "seed"
    for value in BAD_VALUES
]

# Each field's type, and what that type makes of a JSON value it accepts.
FIELD_TYPES = {
    "n_stations": int, "n_vehicles": int, "n_convoys": int, "agents_per_convoy": int,
    "join_probability": float,
    "target_mean_participations": float, "curve_step": float,
    "switch_cost": Fraction, "configuration": str,
}
CONVERT = {int: lambda v: v, float: float, Fraction: Fraction, str: lambda v: v}

# What each field type refuses, and with what message, before the params
# dataclass sees the value.  1e400 reads as an infinite float.
_FLOAT_LITERAL = 'use an integer or a string like "0.5", not a float literal'
REFUSED = {
    int: dict.fromkeys(['"x"', "2.5", "true", "null", "[1]", '"1/2"', "1e400"],
                       "expected an integer"),
    float: dict.fromkeys(['"x"', "true", "null", "[1]", '"1/2"'], "expected a number"),
    Fraction: {'"x"': "not an exact number: 'x'", "2.5": _FLOAT_LITERAL,
               "true": _FLOAT_LITERAL, "null": "not an exact number: None",
               "[1]": "not an exact number: [1]", "1e400": _FLOAT_LITERAL},
    str: {},
}


def _outcome(parse):
    try:
        return "ok", parse()
    except Exception as exc:  # any difference in type or message fails the test
        return type(exc).__name__, str(exc)


def _expected(cls, key: str, value: str):
    kind = FIELD_TYPES[key]
    if value in REFUSED[kind]:
        return "CliError", f"params.{key}: {REFUSED[kind][value]}"
    try:
        return "ok", cls(**{key: CONVERT[kind](json.loads(value))}, seed=0)
    except ValueError as exc:
        return "CliError", f"params: {exc}"


def _main(tmp_path: Path, capsys, text: str):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    code = cli.main(["--scenario", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("experiment, key, value", CASES)
def test_params_values_parse_like_oracle(tmp_path, capsys, experiment, key, value):
    cls = PARAMS[experiment]
    raw = json.loads(f'{{"{key}": {value}}}')
    want = _expected(cls, key, value)
    assert _outcome(lambda: cli._parse_params(cls, raw, 0)) == want
    if want[0] != "ok":  # valid params would run a whole experiment
        assert want[0] == "CliError"
        text = f'{{"experiment": "{experiment}", "params": {{"{key}": {value}}}}}'
        assert _main(tmp_path, capsys, text) == (1, "", f"error: {want[1]}\n")


@pytest.mark.parametrize("experiment", sorted(PARAMS))
def test_seed_inside_params_is_unknown(tmp_path, capsys, experiment):
    text = f'{{"experiment": "{experiment}", "params": {{"seed": 1}}}}'
    assert _main(tmp_path, capsys, text) == (
        1, "", "error: unknown key 'seed' in params\n")


def test_first_bad_field_in_field_order_is_reported():
    # field order, not dict order: each scenario names the later field first
    names = [f.name for f in dataclasses.fields(RingRoadParams)]
    assert names.index("n_vehicles") < names.index("join_probability") < names.index(
        "curve_step")
    for raw, message in [
        ({"curve_step": "x", "join_probability": "x"}, "join_probability: expected a number"),
        ({"curve_step": "x", "n_vehicles": "x"}, "n_vehicles: expected an integer"),
    ]:
        with pytest.raises(CliError, match=f"^params\\.{message}$"):
            cli._parse_params(RingRoadParams, raw, 0)
