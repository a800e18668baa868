"""Command-line front end: run scenarios or experiments, emit artifacts.

Exit codes: 0 on success, 1 for validation problems (bad flags, malformed
scenario files, impossible parameter combinations), 2 for I/O failures.
Only experiments take a seed: --seed, else the scenario's `seed`, else the
SOCD_SEED environment variable, else 0.  A game ignores SOCD_SEED.

Each artifact is one table, a header and rows of raw values, written as a
CSV file by `_csv` or as a list of objects in `result.json` by `_write`.
Each CSV cell is `str` of a plain value (Fractions print as fraction
strings, floats as their repr); row builders give enums by their value.
`_write` is the one JSON writer.  Its bytes are those of
`json.dumps(..., sort_keys=True, indent=2)` on the values socd writes:
sorted keys, two-space indent, ASCII escapes, ints and floats by repr, and
`NaN` and `Infinity` as `json` spells them.  It writes exact `str`, `int`,
`float`, `bool`, `None` and `Fraction` values, `str`-keyed mappings, lists,
tuples and the params dataclasses; any other type is a `TypeError`.  It
writes each table row as one string and a game's document in one pass,
after its last mechanism has run, and encodes a cell whose object is the
one above it only once.  JSON records also carry `mechanism`, and only CSV
share reports carry `rotations`.  A game's tables are the rows its
outcomes keep (`MechanismOutcome._period_rows` and the like), written as
they are, with no schedule, report or ledger object built: pt's ledger row
per realized segment is expanded to one row per payer as it is written.
A game's `efficiency` is the sum of its net utilities, one Fraction from
their common-denominator numerators.  Experiment `params` are parsed by
the fields of their dataclass.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, NoReturn, Sequence

from .mechanisms import MechanismKind, net_utilities, run_mechanism
from .metrics import ParticipationRecord
from .model import AgentSpec, GameParams, as_time, stream_shares
from .simulation import (
    _MAX_SIZE,
    HIGHWAY_MECHANISMS,
    HighwayParams,
    RingRoadParams,
    aggregate_curves,
    highway_experiment,
    ring_road_experiment,
)

__all__ = ["main", "run", "emit"]

ENV_SEED = "SOCD_SEED"
ALL_MECHANISMS = tuple(MechanismKind)


class CliError(Exception):
    """A validation problem the user can fix; maps to exit code 1."""


def _csv(header: Sequence[str], rows: Iterable[tuple[Any, ...]]) -> str:
    """A CSV table: each cell is `str` of its value, by one `%s` row format."""
    form = ",".join(["%s"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join([form % row for row in rows])


class _Table(NamedTuple):
    """An artifact: a header and lazily built rows, tuples of raw values."""

    header: Sequence[str]
    rows: Iterable[tuple[Any, ...]]


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_json(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


# How the writer spells values of these exact types, with no isinstance chain.
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_json,
    Fraction: '"%s"'.__mod__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}


def _unwritten(value: Any) -> NoReturn:
    """Raise json's own error for a value the writer does not write."""
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write(value: Any, pad: str, out: list[str]) -> None:
    """Append `value` as JSON text to `out`; lines after its first start with
    `pad` (a newline, then two spaces a level).

    Writes the values socd writes: the exact types in `_SCALARS` (a Fraction
    as a fraction string), a `_Table` as an array with one object per row,
    dataclasses (the experiment params) and mappings with `str` keys as
    objects (keys sorted), and lists and tuples as arrays.
    Any other value is a `TypeError`.
    """
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
    elif type(value) is _Table:
        _write_table(value, pad, out)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        _write_members([(f.name, getattr(value, f.name))
                        for f in dataclasses.fields(value)], pad, out)
    elif isinstance(value, Mapping):
        _write_members(value.items(), pad, out)
    elif isinstance(value, (list, tuple)):
        inner, sep = pad + "  ", "["
        for item in value:
            out.append(sep + inner)
            _write(item, inner, out)
            sep = ","
        out.append(pad + "]" if value else "[]")
    else:
        _unwritten(value)


def _write_members(pairs: Iterable[tuple[str, Any]], pad: str, out: list[str]) -> None:
    """An object from (key, value) pairs with distinct keys, in key order."""
    items = sorted(pairs, key=itemgetter(0))
    inner, sep = pad + "  ", "{"
    for key, value in items:
        out.append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
        _write(value, inner, out)
        sep = ","
    out.append(pad + "}" if items else "{}")


def _write_table(table: _Table, pad: str, out: list[str]) -> None:
    """A table as an array of objects, each row one string from a format
    made once from the sorted header.  Rows may be longer than the header,
    which cuts them, but not shorter.  Each cell is encoded by its exact type
    in `_SCALARS`; a cell of any other type is a `TypeError`.  A cell whose
    object is the one above it (`is`, never `==`: 1, True and 1.0 are equal
    but spelled apart) reuses that cell's text; the previous row is kept, so
    no id is reused."""
    header, rows = table
    column = {key: i for i, key in enumerate(header)}  # a repeated key: its last
    keys = sorted(column)
    inner, cell_pad = pad + "  ", pad + "    "
    encoding = _SCALARS.get
    if len(keys) > 1:
        pick = itemgetter(*(column[key] for key in keys))
    else:
        pick = lambda row: tuple(row[column[key]] for key in keys)  # noqa: E731
    form = "," + inner + ("{" + ",".join(
        f"{cell_pad}{encode_basestring_ascii(key).replace('%', '%%')}: %s"
        for key in keys
    ) + inner + "}" if keys else "{}")
    start = len(out)
    above: Sequence[Any] = (object(),) * len(keys)  # no cell's object
    texts = [""] * len(keys)
    for row in rows:
        values = pick(row)
        texts = [text if value is last else encoding(type(value), _unwritten)(value)
                 for value, last, text in zip(values, above, texts)]
        above = values
        out.append(form % tuple(texts))
    if len(out) == start:
        out.append("[]")
    else:  # the first row's leading comma opens the array instead
        out[start] = "[" + out[start][1:]
        out.append(pad + "]")


def _expect_keys(obj: Mapping[str, Any], allowed: Iterable[str], where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise CliError(f"unknown key {unknown[0]!r} in {where}")


# Each exact value's numerator and denominator must have at most
# _MAX_DIGITS digits (`as_time` has already refused an exponent beyond
# ±4300), and a game's denominators a common multiple of at most
# _MAX_COMMON_DIGITS: the sums and products the outputs print (shares,
# payments, utilities, efficiency) stay far under the 4300-digit limit on
# printing an int, an experiment's switch cost and utilities convert to
# finite floats, and the tick scale the core runs on stays bounded.
_MAX_DIGITS = 100
_MAX_VALUE = 10**_MAX_DIGITS
_MAX_COMMON_DIGITS = 1000
_MAX_COMMON = 10**_MAX_COMMON_DIGITS


def _exact(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise CliError(
            f"{where}: use an integer or a string like \"0.5\", not a float literal"
        )
    try:
        exact = as_time(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise CliError(f"{where}: not an exact number: {value!r}") from None
    if max(abs(exact.numerator), exact.denominator) >= _MAX_VALUE:
        raise CliError(
            f"{where}: more than {_MAX_DIGITS} digits in the numerator or denominator"
        )
    return exact


def _int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise CliError(f"{where}: expected an integer")
    return value


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(f"{where}: expected a number")
    try:
        return float(value)
    except OverflowError:  # an int past the largest float
        raise CliError(f"{where}: too large for a float") from None


_CSV_METACHARACTERS = frozenset(",\"\r\n")  # refused in agent ids


def _parse_game_scenario(doc: Mapping[str, Any]) -> tuple[list[AgentSpec], GameParams]:
    common = 1  # lcm of the denominators read so far

    def exact(value: Any, where: str) -> Fraction:
        nonlocal common
        number = _exact(value, where)
        common = math.lcm(common, number.denominator)
        if common >= _MAX_COMMON:
            raise CliError(f"{where}: the game's denominators together need more "
                           f"than {_MAX_COMMON_DIGITS} digits")
        return number

    _expect_keys(doc, ("agents", "params"), "scenario")
    raw_agents = doc.get("agents")
    if not isinstance(raw_agents, list) or not raw_agents:
        raise CliError("scenario field 'agents' must be a non-empty list")
    agents = []
    for idx, entry in enumerate(raw_agents):
        where = f"agents[{idx}]"
        if not isinstance(entry, Mapping):
            raise CliError(f"{where}: expected an object")
        _expect_keys(entry, ("id", "arrive", "leave"), where)
        for key in ("id", "arrive", "leave"):
            if key not in entry:
                raise CliError(f"{where}: missing field {key!r}")
        agent_id = entry["id"]
        # CSV cells are written unquoted, and summary lines name agents by id
        if isinstance(agent_id, str) and not _CSV_METACHARACTERS.isdisjoint(agent_id):
            raise CliError(f"{where}: agent id {agent_id!r} holds a comma, a double "
                           "quote, a CR or an LF")
        try:
            agents.append(
                AgentSpec(
                    agent_id,
                    exact(entry["arrive"], f"{where}.arrive"),
                    exact(entry["leave"], f"{where}.leave"),
                )
            )
        except ValueError as exc:
            raise CliError(f"{where}: {exc}") from None

    raw_params = doc.get("params", {})
    if not isinstance(raw_params, Mapping):
        raise CliError("scenario field 'params' must be an object")
    _expect_keys(raw_params, ("u", "c", "ca"), "params")
    u = exact(raw_params.get("u", 1), "params.u")
    c = exact(raw_params.get("c", 0), "params.c")
    # the active-time cost: accepted for old scenario files, but leading
    # costs only the utility it forgoes
    ca = exact(raw_params.get("ca", 0), "params.ca")
    try:
        params = GameParams(u=u, c=c)
    except ValueError as exc:
        raise CliError(f"params: {exc}") from None
    if ca != 0:
        raise CliError("params: ca must be zero")
    return agents, params


# Converters by field annotation (a string under `from __future__ import
# annotations`) for the experiment params dataclasses.
_CONVERTERS: dict[str, Callable[[Any, str], Any]] = {
    "int": _int,
    "float": _number,
    "int | Fraction": _exact,
    "str": lambda value, where: value,
}


def _parse_params(cls: type, raw: Mapping[str, Any], seed: int, **override: Any) -> Any:
    """Build an experiment params dataclass from a scenario's `params`.

    Every field but `seed` may be given; each is converted by its annotation,
    in field order.  Overrides that are not None replace the parsed values.
    """
    fields = [f for f in dataclasses.fields(cls) if f.name != "seed"]
    _expect_keys(raw, [f.name for f in fields], "params")
    kwargs = {
        f.name: _CONVERTERS[f.type](raw[f.name], f"params.{f.name}")
        for f in fields
        if f.name in raw
    }
    kwargs.update((k, v) for k, v in override.items() if v is not None)
    try:
        return cls(**kwargs, seed=seed)
    except ValueError as exc:
        raise CliError(f"params: {exc}") from None


_RECORD_COLUMNS = ("convoy", "agent", "actual_lead", "epps", "ratio", "rotations",
                   "net_utility")


# An experiment row holds the record fields in this order.  JSON records
# carry every field, `mechanism` (row[5]) included; CSV records pick the
# columns above.
_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(ParticipationRecord))
_pick_record_columns = itemgetter(*map(_RECORD_FIELDS.index, _RECORD_COLUMNS))


def _record_csv(rows: Iterable[tuple]) -> str:
    return _csv(_RECORD_COLUMNS, map(_pick_record_columns, rows))


def _result_json(doc: Any) -> str:
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


# A game's result.json `params` still carries `ca` and `charge_all_switches`
# at the only values they ever had, though `GameParams` has neither field:
# dropping them changes every games result.json, so it waits with the other
# byte-changing cleanups (ROADMAP item 2).
_RETIRED_GAME_PARAMS = {"ca": "0", "charge_all_switches": False}


def _run_game(
    agents: list[AgentSpec],
    params: GameParams,
    mechanisms: Sequence[MechanismKind],
    fmt: str,
) -> tuple[list[str], dict[str, str]]:
    lines: list[str] = []
    artifacts: dict[str, str] = {}
    documents: dict[str, Any] = {}
    sweep = stream_shares(agents)
    for kind in mechanisms:
        outcome = run_mechanism(kind, sweep, params)
        nets = net_utilities(outcome)
        # equals `efficiency(outcome.schedule, sweep, params)`: payments
        # are zero-sum and the rotation charges are the costed switches
        numerators, den = outcome._net_ticks
        eff = Fraction(sum(numerators), den)
        reports = outcome._report_rows
        shares = " ".join(f"{agent}={assigned}" for agent, assigned, _, _ in reports)
        lines.append(f"{kind.value}: shares {shares}; efficiency {eff}")

        tables = {
            "schedule": _Table(("agent", "start", "stop"), outcome._period_rows),
            "switches": _Table(("time", "outgoing", "incoming", "kind", "n_r", "cost"),
                               outcome._switch_rows),
            "share_reports": _Table(
                ("agent", "assigned", "ex_ante", "ex_post", "net_utility", "rotations"),
                [(agent, assigned, ante, post, nets[agent], int(rotated != 0))
                 for (agent, assigned, ante, post), rotated
                 in zip(reports, outcome._run.rotated)],
            ),
        }
        if outcome._payment_rows is not None:
            tables["ledger"] = _Table(
                ("segment_start", "segment_end", "payer", "payee", "amount"),
                ((start, end, payer, payee, amount)
                 for start, end, payee, payers, amount in outcome._payment_rows
                 for payer in payers),
            )
        if fmt == "csv":
            for name, table in tables.items():
                artifacts[f"{name}_{kind.value}.csv"] = _csv(*table)
        else:
            # JSON share reports have no "rotations" key although the CSV has
            # that (last) column: adding it changes every games result.json,
            # so it waits with the other byte-changing cleanups (ROADMAP
            # item 2).  The writer cuts each row to the shortened header.
            header, rows = tables["share_reports"]
            tables["share_reports"] = _Table(header[:-1], rows)
            documents[kind.value] = {"ledger": None, **tables, "efficiency": str(eff)}
    if fmt == "json":
        game_params = {"c": params.c, "u": params.u, **_RETIRED_GAME_PARAMS}
        artifacts["result.json"] = _result_json(
            {"scenario": "game", "params": game_params, "mechanisms": documents})
    return lines, artifacts


def _run_highway(
    params_base: HighwayParams,
    seeds: Sequence[int],
    mechanisms: Sequence[MechanismKind],
    fmt: str,
) -> tuple[list[str], dict[str, str]]:
    results = [highway_experiment(dataclasses.replace(params_base, seed=s), mechanisms)
               for s in seeds]

    lines: list[str] = []
    artifacts: dict[str, str] = {}
    config = params_base.configuration
    means: dict[str, float] = {}
    gini_rows: list[Sequence[Any]] = []
    for kind in mechanisms:
        cells = [(r.seed, r.gini_cells[kind.value]) for r in results
                 if kind.value in r.gini_cells]
        gini_rows += [(kind.value, config, seed, g) for seed, g in cells]
        if cells:
            means[kind.value] = sum(g for _, g in cells) / len(cells)
            gini_rows.append((kind.value, config, "mean", means[kind.value]))
            lines.append(f"gini {kind.value}/{config} = {means[kind.value]:.2f}")
        else:
            lines.append(f"gini {kind.value}/{config}: too few records")

    if fmt == "csv":
        artifacts["gini.csv"] = _csv(("mechanism", "configuration", "seed", "gini"),
                                     gini_rows)
        for res in results:
            suffix = f"_seed{res.seed}" if len(results) > 1 else ""
            for kind in mechanisms:
                mechanism = kind.value
                artifacts[f"records_{mechanism}{suffix}.csv"] = _record_csv(
                    row for row in res.rows if row[5] == mechanism)
    else:
        artifacts["result.json"] = _result_json({
            "experiment": "highway",
            "params": params_base,
            "seeds": list(seeds),
            "gini": {
                "per_seed": [{"seed": r.seed, "cells": r.gini_cells} for r in results],
                "mean": means,
            },
            "records": {str(r.seed): _Table(_RECORD_FIELDS, r.rows) for r in results},
        })
    return lines, artifacts


def _run_ring(
    params_base: RingRoadParams, seeds: Sequence[int], fmt: str
) -> tuple[list[str], dict[str, str]]:
    results = [ring_road_experiment(dataclasses.replace(params_base, seed=s))
               for s in seeds]

    curve = aggregate_curves([r.curve for r in results])
    lines: list[str] = []
    if curve.points:
        crossing = next((x for x, y in curve.points if y < 0.10), None)
        if crossing is not None:
            lines.append(f"unsatisfied fraction first drops below 0.10 at mean "
                         f"{crossing:g} participations")
        else:
            lines.append("unsatisfied fraction never dropped below 0.10")
        x_last, y_last = curve.points[-1]
        lines.append(f"unsatisfied fraction at mean {x_last:g} participations: "
                     f"{y_last:.3f}")
    elif any(r.rows for r in results):
        lines.append(f"no curve checkpoint reached: curve_step "
                     f"{params_base.curve_step:g} exceeds target_mean_participations "
                     f"{params_base.target_mean_participations:g}")
    else:
        lines.append("no participations recorded")

    artifacts: dict[str, str] = {}
    if fmt == "csv":
        artifacts["curve.csv"] = _csv(
            ("mean_participations", "unsatisfied_fraction", "band_low", "band_high"),
            ((x, y, lo, hi) for (x, y), (lo, hi) in zip(curve.points, curve.band)),
        )
        for res in results:
            suffix = f"_seed{res.seed}" if len(results) > 1 else ""
            artifacts[f"records{suffix}.csv"] = _record_csv(res.rows)
    else:
        artifacts["result.json"] = _result_json({
            "experiment": "ring",
            "params": params_base,
            "seeds": list(seeds),
            "curve": {"points": curve.points, "band": curve.band},
            "records": {str(r.seed): _Table(_RECORD_FIELDS, r.rows) for r in results},
        })
    return lines, artifacts


def emit(artifacts: Mapping[str, str], out_dir: str | os.PathLike) -> None:
    """Write artifact files under out_dir (created if missing)."""
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    for name, content in sorted(artifacts.items()):
        (path / name).write_bytes(content.encode("utf-8"))


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse usage errors are validation errors
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="socd",
        description="Sequential online chore division: mechanisms and experiments.",
    )
    parser.add_argument("--scenario", metavar="PATH",
                        help="JSON scenario file (a game or an experiment)")
    parser.add_argument("--experiment", choices=("ring", "highway"),
                        help="run a built-in experiment with default parameters")
    parser.add_argument("--mechanism", metavar="LIST",
                        help="comma-separated subset of pt,rg,sg,sg-da")
    parser.add_argument("--config", choices=("uniform", "bimodal"),
                        help="highway entry pattern")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"base seed of an experiment (default: ${ENV_SEED} or 0)")
    parser.add_argument("--seeds", type=int, default=None, metavar="N",
                        help="number of consecutive seeds to run (experiments)")
    parser.add_argument("--out", metavar="DIR", help="directory for artifacts")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="artifact format (default csv)")
    return parser


def _parse_mechanisms(selection: str | None, default: Sequence[MechanismKind]
                      ) -> list[MechanismKind]:
    if selection is None:
        return list(default)
    kinds = []
    for name in selection.split(","):
        name = name.strip()
        try:
            kinds.append(MechanismKind(name))
        except ValueError:  # "" too, so the list is never empty
            raise CliError(
                f"unknown mechanism {name!r}; choose from "
                + ",".join(k.value for k in MechanismKind)
            ) from None
        if kinds[-1] in kinds[:-1]:  # it would write its records and summary again
            raise CliError(f"mechanism {name!r} is selected twice")
    return kinds


def run(args: argparse.Namespace) -> tuple[list[str], dict[str, str]]:
    """Execute one CLI invocation; returns (summary lines, artifacts)."""
    if (args.scenario is None) == (args.experiment is None):
        raise CliError("exactly one of --scenario or --experiment is required")

    doc: Mapping[str, Any] = {}
    experiment = args.experiment
    if args.scenario is not None:
        raw = Path(args.scenario).read_text(encoding="utf-8")
        try:
            doc = json.loads(raw)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise CliError(f"scenario is not valid JSON: {exc}") from None
        if not isinstance(doc, Mapping):
            raise CliError("scenario must be a JSON object")
        if "experiment" in doc:
            _expect_keys(doc, ("experiment", "params", "seed", "seeds"), "scenario")
            experiment = doc["experiment"]
            if experiment not in ("ring", "ring_road", "highway"):
                raise CliError(
                    f"unknown experiment {experiment!r}; use 'ring' or 'highway'"
                )
            if experiment == "ring_road":
                experiment = "ring"

    if experiment is None:
        # plain game scenario
        for flag, value in (("--seed", args.seed), ("--seeds", args.seeds)):
            if value is not None:
                raise CliError(f"{flag} only applies to experiments")
        if args.config is not None:
            raise CliError("--config only applies to the highway experiment")
        agents, params = _parse_game_scenario(doc)
        mechanisms = _parse_mechanisms(args.mechanism, ALL_MECHANISMS)
        return _run_game(agents, params, mechanisms, args.format)

    raw_params = doc.get("params", {}) if doc else {}
    if not isinstance(raw_params, Mapping):
        raise CliError("scenario field 'params' must be an object")
    seed = args.seed
    if seed is None and "seed" in doc:
        seed = _int(doc["seed"], "seed")
    if seed is None:
        env = os.environ.get(ENV_SEED, "0")
        try:
            seed = int(env)
        except ValueError:
            raise CliError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    n_seeds = args.seeds
    if n_seeds is None:
        n_seeds = _int(doc.get("seeds", 1), "seeds")
    if n_seeds < 1:
        raise CliError("seeds must be at least 1")
    if n_seeds > _MAX_SIZE:  # every seed's result is kept until all have run
        raise CliError(f"seeds must be at most {_MAX_SIZE}")
    if seed < 0:  # here, since errors from the params read "params: ..."
        raise CliError(f"seed must be non-negative, not {seed}")
    seeds = range(seed, seed + n_seeds)

    if experiment == "ring":
        if args.config is not None:
            raise CliError("--config only applies to the highway experiment")
        mechanisms = _parse_mechanisms(
            args.mechanism, (MechanismKind.REPEATED_GAME,)
        )
        if mechanisms != [MechanismKind.REPEATED_GAME]:
            raise CliError("the ring road experiment runs under rg only")
        params = _parse_params(RingRoadParams, raw_params, seed)
        return _run_ring(params, seeds, args.format)
    # the highway, the only other experiment
    mechanisms = _parse_mechanisms(args.mechanism, HIGHWAY_MECHANISMS)
    params = _parse_params(HighwayParams, raw_params, seed, configuration=args.config)
    return _run_highway(params, seeds, mechanisms, args.format)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        lines, artifacts = run(args)
        if args.out is not None:
            emit(artifacts, args.out)
        elif args.format == "json" and "result.json" in artifacts:
            sys.stdout.write(artifacts["result.json"])
        for line in lines:
            print(line)
        return 0
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
