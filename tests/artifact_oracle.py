"""The artifact builders and experiment-params parsers as they were before
`socd.cli` wrote every artifact from one row table: the oracle the
differential tests in `tests/test_artifacts.py` compare `socd.cli` against.
At the end, the table model's JSON writer as it was before `socd.cli._write`
replaced it: the oracle of `tests/test_json_writer.py`.

Kept verbatim (only the imports changed, the table model's JSON functions
gained a `_table_` prefix, and the game builder flattens pt's per-segment
ledger entries into one transfer per payer where it reads the outcome), so
the tests pin the old bytes, lines and error messages rather than the new
code's own output.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from socd.cli import CliError, _exact, _expect_keys, _int, _number
from socd.mechanisms import MechanismKind, net_utilities, run_mechanism
from socd.metrics import ParticipationRecord
from socd.model import AgentId, AgentSpec, GameParams, Segment, efficiency, stream_shares
from socd.simulation import (
    ExperimentResult,
    HighwayParams,
    RingRoadParams,
    aggregate_curves,
    highway_experiment,
    ring_road_experiment,
)


class Transfer(NamedTuple):
    """One ledger row: `payer` compensates `payee` for leading `segment`."""

    segment: Segment
    payer: AgentId
    payee: AgentId
    amount: Fraction


def _fmt(value: Any) -> str:
    """Deterministic cell formatting: fractions exact, floats via repr."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, MechanismKind):
        return value.value
    return str(value)


# `_fmt` for the exact types most cells have, without its isinstance chain;
# other types and subclasses (bool, MechanismKind, numpy scalars) still go
# through `_fmt`, so every cell keeps its string.
_CELL_FORMATS: dict[type, Callable[[Any], str]] = {
    float: float.__repr__,
    int: int.__repr__,
    str: str.__str__,
    Fraction: Fraction.__str__,
}


def _cell(value: Any) -> str:
    return _CELL_FORMATS.get(type(value), _fmt)(value)


def _csv(rows: Iterable[Sequence[Any]]) -> str:
    return "".join(",".join(map(_cell, row)) + "\n" for row in rows)


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, MechanismKind):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


_RING_KEYS = (
    "n_stations",
    "road_length",
    "n_vehicles",
    "join_probability",
    "target_mean_participations",
    "curve_step",
)
_HIGHWAY_KEYS = (
    "n_stations",
    "n_convoys",
    "agents_per_convoy",
    "configuration",
    "switch_cost",
)


def _parse_ring_params(raw: Mapping[str, Any], seed: int) -> RingRoadParams:
    _expect_keys(raw, _RING_KEYS, "params")
    kwargs: dict[str, Any] = {"seed": seed}
    for key in ("n_stations", "n_vehicles"):
        if key in raw:
            kwargs[key] = _int(raw[key], f"params.{key}")
    for key in (
        "road_length",
        "join_probability",
        "target_mean_participations",
        "curve_step",
    ):
        if key in raw:
            kwargs[key] = _number(raw[key], f"params.{key}")
    try:
        return RingRoadParams(**kwargs)
    except ValueError as exc:
        raise CliError(f"params: {exc}") from None


def _parse_highway_params(
    raw: Mapping[str, Any], config: str | None, seed: int
) -> HighwayParams:
    _expect_keys(raw, _HIGHWAY_KEYS, "params")
    kwargs: dict[str, Any] = {"seed": seed}
    for key in ("n_stations", "n_convoys", "agents_per_convoy"):
        if key in raw:
            kwargs[key] = _int(raw[key], f"params.{key}")
    if "configuration" in raw:
        kwargs["configuration"] = raw["configuration"]
    if "switch_cost" in raw:
        kwargs["switch_cost"] = _exact(raw["switch_cost"], "params.switch_cost")
    if config is not None:
        kwargs["configuration"] = config
    try:
        return HighwayParams(**kwargs)
    except ValueError as exc:
        raise CliError(f"params: {exc}") from None


def _record_rows(records: Iterable[ParticipationRecord]) -> list[Sequence[Any]]:
    header = ("convoy", "agent", "actual_lead", "epps", "ratio", "rotations",
              "net_utility")
    rows: list[Sequence[Any]] = [header]
    for r in records:
        rows.append(
            (r.convoy, r.agent, r.actual_lead, r.epps, r.ratio, r.rotations,
             r.net_utility)
        )
    return rows


def _record_json(r: ParticipationRecord) -> dict[str, Any]:
    return {
        "convoy": r.convoy,
        "agent": r.agent,
        "actual_lead": r.actual_lead,
        "epps": r.epps,
        "ratio": r.ratio,
        "rotations": r.rotations,
        "net_utility": r.net_utility,
        "mechanism": r.mechanism,
    }


def _run_game(
    agents: list[AgentSpec],
    params: GameParams,
    mechanisms: Sequence[MechanismKind],
    fmt: str,
) -> tuple[list[str], dict[str, str]]:
    lines: list[str] = []
    artifacts: dict[str, str] = {}
    doc: dict[str, Any] = {"scenario": "game",
                           "params": {**_jsonable(params), "ca": "0",
                                      "charge_all_switches": False},
                           "mechanisms": {}}
    sweep = stream_shares(agents)
    for kind in mechanisms:
        outcome = run_mechanism(kind, sweep, params)
        transfers = None if outcome.ledger is None else [
            Transfer(p.segment, payer, p.payee, p.amount)
            for p in outcome.ledger.payments for payer in p.payers
        ]
        nets = net_utilities(outcome)
        eff = efficiency(outcome.schedule, sweep, params)
        shares = " ".join(f"{r.agent}={r.assigned}" for r in outcome.reports)
        lines.append(f"{kind.value}: shares {shares}; efficiency {eff}")

        if fmt == "csv":
            artifacts[f"schedule_{kind.value}.csv"] = _csv(
                [("agent", "start", "stop")]
                + [(p.agent, p.start, p.stop) for p in outcome.schedule.periods]
            )
            artifacts[f"switches_{kind.value}.csv"] = _csv(
                [("time", "outgoing", "incoming", "kind", "n_r", "cost")]
                + [
                    (ev.time, ev.outgoing, ev.incoming, ev.kind.value, ev.n_r, ev.cost)
                    for ev in outcome.schedule.switches
                ]
            )
            artifacts[f"share_reports_{kind.value}.csv"] = _csv(
                [("agent", "assigned", "ex_ante", "ex_post", "net_utility",
                  "rotations")]
                + [
                    (
                        r.agent,
                        r.assigned,
                        r.ex_ante,
                        r.ex_post,
                        nets[r.agent],
                        1 if r.agent in outcome.rotation_costs else 0,
                    )
                    for r in outcome.reports
                ]
            )
            if transfers is not None:
                artifacts[f"ledger_{kind.value}.csv"] = _csv(
                    [("segment_start", "segment_end", "payer", "payee", "amount")]
                    + [
                        (t.segment.start, t.segment.end, t.payer, t.payee, t.amount)
                        for t in transfers
                    ]
                )
        else:
            doc["mechanisms"][kind.value] = {
                "schedule": [
                    {"agent": p.agent, "start": str(p.start), "stop": str(p.stop)}
                    for p in outcome.schedule.periods
                ],
                "switches": [
                    {
                        "time": str(ev.time),
                        "outgoing": ev.outgoing,
                        "incoming": ev.incoming,
                        "kind": ev.kind.value,
                        "n_r": ev.n_r,
                        "cost": str(ev.cost),
                    }
                    for ev in outcome.schedule.switches
                ],
                "share_reports": [
                    {
                        "agent": r.agent,
                        "assigned": str(r.assigned),
                        "ex_ante": str(r.ex_ante),
                        "ex_post": str(r.ex_post),
                        "net_utility": str(nets[r.agent]),
                    }
                    for r in outcome.reports
                ],
                "ledger": None
                if transfers is None
                else [
                    {
                        "segment_start": str(t.segment.start),
                        "segment_end": str(t.segment.end),
                        "payer": t.payer,
                        "payee": t.payee,
                        "amount": str(t.amount),
                    }
                    for t in transfers
                ],
                "efficiency": str(eff),
            }
    # drop the sweep and the last outcome before the document is serialized
    sweep = outcome = None
    if fmt == "json":
        artifacts["result.json"] = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return lines, artifacts


def _run_highway(
    params_base: HighwayParams,
    seeds: Sequence[int],
    mechanisms: Sequence[MechanismKind],
    fmt: str,
) -> tuple[list[str], dict[str, str]]:
    results: list[ExperimentResult] = []
    for seed in seeds:
        params = dataclasses.replace(params_base, seed=seed)
        results.append(highway_experiment(params, mechanisms))

    lines: list[str] = []
    artifacts: dict[str, str] = {}
    config = params_base.configuration
    means: dict[str, float] = {}
    gini_rows: list[Sequence[Any]] = [("mechanism", "configuration", "seed", "gini")]
    for kind in mechanisms:
        cells = [r.gini_cells[kind.value] for r in results if kind.value in r.gini_cells]
        for res in results:
            if kind.value in res.gini_cells:
                gini_rows.append(
                    (kind.value, config, res.seed, res.gini_cells[kind.value])
                )
        if cells:
            means[kind.value] = sum(cells) / len(cells)
            gini_rows.append((kind.value, config, "mean", means[kind.value]))
            lines.append(f"gini {kind.value}/{config} = {means[kind.value]:.2f}")
        else:
            lines.append(f"gini {kind.value}/{config}: too few records")

    if fmt == "csv":
        artifacts["gini.csv"] = _csv(gini_rows)
        for res in results:
            suffix = f"_seed{res.seed}" if len(results) > 1 else ""
            for kind in mechanisms:
                recs = [r for r in res.records if r.mechanism == kind.value]
                artifacts[f"records_{kind.value}{suffix}.csv"] = _csv(
                    _record_rows(recs)
                )
    else:
        doc = {
            "experiment": "highway",
            "params": _jsonable(params_base),
            "seeds": list(seeds),
            "gini": {
                "per_seed": [
                    {"seed": r.seed, "cells": r.gini_cells} for r in results
                ],
                "mean": means,
            },
            "records": {
                str(r.seed): [_record_json(rec) for rec in r.records]
                for r in results
            },
        }
        artifacts["result.json"] = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return lines, artifacts


def _run_ring(
    params_base: RingRoadParams, seeds: Sequence[int], fmt: str
) -> tuple[list[str], dict[str, str]]:
    results: list[ExperimentResult] = []
    for seed in seeds:
        params = dataclasses.replace(params_base, seed=seed)
        results.append(ring_road_experiment(params))

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
    elif any(r.records for r in results):
        lines.append(f"no curve checkpoint reached: curve_step "
                     f"{params_base.curve_step:g} exceeds target_mean_participations "
                     f"{params_base.target_mean_participations:g}")
    else:
        lines.append("no participations recorded")

    artifacts: dict[str, str] = {}
    if fmt == "csv":
        rows: list[Sequence[Any]] = [
            ("mean_participations", "unsatisfied_fraction", "band_low", "band_high")
        ]
        for (x, y), (lo, hi) in zip(curve.points, curve.band):
            rows.append((x, y, lo, hi))
        artifacts["curve.csv"] = _csv(rows)
        for res in results:
            suffix = f"_seed{res.seed}" if len(results) > 1 else ""
            artifacts[f"records{suffix}.csv"] = _csv(_record_rows(res.records))
    else:
        doc = {
            "experiment": "ring",
            "params": _jsonable(params_base),
            "seeds": list(seeds),
            "curve": {
                "points": [list(pt) for pt in curve.points],
                "band": [list(b) for b in curve.band],
            },
            "records": {
                str(r.seed): [_record_json(rec) for rec in r.records]
                for r in results
            },
        }
        artifacts["result.json"] = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return lines, artifacts


# ------------------------------------------------- the table model's JSON

# Exact types `_plain` passes through before its isinstance checks, which
# are slow for Fraction and Enum (classes with a metaclass) on every cell.
_AS_IS = frozenset({str, int, float, bool, type(None)})


def _plain(value: Any) -> Any:
    """The value rule both writers share: exact fractions as fraction
    strings, enums by their value; anything else as it is."""
    kind = type(value)
    if kind is Fraction:
        return str(value)
    if kind in _AS_IS:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Enum):
        return value.value
    return value


def _table_jsonable(value: Any) -> Any:
    value = _plain(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _table_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(k): _table_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_table_jsonable(v) for v in value]
    return value


def _table_json(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> list[dict[str, Any]]:
    """A table as a list of objects; a row longer than the header is cut."""
    return [dict(zip(header, map(_plain, row))) for row in rows]


def _table_result_json(doc: Mapping[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
