"""What a game run writes, from the rows its outcomes keep.

An outcome keeps each face's exact values as rows, built from its tick run
on first read; the CLI writes those rows as they are, expanding pt's
per-segment ledger row to one row per payer, and builds no schedule,
report or ledger object.  The public faces are built from the same rows.
These tests check the CLI's tables against tables built the old way from
the public faces alone, pt's ledger against the pt loop kept in
`mechanism_oracle.py`, the CLI's `efficiency` against `model.efficiency`
on the outcome's schedule, and what each path builds.
"""

from __future__ import annotations

import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mechanism_oracle as oracle
from socd import (
    AgentSpec,
    GameParams,
    Ledger,
    MechanismKind,
    Payment,
    efficiency,
    net_utilities,
    run_mechanism,
    stream_shares,
)
from socd.cli import _render, _run_game
from test_highway_core import _count_constructions
from test_shares import HANDOVER, HOLE, LARGE_DENOMINATORS, SINGLE, streams

SETTINGS = dict(max_examples=60, deadline=None, derandomize=True, database=None)

# u != 1 and c > 0, so neither the lead time nor the rotation charges vanish
costed_params = st.builds(
    GameParams,
    u=st.sampled_from([2, F(1, 2), F(3, 7)]),
    c=st.sampled_from([F(1, 2), 1, 3, F(5, 7)]),
)


@settings(**SETTINGS)
@given(streams(), costed_params)
@example(HOLE, GameParams(u=2, c=1))
@example(HANDOVER, GameParams(u=F(1, 2), c=F(5, 7)))
@example(SINGLE, GameParams(u=F(3, 7), c=3))
@example(LARGE_DENOMINATORS, GameParams(u=2, c=1))
def test_cli_efficiency_is_the_schedule_efficiency(stream, params):
    kinds = list(MechanismKind)
    lines, artifacts = _render(*_run_game(stream, params, kinds), "json")
    written = json.loads(artifacts["result.json"])["mechanisms"]
    sweep = stream_shares(stream)
    for kind, line in zip(kinds, lines):
        want = str(efficiency(run_mechanism(kind, sweep, params).schedule, sweep, params))
        assert written[kind.value]["efficiency"] == want, kind
        assert line.endswith(f"; efficiency {want}"), kind


HEADERS = {
    "schedule": ("agent", "start", "stop"),
    "switches": ("time", "outgoing", "incoming", "kind", "n_r", "cost"),
    "share_reports": ("agent", "assigned", "ex_ante", "ex_post", "net_utility",
                      "rotations"),
    "ledger": ("segment_start", "segment_end", "payer", "payee", "amount"),
}


def face_tables(stream, params, kinds) -> tuple[list[str], dict[str, dict]]:
    """A game's summary lines and, per mechanism, its tables (lists of raw
    rows) and efficiency, read off the public faces alone."""
    sweep = stream_shares(stream)
    lines, games = [], {}
    for kind in kinds:
        outcome = run_mechanism(kind, sweep, params)
        nets, schedule = net_utilities(outcome), outcome.schedule
        eff = efficiency(schedule, sweep, params)
        shares = " ".join(f"{r.agent}={r.assigned}" for r in outcome.reports)
        lines.append(f"{kind.value}: shares {shares}; efficiency {eff}")
        tables = {
            "schedule": [(p.agent, p.start, p.stop) for p in schedule.periods],
            "switches": [(ev.time, ev.outgoing, ev.incoming, ev.kind.value, ev.n_r,
                          ev.cost) for ev in schedule.switches],
            "share_reports": [(r.agent, r.assigned, r.ex_ante, r.ex_post, nets[r.agent],
                               int(r.agent in outcome.rotation_costs))
                              for r in outcome.reports],
        }
        if outcome.ledger is not None:
            tables["ledger"] = [(p.segment.start, p.segment.end, payer, p.payee, p.amount)
                                for p in outcome.ledger.payments for payer in p.payers]
        games[kind.value] = {"tables": tables, "efficiency": eff}
    return lines, games


def face_csv(games) -> dict[str, str]:
    return {
        f"{name}_{kind}.csv": "".join(",".join(map(str, row)) + "\n"
                                      for row in [HEADERS[name], *rows])
        for kind, game in games.items() for name, rows in game["tables"].items()
    }


def face_json(params, games) -> str:
    def objects(name, rows):
        header = HEADERS[name][:-1] if name == "share_reports" else HEADERS[name]
        return [dict(zip(header, row)) for row in rows]

    mechanisms = {
        kind: {"ledger": None, "efficiency": str(game["efficiency"]),
               **{name: objects(name, rows) for name, rows in game["tables"].items()}}
        for kind, game in games.items()
    }
    doc = {"scenario": "game",
           "params": {"c": params.c, "u": params.u, "ca": "0",
                      "charge_all_switches": False},
           "mechanisms": mechanisms}
    return json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"


# Rotations under sg-da (a1 out at 7, as in criterion 6), a hole in
# availability over [20, 25) and pt payers in every overlap.
ROTATING = [AgentSpec("a1", 0, 10), AgentSpec("a2", 4, 16), AgentSpec("a3", 8, 20),
            AgentSpec("a4", 25, 30), AgentSpec("a5", F(51, 2), 31)]
ROTATING_PARAMS = GameParams(u=2, c=F(1, 3))


@settings(**SETTINGS)
@given(streams(), costed_params)
@example(HOLE, GameParams(u=2, c=1))
@example(HANDOVER, GameParams(u=F(1, 2), c=F(5, 7)))
@example(SINGLE, GameParams(u=F(3, 7), c=3))
@example(LARGE_DENOMINATORS, GameParams(u=2, c=1))
@example(ROTATING, ROTATING_PARAMS)
def test_cli_tables_equal_the_tables_of_the_faces(stream, params):
    kinds = list(MechanismKind)
    lines, games = face_tables(stream, params, kinds)
    assert _render(*_run_game(stream, params, kinds), "csv") == (lines, face_csv(games))
    assert _render(*_run_game(stream, params, kinds), "json") == (
        lines, {"result.json": face_json(params, games)})


def test_the_rotating_game_has_what_its_name_says():
    _, games = face_tables(ROTATING, ROTATING_PARAMS, list(MechanismKind))
    kinds = {row[3] for row in games["sg-da"]["tables"]["switches"]}
    assert kinds == {"rotation"}
    assert any(row[-1] for row in games["sg-da"]["tables"]["share_reports"])
    assert len(games["pt"]["tables"]["ledger"]) == 5
    segments = stream_shares(ROTATING).segments
    assert any(a.end < b.start for a, b in zip(segments, segments[1:]))  # a hole


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_cli_game_builds_no_face(monkeypatch, fmt):
    built = _count_constructions(monkeypatch)
    _, artifacts = _render(*_run_game(ROTATING, ROTATING_PARAMS, list(MechanismKind)), fmt)
    assert artifacts
    faces = {"ActivePeriod", "SwitchEvent", "Schedule", "ShareReport", "Payment",
             "Ledger", "Segment"}
    assert faces.isdisjoint(built)
    assert built["MechanismOutcome"] == 4


@pytest.mark.parametrize("kind", list(MechanismKind), ids=lambda k: k.value)
def test_each_face_object_is_built_once(monkeypatch, kind):
    built = _count_constructions(monkeypatch)
    outcome = run_mechanism(kind, ROTATING, ROTATING_PARAMS)
    schedule, ledger, reports = outcome.schedule, outcome.ledger, outcome.reports
    counts = {"ActivePeriod": len(schedule.periods), "SwitchEvent": len(schedule.switches),
              "Schedule": 1, "ShareReport": len(reports)}
    if kind is MechanismKind.PAYMENT_TRANSFER:
        counts.update(Payment=len(ledger.payments), Ledger=1,
                      Segment=len(outcome.shares.segments))
    assert {name: built[name] for name in counts} == counts
    before = dict(built)
    assert (outcome.schedule, outcome.ledger, outcome.reports) == (schedule, ledger, reports)
    assert outcome.schedule is schedule and outcome.reports is reports
    assert dict(built) == before  # the second read built nothing


@settings(**SETTINGS)
@given(streams(), costed_params)
@example(HOLE, GameParams(u=2, c=1))
@example(LARGE_DENOMINATORS, GameParams(u=F(3, 7), c=1))
def test_pt_transfers_equal_the_oracle(stream, params):
    ledger = run_mechanism("pt", stream, params).ledger
    want = oracle.pt_run(stream, params).ledger
    assert ledger.payments == want.payments
    assert ledger.net == want.net
    assert ledger == want


def test_pt_builds_no_transfer_before_the_first_read(monkeypatch):
    built = _count_constructions(monkeypatch)
    outcome = run_mechanism("pt", HANDOVER, GameParams(u=F(1, 2)))
    assert "Payment" not in built and "Ledger" not in built
    ledger = outcome.ledger
    assert built["Payment"] == len(ledger.payments) > 0
    assert outcome.ledger is ledger and built["Ledger"] == 1  # built once


def _transfers(ledger: Ledger) -> list[tuple]:
    """One (payer, payee, amount) row per payer of each entry, in order."""
    return [(payer, p.payee, p.amount) for p in ledger.payments for payer in p.payers]


def test_pt_payments_are_one_entry_per_segment():
    # |seg| * u / n_seg each: [0,2) a alone, 2*2/1; [2,5) a leads b, 3*2/2;
    # [5,7) b leads c, 2*2/2; [7,9) c alone, 2*2/1.  A leader alone has no
    # payer, so its entry writes no transfer.
    ledger = run_mechanism("pt", HANDOVER, GameParams(u=2)).ledger
    segments = stream_shares(HANDOVER).segments
    assert ledger.payments == (
        Payment(segments[0], "a", (), F(4)),
        Payment(segments[1], "a", ("b",), F(3)),
        Payment(segments[2], "b", ("c",), F(2)),
        Payment(segments[3], "c", (), F(4)),
    )
    assert _transfers(ledger) == [("b", "a", F(3)), ("c", "b", F(2))]


def test_ledgers_compare_their_payments_and_net():
    # a leader alone writes no transfer, but its entry is part of the ledger
    ledger = run_mechanism("pt", HANDOVER, GameParams(u=2)).ledger
    assert Ledger(ledger.payments, ledger.net) == ledger
    payers_only = Ledger(tuple(p for p in ledger.payments if p.payers), ledger.net)
    assert _transfers(payers_only) == _transfers(ledger)
    assert payers_only != ledger
