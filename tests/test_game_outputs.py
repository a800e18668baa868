"""What a game run writes, built from per-segment and per-agent values.

pt keeps its ledger per realized segment and builds its `Payment`s only
when `outcome.ledger` is first read; the CLI reads its ledger rows from
the per-segment entries, one per payer.  The CLI's `efficiency` is the sum of the net
utilities it already has.  These tests check both against what they
replace: the ledger of the pt loop kept in `mechanism_oracle.py`, and
`model.efficiency` on the outcome's schedule.
"""

from __future__ import annotations

import json
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

import mechanism_oracle as oracle
from socd import (
    GameParams,
    Ledger,
    MechanismKind,
    Payment,
    efficiency,
    run_mechanism,
    stream_shares,
)
from socd.cli import _run_game
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
    lines, artifacts = _run_game(stream, params, kinds, "json")
    written = json.loads(artifacts["result.json"])["mechanisms"]
    sweep = stream_shares(stream)
    for kind, line in zip(kinds, lines):
        want = str(efficiency(run_mechanism(kind, sweep, params).schedule, sweep, params))
        assert written[kind.value]["efficiency"] == want, kind
        assert line.endswith(f"; efficiency {want}"), kind


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
