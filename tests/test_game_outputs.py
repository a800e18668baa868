"""What a game run writes, built from per-segment and per-agent values.

pt keeps its ledger per realized segment and builds its `Transfer`s only
when `Ledger.transfers` is first read; the CLI reads its ledger rows from
the per-segment entries.  The CLI's `efficiency` is the sum of the net
utilities it already has.  These tests check both against what they
replace: the transfers of the pt loop kept in `mechanism_oracle.py`, and
`model.efficiency` on the outcome's schedule.
"""

from __future__ import annotations

import json
from fractions import Fraction as F

import pytest
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
    assert ledger.transfers == want.transfers
    assert ledger.net == want.net
    assert ledger == want


def test_pt_builds_no_transfer_before_the_first_read(monkeypatch):
    built = _count_constructions(monkeypatch)
    ledger = run_mechanism("pt", HANDOVER, GameParams(u=F(1, 2))).ledger
    assert "Transfer" not in built
    transfers = ledger.transfers
    assert built["Transfer"] == len(transfers) > 0
    assert ledger.transfers is transfers  # built once


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
    assert [(t.payer, t.payee, t.amount) for t in ledger.transfers] == [
        ("b", "a", F(3)), ("c", "b", F(2))]


def test_a_ledger_built_from_transfers_groups_them_per_segment():
    # a segment whose leader is alone has no transfer, so no entry here
    for stream in (HOLE, HANDOVER, LARGE_DENOMINATORS):
        ledger = run_mechanism("pt", stream, GameParams(u=F(3, 7))).ledger
        by_hand = Ledger(ledger.transfers, ledger.net)
        assert by_hand == ledger
        assert by_hand.payments == tuple(p for p in ledger.payments if p.payers)


def test_a_ledger_takes_transfers_or_payments_not_both():
    ledger = run_mechanism("pt", HANDOVER).ledger
    with pytest.raises(TypeError):
        Ledger(None, ledger.net)
    with pytest.raises(TypeError):
        Ledger(ledger.transfers, ledger.net, payments=ledger.payments)
