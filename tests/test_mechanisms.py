"""Mechanism engines checked against independent oracle simulations.

The oracles here deliberately share no code with the engines:

* `rg_oracle` and `pt_oracle` integrate leader time over the realized
  segment decomposition, picking the leader per interval from scratch;
* `sg_oracle` replays the single-game rules by brute force on a fixed
  1/72 time grid using pure integer arithmetic.

For streams of up to 4 agents with integer arrival and departure times the
grid simulation is exact, not approximate: every allocated share is a sum
of terms length/n_seg (n_seg <= 4) and every dynamic adjustment divides
such a term by a pool of at most 3 members, so all quantities live on the
1/72 lattice (72 = lcm of n_seg * pool over those ranges) and every
rotation instant falls on a grid point.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from fractions import Fraction as F
from itertools import pairwise

import numpy as np
import pytest

import socd.mechanisms
from socd import (
    AgentSpec,
    GameParams,
    HighwayParams,
    MechanismKind,
    MechanismOutcome,
    SwitchKind,
    eas_segments,
    efficiency,
    ex_post_share,
    game_duration,
    highway_experiment,
    net_utilities,
    run_mechanism,
    stream_shares,
    validate_schedule,
)
from conftest import S1, random_stream
from mechanism_oracle import faces
from test_highway_core import _count_constructions, _counting
from tick_adapter import relieve as _relieve

GRID = 72  # lcm of n_seg * pool_size for up to 4 agents; see module docstring


def _intervals(stream):
    """Realized (start, end, present) triples, skipping empty stretches."""
    times = sorted({t for a in stream for t in (a.t_arrive, a.t_leave)})
    for s, e in pairwise(times):
        present = [a for a in stream if a.t_arrive <= s and a.t_leave >= e]
        if present:
            yield s, e, present


def rg_oracle(stream):
    """Independent repeated-game shares.

    Joins happen at the front and departures keep the relative order, so at
    any instant the leader is simply the present agent that arrived last.
    """
    led = {a.id: F(0) for a in stream}
    for s, e, present in _intervals(stream):
        leader = max(present, key=lambda a: a.t_arrive)
        led[leader.id] += e - s
    return led


def pt_oracle(stream, params):
    """Independent payment-transfer shares and transfer balance.

    Per interval the earliest-departing agent leads and each of the other
    n-1 agents pays it length * u / n.
    """
    led = {a.id: F(0) for a in stream}
    net = {a.id: F(0) for a in stream}
    for s, e, present in _intervals(stream):
        leader = min(present, key=lambda a: (a.t_leave, a.t_arrive))
        led[leader.id] += e - s
        pay = (e - s) * params.u / len(present)
        for a in present:
            if a.id != leader.id:
                net[a.id] -= pay
                net[leader.id] += pay
    return led, net


def sg_oracle(stream, dynamic_adjust=False):
    """Single-game shares replayed step by step on the 1/72 grid.

    Works entirely in integer multiples of 1/72.  Each member is a
    (leave, arrive, id) triple; `unfinished` is kept sorted (first to
    depart in front), `finished` in rotation order behind them.  At every
    instant departures are handled first, then the arrival, then any due
    rotations; the front unfinished member leads and burns down its
    remaining share one step at a time.

    Returns (led, rotations, rotation_log) with led in Fractions and the
    log holding (time, agent, convoy_size) per counted rotation.
    """
    members = []
    for a in stream:
        lv, ar = a.t_leave * GRID, a.t_arrive * GRID
        assert lv.denominator == 1 and ar.denominator == 1
        members.append((int(lv), int(ar), a.id))
    pending = sorted(members, key=lambda m: m[1])
    start = min(m[1] for m in members)
    end = max(m[0] for m in members)

    unfinished: list[tuple[int, int, str]] = []
    finished: list[tuple[int, int, str]] = []
    rm = {m[2]: 0 for m in members}
    led = {m[2]: 0 for m in members}
    rotations = {m[2]: 0 for m in members}
    rot_log: list[tuple[F, str, int]] = []

    def exact_div(num, den):
        q, r = divmod(num, den)
        assert r == 0, "quantity off the 1/72 lattice"
        return q

    i = 0
    for t in range(start, end):
        unfinished = [m for m in unfinished if m[0] > t]
        finished = [m for m in finished if m[0] > t]

        while i < len(pending) and pending[i][1] == t:
            newcomer = pending[i]
            i += 1
            lv_n, ar_n, id_n = newcomer
            present = unfinished + finished + [newcomer]
            cuts = sorted({m[0] for m in present if ar_n < m[0] < lv_n})
            bounds = [ar_n, *cuts, lv_n]
            segs = []
            for s, e in pairwise(bounds):
                n_seg = sum(1 for m in present if m[0] >= e)
                segs.append((s, e, n_seg))
            rm[id_n] = sum(exact_div(e - s, n) for s, e, n in segs)
            if dynamic_adjust:
                for s, e, n in segs:
                    pool = [m for m in unfinished if m[0] > s]
                    if pool:
                        cut = exact_div(exact_div(e - s, n), len(pool))
                        for m in pool:
                            rm[m[2]] = max(0, rm[m[2]] - cut)
            unfinished.append(newcomer)
            unfinished.sort(key=lambda m: (m[0], m[1]))

        while unfinished and rm[unfinished[0][2]] == 0:
            rotator = unfinished.pop(0)
            finished.append(rotator)
            leader = unfinished[0] if unfinished else finished[0]
            if leader is not rotator:
                rotations[rotator[2]] += 1
                rot_log.append((F(t, GRID), rotator[2], len(unfinished) + len(finished)))

        if unfinished:
            leader = unfinished[0]
            rm[leader[2]] -= 1
            assert rm[leader[2]] >= 0
        elif finished:
            leader = finished[0]
        else:
            leader = None
        if leader is not None:
            led[leader[2]] += 1

    return {k: F(v, GRID) for k, v in led.items()}, rotations, rot_log


def rotation_events(outcome):
    return [s for s in outcome.schedule.switches if s.kind is SwitchKind.ROTATION]


# --------------------------------------------------------- reference scenario
#
# Scenario: a1 = [0, 10), a2 = [4, 16), a3 = [8, 20); u = 1, c = 0.
# Realized segments: [0,4) {a1} | [4,8) {a1,a2} | [8,10) {a1,a2,a3}
#                    | [10,16) {a2,a3} | [16,20) {a3}.
# Ex-post shares: a1 = 4 + 4/2 + 2/3          = 20/3
#                 a2 =     4/2 + 2/3 + 6/2    = 17/3
#                 a3 =           2/3 + 6/2 + 4 = 23/3   (sum = 20)


def test_rg_reference_shares(s1):
    # Hand trace (newest arrival leads):
    #   t=0  a1 arrives, leads.
    #   t=4  a2 arrives at the front, leads; a1 has led [0,4) = 4.
    #   t=8  a3 arrives at the front, leads; a2 has led [4,8) = 4.
    #   t=10 a1 departs from mid-convoy, no change.
    #   t=16 a2 departs from behind the leader, no change.
    #   t=20 a3 departs having led [8,20) = 12.
    out = run_mechanism("rg", s1)
    assert out.lead_shares == {"a1": F(4), "a2": F(4), "a3": F(12)}
    assert rg_oracle(s1) == out.lead_shares
    assert rotation_events(out) == []
    assert [(p.agent, p.start, p.stop) for p in out.schedule.periods] == [
        ("a1", F(0), F(4)), ("a2", F(4), F(8)), ("a3", F(8), F(20))
    ]
    assert efficiency(out.schedule, s1, GameParams()) == F(14)


def test_sg_reference_shares(s1):
    # Hand trace (front = earliest departure, no adjustment):
    #   t=0  a1 arrives alone: allocation [0,10)/1 = 10; leads.
    #   t=4  a2 arrives: allocation [4,10)/2 + [10,16)/1 = 3 + 6 = 9.
    #        Order by departure: a1(10) then a2(16); a1 keeps leading.
    #   t=8  a3 arrives: [8,10)/3 + [10,16)/2 + [16,20)/1 = 2/3 + 3 + 4 = 23/3.
    #   t=10 a1 exhausts its share exactly as it departs; the departure is
    #        processed first, so there is no rotation.  a2 leads.
    #   t=16 a2 departs having led [10,16) = 6 of its 9.  a3 leads.
    #   t=20 a3 departs having led [16,20) = 4 of its 23/3.
    out = run_mechanism("sg", s1)
    assert out.lead_shares == {"a1": F(10), "a2": F(6), "a3": F(4)}
    assert rotation_events(out) == []

    led, rotations, log = sg_oracle(s1)
    assert led == out.lead_shares
    assert rotations == {"a1": 0, "a2": 0, "a3": 0}
    assert log == []


def test_sg_dynamic_reference_shares(s1):
    # Hand trace (adjustment on):
    #   t=0  a1: allocation 10, leads.
    #   t=4  a2 arrives claiming 9.  a2's segments relieve the unfinished:
    #        [4,10)/2 = 3 split over pool {a1} -> a1: 10-4(led)-3 = 3 left;
    #        [10,16) has no other unfinished member available, no cut.
    #   t=7  a1 exhausts (led 4+3 = 7), rotates behind a2; a2 leads.
    #   t=8  a3 arrives claiming 23/3; cuts: [8,10)/3 = 2/3 over pool {a2}
    #        and [10,16)/2 = 3 over pool {a2} (a1 is finished, exempt);
    #        [16,20) has an empty pool.  a2: 8 - 2/3 - 3 = 13/3 left.
    #   t=37/3  a2 exhausts (led 1 + 13/3 = 16/3), rotates; a3 leads.
    #   t=20 a3 departs: led [37/3,20) = 23/3, its exact allocation.
    out = run_mechanism("sg-da", s1)
    assert out.lead_shares == {"a1": F(7), "a2": F(16, 3), "a3": F(23, 3)}
    assert [(s.time, s.outgoing) for s in rotation_events(out)] == [
        (F(7), "a1"), (F(37, 3), "a2")
    ]

    led, rotations, log = sg_oracle(s1, dynamic_adjust=True)
    assert led == out.lead_shares
    assert rotations == {"a1": 1, "a2": 1, "a3": 0}
    assert [(t, who) for t, who, _ in log] == [(F(7), "a1"), (F(37, 3), "a2")]

    # realized proportional benchmarks for the same stream
    assert [ex_post_share(a, s1) for a in s1] == [F(20, 3), F(17, 3), F(23, 3)]


def test_pt_reference_payments(s1):
    # Hand trace (earliest departure leads, followers pay length*u/n):
    #   [0,4)   a1 alone, no payments.
    #   [4,8)   a1 leads; a2 pays 4/2 = 2.
    #   [8,10)  a1 leads; a2 and a3 pay 2/3 each.
    #   [10,16) a2 leads; a3 pays 6/2 = 3.
    #   [16,20) a3 alone.
    #   Balances: a1 = +2+4/3 = 10/3; a2 = -2-2/3+3 = 1/3; a3 = -2/3-3 = -11/3.
    out = run_mechanism("pt", s1)
    assert out.lead_shares == {"a1": F(10), "a2": F(6), "a3": F(4)}
    assert dict(out.ledger.net) == {"a1": F(10, 3), "a2": F(1, 3), "a3": F(-11, 3)}
    assert rotation_events(out) == []

    led, net = pt_oracle(s1, GameParams())
    assert led == out.lead_shares
    assert net == dict(out.ledger.net)

    # lost lead time plus transfers: 10-10+10/3, 12-6+1/3, 12-4-11/3
    assert net_utilities(out) == {
        "a1": F(10, 3), "a2": F(19, 3), "a3": F(13, 3)
    }
    # transfers are zero-sum, so total utility equals the welfare measure
    assert sum(net_utilities(out).values()) == F(14)


def test_reference_schedules_validate(s1):
    for kind in MechanismKind:
        out = run_mechanism(kind, s1)
        assert validate_schedule(out.schedule, s1) == []
        assert sum(out.lead_shares.values()) == game_duration(s1)


def test_share_reports_compare_both_benchmarks(s1):
    reports = {r.agent: r for r in run_mechanism("sg-da", s1).reports}
    assert reports["a2"].assigned == F(16, 3)
    assert reports["a2"].ex_ante == F(9)
    assert reports["a2"].ex_post == F(17, 3)


# ----------------------------------------------------------- small fixtures


def test_rg_leader_departure_restores_previous_leader():
    # b joins the front at 2 and leaves at 6, handing the lead back to a
    out = run_mechanism("rg", [AgentSpec("a", 0, 10), AgentSpec("b", 2, 6)])
    assert [(p.agent, p.start, p.stop) for p in out.schedule.periods] == [
        ("a", F(0), F(2)), ("b", F(2), F(6)), ("a", F(6), F(10))
    ]
    assert out.lead_shares == {"a": F(6), "b": F(4)}


def test_sg_earlier_departure_takes_the_front():
    # b = [1,4) claims [1,4)/2 = 3/2, slots in front of a (departs first),
    # leads [1, 5/2), rotates, and a resumes
    out = run_mechanism("sg", [AgentSpec("a", 0, 10), AgentSpec("b", 1, 4)])
    assert out.lead_shares == {"a": F(17, 2), "b": F(3, 2)}
    assert [(s.time, s.outgoing, s.n_r) for s in rotation_events(out)] == [
        (F(5, 2), "b", 2)
    ]


@pytest.mark.parametrize(
    "b_leave, b_share, rotate_at, a_total",
    [(6, F(2), F(4), F(18)), (10, F(4), F(6), F(16))],
)
def test_sg_preemption_and_rotation(b_leave, b_share, rotate_at, a_total):
    # B claims half of the overlap [2, b_leave), leads it out, rotates
    stream = [AgentSpec("A", 0, 20), AgentSpec("B", 2, b_leave)]
    out = run_mechanism("sg", stream)
    assert out.lead_shares == {"A": a_total, "B": b_share}
    assert [(s.time, s.outgoing) for s in rotation_events(out)] == [(rotate_at, "B")]

    led, rotations, _ = sg_oracle(stream)
    assert led == out.lead_shares
    assert rotations == {"A": 0, "B": 1}


def test_sg_three_agents_rotate_in_departure_order():
    # C (leaves 8) fronts B (leaves 10) fronts A (leaves 20):
    #   C claims [3,8)/3 = 5/3, leads [3, 14/3), rotates;
    #   B claims [2,10)/2 = 4, led [2,3) = 1 already, leads [14/3, 23/3), rotates;
    #   A takes [23/3, 20) on top of its opening [0, 2).
    stream = [AgentSpec("A", 0, 20), AgentSpec("B", 2, 10), AgentSpec("C", 3, 8)]
    out = run_mechanism("sg", stream)
    assert out.lead_shares == {"A": F(43, 3), "B": F(4), "C": F(5, 3)}
    assert [(s.time, s.outgoing, s.n_r) for s in rotation_events(out)] == [
        (F(14, 3), "C", 3), (F(23, 3), "B", 3)
    ]

    led, rotations, log = sg_oracle(stream)
    assert led == out.lead_shares
    assert [(t, who, n) for t, who, n in log] == [
        (F(14, 3), "C", 3), (F(23, 3), "B", 3)
    ]


def test_sg_arrival_preempts_due_rotation_then_rotations_chain():
    # B exhausts its share of 2 exactly when C arrives at t=4.  The arrival
    # is processed first and C departs sooner, so C takes the front and B's
    # rotation is deferred.  When C rotates at 13/3, B is in front with
    # nothing left and rotates immediately after, a zero-length lead.
    stream = [AgentSpec("A", 0, 10), AgentSpec("B", 2, 6), AgentSpec("C", 4, 5)]
    out = run_mechanism("sg", stream, GameParams(c=1))
    assert out.lead_shares == {"A": F(23, 3), "B": F(2), "C": F(1, 3)}
    assert [(s.time, s.outgoing, s.incoming, s.n_r) for s in rotation_events(out)] == [
        (F(13, 3), "C", "B", 3), (F(13, 3), "B", "A", 3)
    ]
    # both rotations happen in a convoy of 3, so each rotator pays 3c
    assert out.rotation_costs == {"B": F(3), "C": F(3)}
    assert validate_schedule(out.schedule, stream) == []

    led, rotations, log = sg_oracle(stream)
    assert led == out.lead_shares
    assert [(t, who, n) for t, who, n in log] == [
        (F(13, 3), "C", 3), (F(13, 3), "B", 3)
    ]


def test_sg_dynamic_clamps_shares_at_zero():
    # A=[0,10), B=[4,6), C=[5,7).  B's arrival cuts A by its claim of 1.
    # At t=5, B has exhausted its share just as C arrives; C's first
    # segment [5,6)/3 cuts B and A by 1/6 each, clamping B at zero, and
    # its second segment [6,7)/2 cuts A by 1/2 more.  B then rotates with
    # a zero remainder, C leads its 5/6, rotates at 35/6, and A leads on,
    # departing at 10 with 1/6 of its claim unserved.
    stream = [AgentSpec("A", 0, 10), AgentSpec("B", 4, 6), AgentSpec("C", 5, 7)]
    out = run_mechanism("sg-da", stream)
    assert out.lead_shares == {"A": F(49, 6), "B": F(1), "C": F(5, 6)}
    assert [(s.time, s.outgoing, s.n_r) for s in rotation_events(out)] == [
        (F(5), "B", 3), (F(35, 6), "C", 3)
    ]

    led, rotations, log = sg_oracle(stream, dynamic_adjust=True)
    assert led == out.lead_shares
    assert [(t, who, n) for t, who, n in log] == [(F(5), "B", 3), (F(35, 6), "C", 3)]


def test_sg_adjust_shares_unit_behavior(s1):
    # sg-da's adjustment, `_relieve`, fed a2's ex-ante cut as (start, end, n_seg)
    a1, a2, a3 = s1
    cuts = [(s.start, s.end, len(s.members)) for s in eas_segments(a2, [a1, a2])]
    remaining = {"a1": F(6), "a2": F(9)}
    _relieve(a2, [a1, a2], remaining, cuts)
    assert remaining["a1"] == F(3)  # cut by [4,10)/2 = 3; [10,16) pool is empty
    assert remaining["a2"] == F(9)  # newcomers never cut themselves

    # reductions clamp at zero rather than going negative
    remaining = {"a1": F(1), "a2": F(9)}
    _relieve(a2, [a1, a2], remaining, cuts)
    assert remaining["a1"] == F(0)


def test_unequal_shares_when_an_agent_arrives_late():
    # b's window [9, 11) overlaps only the tail of a's [0, 10): equalizing
    # is impossible no matter the mechanism, since b can lead at most 2.
    stream = [AgentSpec("a", 0, 10), AgentSpec("b", 9, 11)]

    plain = run_mechanism("sg", stream).lead_shares
    assert plain == {"a": F(10), "b": F(1)}

    adjusted = run_mechanism("sg-da", stream).lead_shares
    assert adjusted == {"a": F(19, 2), "b": F(3, 2)}

    assert plain["a"] != plain["b"]
    assert adjusted["a"] != adjusted["b"]


# ------------------------------------------------------------- unit pricing


def test_convoy_switch_cost_cases():
    # rg: every arrival joins in front, each leaving leader hands back
    stream = [AgentSpec(f"a{k}", k, 100 - k) for k in range(7)]
    out = run_mechanism("rg", stream, GameParams(c=3))
    costs = {(ev.kind, ev.n_r): ev.cost for ev in out.schedule.switches}
    assert costs[SwitchKind.FRONT_JOIN, 7] == F(0)
    assert costs[SwitchKind.LEADER_LEAVE, 2] == F(0)
    assert set(costs.values()) == {F(0)}

    # sg: each exhausted leader rotates behind the other four, paying c * n_r
    stream = [AgentSpec(f"a{k}", k, 100 - k) for k in range(5)]
    out = run_mechanism("sg", stream, GameParams(c=2))
    rotations = [ev for ev in out.schedule.switches if ev.kind is SwitchKind.ROTATION]
    assert [(ev.n_r, ev.cost) for ev in rotations] == [(5, F(10))] * 3
    assert out.rotation_costs == {"a2": F(10), "a3": F(10), "a4": F(10)}


def test_pt_segment_payment_cases():
    # each follower pays the leader |seg| * u / n_seg per segment
    out = run_mechanism("pt", [AgentSpec(x, -k, 10) for k, x in enumerate("abcd")])
    paid = [(payer, p.amount) for p in out.ledger.payments if p.segment.start == 0
            for payer in p.payers]
    assert paid == [("c", F(5, 2)), ("b", F(5, 2)), ("a", F(5, 2))]  # [0, 10), n = 4

    stream = [AgentSpec(x, -k, 6) for k, x in enumerate("abc")]
    out = run_mechanism("pt", stream, GameParams(u=2))
    paid = [(payer, p.amount) for p in out.ledger.payments if p.segment.start == 0
            for payer in p.payers]
    assert paid == [("b", F(4)), ("a", F(4))]  # [0, 6), n = 3


def test_pt_single_agent_has_empty_ledger():
    out = run_mechanism("pt", [AgentSpec("solo", 3, 9)])
    assert [p.payers for p in out.ledger.payments] == [()]  # nobody pays
    assert out.ledger.net == {"solo": F(0)}
    assert out.lead_shares == {"solo": F(6)}


def test_single_agent_leads_its_whole_window_everywhere():
    solo = [AgentSpec("solo", 2, 11)]
    for kind in MechanismKind:
        assert run_mechanism(kind, solo).lead_shares == {"solo": F(9)}


def test_run_mechanism_accepts_cli_spellings(s1):
    assert run_mechanism("rg", s1).kind is MechanismKind.REPEATED_GAME
    assert run_mechanism("sg-da", s1).kind is MechanismKind.SINGLE_GAME_DYNAMIC
    with pytest.raises(ValueError):
        run_mechanism("nope", s1)


def test_net_utilities_recomputes_a_replaced_outcome(s1):
    # a copy with other params runs again at them, as a fresh run would
    out = run_mechanism("pt", s1, GameParams(1, 0))
    assert net_utilities(out) == {"a1": F(10, 3), "a2": F(19, 3), "a3": F(13, 3)}
    moved = dataclasses.replace(out, params=GameParams(2, 1))
    want = {"a1": F(20, 3), "a2": F(38, 3), "a3": F(26, 3)}
    assert net_utilities(run_mechanism("pt", s1, GameParams(2, 1))) == want
    assert net_utilities(moved) == want
    assert moved.ledger == run_mechanism("pt", s1, GameParams(2, 1)).ledger


def test_an_outcome_is_built_from_its_inputs(s1):
    for kind in MechanismKind:
        out = MechanismOutcome(kind.value, s1)
        assert out == run_mechanism(kind, s1)
        assert out.kind is kind and out.params == GameParams()
        assert faces(out) == faces(run_mechanism(kind, stream_shares(s1)))
    # a replaced stream is run again: a2 leaves at 12 instead of 16
    out = run_mechanism("sg", s1, GameParams(c=1))
    other = (s1[0], AgentSpec("a2", 4, 12), s1[2])
    moved = dataclasses.replace(out, shares=other)
    assert moved == run_mechanism("sg", other, GameParams(c=1)) != out
    assert faces(moved) == faces(run_mechanism("sg", other, GameParams(c=1)))
    assert moved.lead_shares != out.lead_shares



FACES = ("schedule", "ledger", "lead_shares", "rotation_costs", "reports")


@pytest.mark.parametrize("kind", ["pt", "sg"])
def test_faces_are_built_on_first_read_and_once(monkeypatch, s1, kind):
    built = _count_constructions(monkeypatch)
    out = run_mechanism(kind, s1, GameParams(c=1))
    assert built == {"MechanismOutcome": 1}  # the tick run only
    first = {name: getattr(out, name) for name in FACES}
    assert all(getattr(out, name) is face for name, face in first.items())
    schedule, ledger = out.schedule, out.ledger
    assert built["Schedule"] == 1 and built["Ledger"] == (kind == "pt")
    assert built["ActivePeriod"] == len(schedule.periods) > 0
    assert built["SwitchEvent"] == len(schedule.switches) > 0
    assert built["Payment"] == (len(ledger.payments) if ledger else 0)


def test_pt_payments_are_divided_out_only_by_its_ledger(monkeypatch):
    # every mechanism's run is the same tick core: neither an outcome nor
    # the highway settles pt's payments; the ledger face divides one
    # payment per realized segment when it is first read
    calls: Counter = Counter()
    monkeypatch.setattr(socd.mechanisms, "_div",
                        _counting(calls, "_div", socd.mechanisms._div))
    stream = random_stream(np.random.default_rng(7), n_agents=6)
    out = run_mechanism("pt", stream, GameParams(u=F(3, 2)))
    highway_experiment(HighwayParams(n_convoys=3, agents_per_convoy=6), ["pt"])
    assert calls["_div"] == 0
    ledger = out.ledger
    assert calls["_div"] == len(ledger.payments) == len(out.shares.segments) > 1


# ------------------------------------------------- engine-vs-oracle sweeps


def test_sg_engine_matches_grid_oracle():
    rng = np.random.default_rng(41)
    for trial in range(60):
        stream = random_stream(
            rng, n_agents=int(rng.integers(2, 5)), integer_times=True, horizon=12
        )
        dynamic = bool(trial % 2)
        out = run_mechanism("sg-da" if dynamic else "sg", stream)
        led, rotations, log = sg_oracle(stream, dynamic_adjust=dynamic)

        assert out.lead_shares == led
        engine_log = [(s.time, s.outgoing, s.n_r) for s in rotation_events(out)]
        assert engine_log == [(t, who, n) for t, who, n in log]
        assert validate_schedule(out.schedule, stream) == []


def test_rg_engine_matches_interval_oracle():
    rng = np.random.default_rng(43)
    for _ in range(150):
        stream = random_stream(rng)
        out = run_mechanism("rg", stream)
        assert out.lead_shares == rg_oracle(stream)
        assert rotation_events(out) == []
        assert validate_schedule(out.schedule, stream) == []


def test_pt_engine_matches_interval_oracle():
    rng = np.random.default_rng(44)
    for _ in range(150):
        stream = random_stream(rng)
        params = GameParams(u=F(int(rng.integers(1, 4))))
        out = run_mechanism("pt", stream, params)
        led, net = pt_oracle(stream, params)
        assert out.lead_shares == led
        assert dict(out.ledger.net) == net
        assert rotation_events(out) == []


# ----------------------------------------------------------- invariant sweeps


def test_pt_balances_settle_everyone_to_the_same_utility():
    # with c=0 every agent nets u * (availability - realized share)
    rng = np.random.default_rng(45)
    params = GameParams()
    for _ in range(150):
        stream = random_stream(rng)
        out = run_mechanism("pt", stream, params)
        utilities = net_utilities(out)
        for a in stream:
            expected = params.u * (a.window - ex_post_share(a, stream, params))
            assert utilities[a.id] == expected
        assert sum(out.ledger.net.values()) == 0
        assert sum(utilities.values()) == efficiency(out.schedule, stream, params)


def test_sg_rotation_and_lead_bounds():
    rng = np.random.default_rng(46)
    for trial in range(100):
        stream = random_stream(rng)
        dynamic = bool(trial % 2)
        out = run_mechanism("sg-da" if dynamic else "sg", stream)

        rotated = [s.outgoing for s in rotation_events(out)]
        assert len(rotated) == len(set(rotated)), "an agent rotated twice"

        for a in stream:
            present = [p for p in stream if p.available_at(a.t_arrive)]
            allocation = sum(
                (s.length / len(s.members) for s in eas_segments(a, present)),
                F(0),
            )
            assert out.lead_shares[a.id] <= allocation

        assert sum(out.lead_shares.values()) == game_duration(stream)
        assert validate_schedule(out.schedule, stream) == []


def test_outcomes_are_deterministic():
    rng = np.random.default_rng(47)
    for _ in range(20):
        stream = random_stream(rng)
        for kind in MechanismKind:
            assert faces(run_mechanism(kind, stream)) == faces(run_mechanism(kind, stream))
