"""One sweep per stream: passing a `StreamShares` changes nothing but the work.

* Every stream-taking mechanism, `net_utilities` and `efficiency` give the
  same results on a stream and on its sweep, and on a sweep they neither
  validate nor sweep again.
* The one-pass adjustment `mechanisms._relieve` equals the per-segment
  oracle in `adjust_oracle.py`, alone and inside whole sg-da runs, where
  the reference is the sg loop of `mechanism_oracle.py` that adjusts by it.
* The one-pass `efficiency` equals its definition, each agent's lead time
  summed over its periods.
"""

from __future__ import annotations

from fractions import Fraction as F
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import adjust_oracle as oracle
import mechanism_oracle
import socd.model
from mechanism_oracle import ConvoyState, faces
from socd import (
    AgentSpec,
    GameParams,
    MechanismKind,
    eas_segments,
    efficiency,
    net_utilities,
    run_mechanism,
    stream_shares,
)
from test_shares import HANDOVER, HOLE, LARGE_DENOMINATORS, SINGLE, streams
from tick_adapter import relieve as _relieve

SETTINGS = dict(deadline=None, derandomize=True, database=None)
params_st = st.builds(
    GameParams,
    u=st.integers(1, 3),
    c=st.sampled_from([0, F(1, 2), 1, 3]),
)


# ------------------------------------------------- stream or sweep: same outcome


@settings(max_examples=80, **SETTINGS)
@given(streams(), params_st)
@example(HOLE, GameParams(c=1))
@example(HANDOVER, GameParams(c=F(1, 2)))
@example(SINGLE, GameParams())
@example(LARGE_DENOMINATORS, GameParams(u=2, c=1))
def test_mechanisms_read_a_sweep_like_the_stream(stream, params):
    sweep = stream_shares(stream)
    for kind in MechanismKind:
        plain = run_mechanism(kind, stream, params)
        swept = run_mechanism(kind, sweep, params)
        assert swept.shares is sweep
        assert swept.schedule == plain.schedule
        assert swept.ledger == plain.ledger
        assert swept.rotation_costs == plain.rotation_costs
        assert swept.lead_shares == plain.lead_shares
        assert swept.reports == plain.reports
        assert net_utilities(swept) == net_utilities(plain)
        assert efficiency(swept.schedule, sweep, params) == efficiency(
            plain.schedule, stream, params
        )


def test_a_sweep_is_neither_validated_nor_swept_again():
    sweep = stream_shares(LARGE_DENOMINATORS)
    params = GameParams(c=1)
    with mock.patch.object(
        socd.model, "validate_stream", side_effect=AssertionError("re-validated")
    ):
        assert stream_shares(sweep) is sweep
        for kind in MechanismKind:
            outcome = run_mechanism(kind, sweep, params)
            assert outcome.shares is sweep
            outcome.reports
            net_utilities(outcome)
            efficiency(outcome.schedule, sweep, params)


@settings(max_examples=40, **SETTINGS)
@given(streams(), params_st)
@example(HOLE, GameParams(c=1))
def test_one_pass_efficiency_matches_its_definition(stream, params):
    for kind in MechanismKind:
        schedule = run_mechanism(kind, stream, params).schedule
        led = [
            sum((p.length for p in schedule.periods if p.agent == a.id), F(0))
            for a in stream
        ]
        gained = sum(
            (params.u * (a.window - lead) for a, lead in zip(stream, led)), F(0)
        )
        cost = sum((ev.cost for ev in schedule.switches), F(0))
        assert efficiency(schedule, stream, params) == gained - cost


# ---------------------------------------------- one-pass sg-da adjustment


def _case(newcomer, unfinished, finished, remaining):
    """(newcomer, state, ex-ante cut) as the sg-da driver sees them."""
    members = sorted([*unfinished, newcomer], key=lambda m: (m.t_leave, m.t_arrive))
    state = ConvoyState(
        unfinished=members, finished=list(finished), remaining=dict(remaining)
    )
    return newcomer, state, eas_segments(newcomer, members + state.finished)


N = AgentSpec("n", 0, 10)
A = AgentSpec("a", -2, 4)
B = AgentSpec("b", -1, 8)
# b is clamped to 0 by [0, 4) (cut 2/3 against 1/2) and cut again by [4, 8)
CLAMPED_THEN_CUT = _case(N, [A, B], [], {"a": F(5), "b": F(1, 2), "n": F(3)})
# nobody but the newcomer is left for [8, 10): the pool empties mid-cut
POOL_EMPTIES = _case(N, [A, B], [], {"a": F(1, 10), "b": F(5), "n": F(3)})
# the only other member has finished, so there is no pool at all
ONLY_UNFINISHED = _case(N, [], [B], {"b": F(0), "n": F(3)})


@st.composite
def adjust_cases(draw):
    """A newcomer arriving in a random stream, with the members present split
    into unfinished and finished ones and random remaining shares."""
    stream = draw(streams(min_agents=1, max_agents=16))
    newcomer = draw(st.sampled_from(stream))
    present = [
        a for a in stream if a is not newcomer and a.available_at(newcomer.t_arrive)
    ]
    unfinished, finished = [], []
    for a in present:
        (finished if draw(st.booleans()) else unfinished).append(a)
    remaining = {
        a.id: F(draw(st.integers(0, 40)), draw(st.sampled_from([1, 3, 7])))
        for a in [newcomer, *unfinished]
    }
    return _case(newcomer, unfinished, finished, remaining)


def _relieved(newcomer, state, eas):
    """`_relieve` run on a copy of `state.remaining`, each `Segment` of the
    ex-ante cut handed over as its (start, end, n_seg)."""
    remaining = dict(state.remaining)
    cuts = [(seg.start, seg.end, len(seg.members)) for seg in eas]
    _relieve(newcomer, state.unfinished, remaining, cuts)
    return remaining


@settings(max_examples=200, **SETTINGS)
@given(adjust_cases())
@example(CLAMPED_THEN_CUT)
@example(POOL_EMPTIES)
@example(ONLY_UNFINISHED)
def test_one_pass_adjustment_matches_per_segment_oracle(case):
    newcomer, state, eas = case
    assert _relieved(newcomer, state, eas) == oracle.sg_adjust_shares(
        newcomer, state, eas
    )


def test_fixed_adjustment_examples_are_the_cases_they_name():
    newcomer, state, eas = CLAMPED_THEN_CUT
    assert [(s.start, s.end) for s in eas] == [(0, 4), (4, 8), (8, 10)]
    assert oracle.sg_adjust_shares(newcomer, state, eas[:1])["b"] == 0
    assert _relieved(newcomer, state, eas) == {
        "a": F(5) - F(2, 3), "b": F(0), "n": F(3)
    }
    newcomer, state, eas = POOL_EMPTIES
    assert all(m.t_leave <= eas[-1].start for m in state.unfinished if m != newcomer)
    assert _relieved(newcomer, state, eas) == {
        "a": F(0), "b": F(5) - F(2, 3) - F(2), "n": F(3)
    }
    newcomer, state, eas = ONLY_UNFINISHED
    assert state.unfinished == [newcomer]
    assert _relieved(newcomer, state, eas) == state.remaining


@settings(
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    **SETTINGS,
)
@given(streams(max_agents=40))
@example(HOLE)
@example(HANDOVER)
@example(LARGE_DENOMINATORS)
def test_sg_da_runs_match_with_the_per_segment_oracle(stream):
    params = GameParams(c=1)
    fast = run_mechanism("sg-da", stream, params)
    slow = mechanism_oracle.run_mechanism("sg-da", stream, params)
    assert faces(fast) == slow
