"""The integer-tick core against the Fraction definition loops, exactly.

`socd.model.stream_shares` and `socd.mechanisms` run on integer ticks and
build Fractions only for their outputs.  For all four mechanisms their
results equal the Fraction definitions: the sweep against the per-agent
rescans in `share_oracle.py`, and the schedule and its switches, the lead
shares, the rotation charges and the pt ledger against the per-mechanism
loops in `mechanism_oracle.py`.  Net utilities and efficiency follow from
those faces by their definitions.  Every output value is still a
`Fraction`.  The sweep itself builds none: its segments and sums are built
on first read, once.

`PRIME_STREAM` has 100 agents whose times carry 200 distinct large-prime
denominators, so its tick scale runs to about 1,900 digits.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction as F

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import mechanism_oracle as oracle
import socd.model
from socd import (
    AgentSpec,
    GameParams,
    MechanismKind,
    Segment,
    efficiency,
    net_utilities,
    run_mechanism,
    stream_shares,
)
from test_highway_core import _counting
from test_shares import (
    HANDOVER,
    HOLE,
    LARGE_DENOMINATORS,
    PRIME_STREAM,
    SINGLE,
    assert_sweep_matches_oracle,
    streams,
)

params_st = st.builds(
    GameParams,
    u=st.sampled_from([1, 2, F(1, 2), F(3, 7)]),
    c=st.sampled_from([0, F(1, 2), 1, 3, F(5, 7)]),
)


def assert_ticks_match_fractions(stream: list[AgentSpec], params: GameParams) -> None:
    assert_sweep_matches_oracle(stream)
    sweep = stream_shares(stream)
    for kind in MechanismKind:
        fast = run_mechanism(kind, sweep, params)
        slow = oracle.run_mechanism(kind, stream, params)
        assert fast.schedule.periods == slow.schedule.periods, kind
        assert fast.schedule.switches == slow.schedule.switches, kind
        assert fast.lead_shares == slow.lead_shares, kind
        assert fast.rotation_costs == slow.rotation_costs, kind
        assert fast.ledger == slow.ledger, kind
        assert (fast.kind, fast.params) == (slow.kind, slow.params)
        # u per unit of availability not spent leading, plus the transfers
        # received, minus the rotation charges paid
        nets = net_utilities(fast)
        received = {} if slow.ledger is None else slow.ledger.net
        assert nets == {
            a.id: params.u * (a.window - slow.lead_shares[a.id])
            + received.get(a.id, 0) - slow.rotation_costs.get(a.id, 0)
            for a in stream
        }, kind
        assert efficiency(fast.schedule, sweep, params) == efficiency(
            slow.schedule, stream, params
        ), kind
        assert all(type(v) is F for v in [*fast.lead_shares.values(), *nets.values()])
        assert all(
            type(p.start) is F and type(p.stop) is F for p in fast.schedule.periods
        )


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(streams(), params_st)
@example(HOLE, GameParams(c=1))
@example(HANDOVER, GameParams(u=F(1, 2), c=F(5, 7)))
@example(SINGLE, GameParams(u=F(3, 7)))
@example(LARGE_DENOMINATORS, GameParams(u=2, c=1))
@example(PRIME_STREAM, GameParams(u=F(3, 7), c=F(5, 7)))
def test_tick_core_matches_the_fraction_core(stream, params):
    assert_ticks_match_fractions(stream, params)


def test_prime_stream_has_a_huge_tick_scale():
    denominators = {t.denominator for a in PRIME_STREAM for t in (a.t_arrive, a.t_leave)}
    assert len(denominators) == 2 * len(PRIME_STREAM) == 200
    assert len(str(stream_shares(PRIME_STREAM)._ticks.scale)) > 1800


def test_the_sweep_builds_no_segment_or_fraction(monkeypatch):
    built: Counter = Counter()
    for name, cls in (("Segment", Segment), ("frozenset", frozenset), ("Fraction", F)):
        monkeypatch.setattr(socd.model, name, _counting(built, name, cls), raising=False)
    sweep = stream_shares(PRIME_STREAM)
    assert built == {}
    sweep.segments, sweep.ex_ante  # the count sees what a first read builds
    assert set(built) == {"Segment", "frozenset", "Fraction"}


def test_the_fraction_face_is_built_once():
    sweep = stream_shares(PRIME_STREAM)
    assert sweep.segments is sweep.segments
    assert sweep.ex_ante is sweep.ex_ante
    assert sweep.ex_post is sweep.ex_post
