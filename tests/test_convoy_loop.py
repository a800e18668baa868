"""The one convoy event loop against the three loops it replaced, and at large n.

* For all four mechanisms, the outcome of `mechanisms._drive` equals the
  per-mechanism loops in `mechanism_oracle.py` exactly: periods, switches,
  ledger, rotation charges and lead shares.
* On streams of up to 500 agents, every schedule validates, the single
  games rotate nobody twice and nobody past the claim fixed at its
  arrival, pt and rg never rotate, and pt leaves every agent with
  u * (window - ex-post share).
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

import mechanism_oracle as oracle
from socd import (
    AgentSpec,
    GameParams,
    MechanismKind,
    SwitchKind,
    net_utilities,
    run_mechanism,
    stream_shares,
    validate_schedule,
)
from test_shares import HANDOVER, HOLE, LARGE_DENOMINATORS, SINGLE, streams

SETTINGS = dict(deadline=None, derandomize=True, database=None)
params_st = st.builds(
    GameParams, u=st.integers(1, 3), c=st.sampled_from([0, F(1, 2), 1, 3])
)

# a leaves at 5 as c arrives; c departs after b, so it queues behind b
# (HANDOVER) or before b, so it takes the front (FRONT_AT_HANDOVER)
FRONT_AT_HANDOVER = [
    AgentSpec("a", 0, 5), AgentSpec("b", 2, 9), AgentSpec("c", 5, 7)
]
# the convoy empties at 3 and re-forms at once
REFORM = [AgentSpec("a", 0, 3), AgentSpec("b", 3, 6)]
# B's claim of 2 runs out at 4, the instant C arrives
ROTATION_AT_ARRIVAL = [
    AgentSpec("A", 0, 10), AgentSpec("B", 2, 6), AgentSpec("C", 4, 5)
]


def rotators(outcome):
    switches = outcome.schedule.switches
    return [s.outgoing for s in switches if s.kind is SwitchKind.ROTATION]


# ------------------------------------------------- one loop against three


@settings(max_examples=100, **SETTINGS)
@given(streams(), params_st)
@example(HANDOVER, GameParams(c=1))
@example(FRONT_AT_HANDOVER, GameParams(c=1))
@example(HOLE, GameParams(c=1))
@example(REFORM, GameParams())
@example(ROTATION_AT_ARRIVAL, GameParams(c=1))
@example(SINGLE, GameParams(c=1))
@example(LARGE_DENOMINATORS, GameParams(u=2, c=1))
def test_event_loop_matches_the_per_mechanism_loops(stream, params):
    sweep = stream_shares(stream)
    for kind in MechanismKind:
        new = run_mechanism(kind, sweep, params)
        old = oracle.run_mechanism(kind, sweep, params)
        assert new.schedule.periods == old.schedule.periods, kind
        assert new.schedule.switches == old.schedule.switches, kind
        assert new.ledger == old.ledger, kind
        assert new.rotation_costs == old.rotation_costs, kind
        assert new.lead_shares == old.lead_shares, kind
        assert oracle.faces(new) == old, kind


def test_fixed_examples_are_the_cases_they_name():
    for stream, newcomer_in_front in ((HANDOVER, False), (FRONT_AT_HANDOVER, True)):
        a, b, c = stream
        assert a.t_leave == c.t_arrive and b.available_at(c.t_arrive)
        assert (c.t_leave < b.t_leave) is newcomer_in_front
    first, second = stream_shares(REFORM).segments
    assert first.end == second.start and not first.members & second.members
    sweep = stream_shares(ROTATION_AT_ARRIVAL)
    _, b, c = ROTATION_AT_ARRIVAL
    assert b.t_arrive + sweep.ex_ante["B"] == c.t_arrive
    # the leader departs as a newcomer takes the front: pt switches once,
    # sg chains a departure and a front join
    chains = {"pt": ["leader_leave"], "sg": ["leader_leave", "front_join"]}
    for kind, chain in chains.items():
        switches = run_mechanism(kind, FRONT_AT_HANDOVER).schedule.switches
        assert [s.kind.value for s in switches if s.time == 5] == chain


# ------------------------------------------------------ properties at large n


def long_stream(n: int, seed: int) -> list[AgentSpec]:
    """`n` agents on a 1/84 grid, with holes in availability and departures
    that land on a later agent's arrival."""
    rng = random.Random(seed)
    arrivals, t = [], F(0)
    for _ in range(n):
        t += F(rng.randint(1, 24), rng.choice((12, 7)))
        if rng.random() < 0.01:
            t += 60  # longer than any window: a hole
        arrivals.append(t)
    agents = []
    for k, arrive in enumerate(arrivals):
        later = arrivals[k + 1:k + 30]
        if later and rng.random() < 0.2:
            leave = rng.choice(later)
        else:
            leave = arrive + F(rng.randint(1, 480), 12)
        agents.append(AgentSpec(f"v{k}", arrive, leave))
    return agents


@settings(max_examples=8, **SETTINGS)
@given(
    st.builds(long_stream, st.integers(1, 500), st.integers(0, 2**32 - 1)),
    params_st,
)
@example(long_stream(500, 0), GameParams(c=1))
def test_mechanism_properties_at_large_n(stream, params):
    sweep = stream_shares(stream)
    for kind in MechanismKind:
        out = run_mechanism(kind, sweep, params)
        assert validate_schedule(out.schedule, stream) == [], kind
        led = out.lead_shares
        if kind in (MechanismKind.SINGLE_GAME, MechanismKind.SINGLE_GAME_DYNAMIC):
            assert len(rotators(out)) == len(set(rotators(out))), "rotated twice"
            assert all(led[a.id] <= sweep.ex_ante[a.id] for a in stream)
        else:
            assert rotators(out) == [] and out.rotation_costs == {}
    pt = run_mechanism(MechanismKind.PAYMENT_TRANSFER, sweep, params)
    utilities = net_utilities(pt)
    for a in stream:
        assert utilities[a.id] == params.u * (a.window - sweep.ex_post[a.id])
