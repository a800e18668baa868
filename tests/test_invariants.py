"""The model's own properties, checked at the public API with no oracle.

Agents and their windows are unknown until they arrive, so nothing decided
before an arrival may depend on it (causality).  The rules read only the
order of instants, lengths and the ratio c/u, so a run commutes with
shifting time, scaling time (u scaled back), relabelling the agents and
scaling u and c together.  The core runs on one tick scale picked from the
whole stream's denominators and peak presence; each of these changes picks
another scale, so each property also checks that the scale leaves no trace.
"""

from __future__ import annotations

from fractions import Fraction as F

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socd import (
    AgentSpec,
    GameParams,
    MechanismKind,
    net_utilities,
    run_mechanism,
    stream_shares,
)
from conftest import random_stream
from test_shares import HANDOVER, HOLE, PRIME_STREAM, SINGLE

SETTINGS = dict(max_examples=60, deadline=None, derandomize=True, database=None)
KINDS = list(MechanismKind)

# agent i is present over [i, N + i): every arrival outlasts everyone
# present, so N agents overlap at the peak
STAIRCASE = [AgentSpec(f"s{i}", i, 6 + i) for i in range(6)]

params = st.builds(
    GameParams,
    u=st.sampled_from([1, 2, F(3, 7)]),
    c=st.sampled_from([0, F(1, 2), 3]),
)
# 2-8 agents on a grid of twelfths, with holes and shared instants; drawn
# from a seed, which is far cheaper to generate than `test_shares.streams`
small_streams = st.integers(0, 2**32 - 1).map(
    lambda seed: random_stream(np.random.default_rng(seed)))


def fixed_streams(*rest):
    """The streams that stress the tick scale as examples, each with
    costed params and `rest`, the test's further arguments."""
    def add(test):
        for stream in (HOLE, HANDOVER, SINGLE, STAIRCASE, PRIME_STREAM):
            test = example(stream, GameParams(u=F(3, 7), c=F(1, 2)), *rest)(test)
        return test
    return add


def outcomes(stream, game: GameParams) -> dict:
    sweep = stream_shares(stream)
    return {kind: run_mechanism(kind, sweep, game) for kind in KINDS}


def values(outcome) -> dict:
    """Every exact value an outcome shows, as plain comparable data."""
    schedule, ledger = outcome.schedule, outcome.ledger
    return {
        "periods": [(p.agent, p.start, p.stop) for p in schedule.periods],
        "switches": [(ev.time, ev.outgoing, ev.incoming, ev.kind, ev.n_r, ev.cost)
                     for ev in schedule.switches],
        "payments": None if ledger is None else [
            (p.segment.start, p.segment.end, p.segment.members, p.payee, p.payers,
             p.amount) for p in ledger.payments],
        "ledger_net": None if ledger is None else ledger.net,
        "reports": [(r.agent, r.assigned, r.ex_ante, r.ex_post) for r in outcome.reports],
        "rotation_costs": outcome.rotation_costs,
        "nets": net_utilities(outcome),
    }


def before(outcome, t: F) -> dict:
    """What `outcome` has decided before instant t: its periods cut at t,
    its switches and pt's payments before t, and the ex-ante shares of the
    agents that arrived before t."""
    arrived = {a.id for a in outcome.shares.stream if a.t_arrive < t}
    ledger = outcome.ledger
    return {
        "periods": [(p.agent, p.start, min(p.stop, t))
                    for p in outcome.schedule.periods if p.start < t],
        "switches": [ev for ev in outcome.schedule.switches if ev.time < t],
        "payments": None if ledger is None else [
            p for p in ledger.payments if p.segment.end < t],
        "ex_ante": {r.agent: r.ex_ante for r in outcome.reports if r.agent in arrived},
    }


def check_causality(stream, game: GameParams, instants) -> None:
    full = outcomes(stream, game)
    for t in instants:
        cut = outcomes([a for a in stream if a.t_arrive < t], game)
        for kind in KINDS:
            assert before(full[kind], t) == before(cut[kind], t), (kind, t)


@settings(**SETTINGS)
@given(small_streams, params)
@fixed_streams()
def test_nothing_before_an_arrival_depends_on_it(stream, game):
    arrivals = sorted(a.t_arrive for a in stream)[1:]
    if len(arrivals) > 10:  # PRIME_STREAM: every twentieth arrival
        arrivals = arrivals[::20]
    check_causality(stream, game, arrivals)


def moved(stream, at) -> list[AgentSpec]:
    return [AgentSpec(a.id, at(a.t_arrive), at(a.t_leave)) for a in stream]


@settings(**SETTINGS)
@given(small_streams, params, st.sampled_from([F(-7, 3), 5, F(1, 10**9 + 7)]))
@fixed_streams(F(17, 5))
@example(SINGLE, GameParams(), F(-1, 3))
def test_shifting_time_shifts_every_instant(stream, game, d):
    want, got = outcomes(stream, game), outcomes(moved(stream, lambda t: t + d), game)
    for kind in KINDS:
        w, g = values(want[kind]), values(got[kind])
        w["periods"] = [(a, s + d, e + d) for a, s, e in w["periods"]]
        w["switches"] = [(t + d, *rest) for t, *rest in w["switches"]]
        if w["payments"] is not None:
            w["payments"] = [(s + d, e + d, *rest) for s, e, *rest in w["payments"]]
        assert g == w, kind


@settings(**SETTINGS)
@given(small_streams, params, st.sampled_from([2, F(1, 3), F(7, 10**9 + 7)]))
@fixed_streams(F(5, 2))
def test_scaling_time_by_k_and_u_by_1_over_k_scales_only_the_times(stream, game, k):
    want = outcomes(stream, game)
    got = outcomes(moved(stream, lambda t: t * k), GameParams(u=game.u / k, c=game.c))
    for kind in KINDS:
        w, g = values(want[kind]), values(got[kind])
        w["periods"] = [(a, s * k, e * k) for a, s, e in w["periods"]]
        w["switches"] = [(t * k, *rest) for t, *rest in w["switches"]]
        if w["payments"] is not None:
            w["payments"] = [(s * k, e * k, *rest) for s, e, *rest in w["payments"]]
        # a share is a time, and its c/u allowance becomes k c/u
        w["reports"] = [(a, x * k, y * k, z * k) for a, x, y, z in w["reports"]]
        assert g == w, kind


@settings(**SETTINGS)
@given(small_streams, params)
@fixed_streams()
def test_relabelling_the_agents_renames_the_outputs(stream, game):
    label = {a.id: 1000 - k for k, a in enumerate(stream)}
    want = outcomes(stream, game)
    got = outcomes([AgentSpec(label[a.id], a.t_arrive, a.t_leave) for a in stream], game)
    for kind in KINDS:
        w, g = values(want[kind]), values(got[kind])
        w["periods"] = [(label[a], s, e) for a, s, e in w["periods"]]
        w["switches"] = [(t, label[o], label[i], *rest) for t, o, i, *rest in w["switches"]]
        if w["payments"] is not None:
            w["payments"] = [(s, e, frozenset(map(label.get, members)), label[payee],
                              tuple(map(label.get, payers)), amount)
                             for s, e, members, payee, payers, amount in w["payments"]]
            w["ledger_net"] = {label[a]: v for a, v in w["ledger_net"].items()}
        w["reports"] = [(label[a], *rest) for a, *rest in w["reports"]]
        for name in ("rotation_costs", "nets"):
            w[name] = {label[a]: v for a, v in w[name].items()}
        assert g == w, kind


@settings(**SETTINGS)
@given(small_streams, params, st.sampled_from([2, F(1, 3), F(5, 7)]))
@fixed_streams(F(9, 4))
def test_scaling_u_and_c_together_scales_every_utility(stream, game, m):
    want = outcomes(stream, game)
    got = outcomes(stream, GameParams(u=game.u * m, c=game.c * m))
    for kind in KINDS:
        w, g = values(want[kind]), values(got[kind])
        w["switches"] = [(*rest, cost * m) for *rest, cost in w["switches"]]
        if w["payments"] is not None:
            w["payments"] = [(*rest, amount * m) for *rest, amount in w["payments"]]
            w["ledger_net"] = {a: v * m for a, v in w["ledger_net"].items()}
        for name in ("rotation_costs", "nets"):
            w[name] = {a: v * m for a, v in w[name].items()}
        assert g == w, kind
