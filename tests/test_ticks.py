"""The integer-tick core against the Fraction core it replaced, exactly.

`socd.model.stream_shares` and `socd.mechanisms` run on integer ticks and
build Fractions only for their outputs.  For all four mechanisms their
results equal those of the Fraction core kept in `fraction_oracle.py`: the
sweep (stream, segments, ex-ante and ex-post sums), the schedule and its
switches, the lead shares, the rotation charges, the pt ledger, the net
utilities and the efficiency.  Every output value is still a `Fraction`.
The sweep itself builds none: its segments and sums are built on first
read, once.

`PRIME_STREAM` has 100 agents whose times carry 200 distinct large-prime
denominators, so its tick scale runs to about 1,900 digits.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
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
from test_shares import HANDOVER, HOLE, LARGE_DENOMINATORS, SINGLE, streams

params_st = st.builds(
    GameParams,
    u=st.sampled_from([1, 2, F(1, 2), F(3, 7)]),
    c=st.sampled_from([0, F(1, 2), 1, 3, F(5, 7)]),
)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.4 * 10**14."""
    if n % 2 == 0:
        return n == 2
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_stream(n: int = 100, seed: int = 0) -> list[AgentSpec]:
    """`n` agents, each time off the integers by 1/p for its own prime p
    just above 10**9; windows of 1 to 12 time units, so up to a dozen
    agents overlap."""
    primes, p = [], 10**9
    while len(primes) < 2 * n:
        p += 1
        if _is_prime(p):
            primes.append(p)
    rng = random.Random(seed)
    agents = []
    for k in range(n):
        arrive = k + F(1, primes[2 * k])
        leave = arrive + rng.randint(1, 12) + F(1, primes[2 * k + 1])
        agents.append(AgentSpec(f"v{k}", arrive, leave))
    return agents


PRIME_STREAM = prime_stream()


def assert_same_sweep(new, old) -> None:
    assert new.stream == old.stream
    assert new.segments == old.segments
    assert new.ex_ante == old.ex_ante
    assert new.ex_post == old.ex_post
    assert list(new.ex_post) == list(old.ex_post)  # both in departure order


def assert_ticks_match_fractions(stream: list[AgentSpec], params: GameParams) -> None:
    new, old = stream_shares(stream), oracle.stream_shares(stream)
    assert_same_sweep(new, old)
    assert all(type(v) is F for v in [*new.ex_ante.values(), *new.ex_post.values()])
    for kind in MechanismKind:
        fast = run_mechanism(kind, new, params)
        slow = oracle.run_mechanism(kind, old, params)
        assert fast.schedule.periods == slow.schedule.periods, kind
        assert fast.schedule.switches == slow.schedule.switches, kind
        assert fast.lead_shares == slow.lead_shares, kind
        assert fast.rotation_costs == slow.rotation_costs, kind
        assert fast.ledger == slow.ledger, kind
        assert (fast.kind, fast.params) == (slow.kind, slow.params)
        assert_same_sweep(fast.shares, slow.shares)
        nets = net_utilities(fast)
        assert nets == oracle.net_utilities(slow, old, params), kind
        assert efficiency(fast.schedule, new, params) == efficiency(
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
