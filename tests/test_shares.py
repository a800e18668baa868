"""The one-sweep shares against the per-agent rescan oracle, exactly.

The sweep runs on integer ticks and builds Fractions only for its outputs:
every segment bound and share must still equal the rescans' exact value,
as a `Fraction`.  `PRIME_STREAM` has 100 agents whose times carry 200
distinct large-prime denominators, so its tick scale runs to about 1,900
digits.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import share_oracle as oracle
from socd import (
    AgentSpec,
    GameParams,
    eas_segments,
    eps_segments,
    ex_ante_share,
    ex_post_share,
    stream_segments,
    stream_shares,
)

# Small grids make coinciding instants likely; the large primes give shares
# with denominators far beyond machine integers.
DENOMINATORS = (1, 2, 3, 12, 10**9 + 7, 2**61 - 1)

# Built once, not on every draw of `streams`: building a strategy costs more
# than drawing from it.
_DENOMINATOR = st.sampled_from(DENOMINATORS)
_ARRIVAL = {d: st.integers(0, 40 * d) for d in DENOMINATORS}  # numerators
_STAY = {d: st.integers(1, 10 * d) for d in DENOMINATORS}
_BOOLEAN = st.booleans()


@st.composite
def streams(draw, min_agents: int = 1, max_agents: int = 24) -> list[AgentSpec]:
    """Random streams with holes in availability and departures that land on
    another agent's arrival."""
    n = draw(st.integers(min_agents, max_agents))
    arrivals: list[F] = []
    while len(arrivals) < n:
        d = draw(_DENOMINATOR)
        t = F(draw(_ARRIVAL[d]), d)
        if t not in arrivals:
            arrivals.append(t)
    agents = []
    for k, arrive in enumerate(arrivals):
        later = sorted(t for t in arrivals if t > arrive)
        if later and draw(_BOOLEAN):
            leave = draw(st.sampled_from(later))
        else:
            d = draw(_DENOMINATOR)
            leave = arrive + F(draw(_STAY[d]), d)
        agents.append(AgentSpec(f"v{k}", arrive, leave))
    return agents


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


def assert_sweep_matches_oracle(stream: list[AgentSpec]) -> None:
    shares = stream_shares(stream)
    assert list(shares.segments) == oracle.stream_segments(stream)
    assert shares.stream == tuple(sorted(stream, key=lambda a: a.t_arrive))
    assert set(shares.ex_ante) == set(shares.ex_post) == {a.id for a in stream}
    # ex-post sums in departure order, ties in arrival order
    by_leave = sorted(shares.stream, key=lambda a: a.t_leave)
    assert list(shares.ex_post) == [a.id for a in by_leave]
    assert all(type(v) is F
               for v in [*shares.ex_ante.values(), *shares.ex_post.values()])
    assert all(type(t) is F for seg in shares.segments for t in (seg.start, seg.end))
    for a in stream:
        present = oracle.present_at_arrival(a, stream)
        assert shares.ex_ante[a.id] == oracle.segment_sum(
            oracle.eas_segments(a, present)
        )
        assert shares.ex_post[a.id] == oracle.segment_sum(
            oracle.eps_segments(a, stream)
        )


HOLE = [AgentSpec("a", 0, 4), AgentSpec("b", 6, 9), AgentSpec("c", 7, 12)]
HANDOVER = [AgentSpec("a", 0, 5), AgentSpec("b", 2, 7), AgentSpec("c", 5, 9)]
SINGLE = [AgentSpec("a", F(1, 3), F(22, 7))]
BIG = 2**61 - 1
LARGE_DENOMINATORS = [
    AgentSpec("a", F(1, BIG), F(5, 3)),
    AgentSpec("b", F(2, 10**9 + 7), F(BIG - 2, BIG)),
    AgentSpec("c", F(1, 2), F(10**18 + 1, 10**17)),
]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(streams())
@example(HOLE)
@example(HANDOVER)
@example(SINGLE)
@example(LARGE_DENOMINATORS)
@example(PRIME_STREAM)
def test_sweep_matches_per_agent_rescans(stream):
    assert_sweep_matches_oracle(stream)


@settings(
    max_examples=3,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.large_base_example,
        HealthCheck.data_too_large,
    ],
)
@given(streams(min_agents=150, max_agents=200))
def test_sweep_matches_per_agent_rescans_at_large_n(stream):
    assert_sweep_matches_oracle(stream)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(streams(), st.builds(
    GameParams,
    u=st.sampled_from([1, F(1, 2), F(3, 7)]),
    c=st.integers(0, 3) | st.just(F(5, 7)),
))
@example(HOLE, GameParams(c=1))
@example(HANDOVER, GameParams(c=2))
@example(LARGE_DENOMINATORS, GameParams(u=F(3, 7), c=F(5, 7)))
def test_public_readers_match_per_agent_rescans(stream, params):
    allowance = params.c / params.u
    assert stream_segments(stream) == oracle.stream_segments(stream)
    for a in stream:
        present = oracle.present_at_arrival(a, stream)
        eas = oracle.eas_segments(a, present)
        eps = oracle.eps_segments(a, stream)
        assert eas_segments(a, present) == eas
        assert eps_segments(a, stream) == eps
        assert ex_ante_share(a, present, params) == oracle.segment_sum(eas) + allowance
        assert ex_post_share(a, stream, params) == oracle.segment_sum(eps) + allowance


def test_fixed_examples_cover_the_adversarial_cases():
    """The named examples really are the cases they are named after."""
    assert stream_shares(HOLE).segments[0].end < stream_shares(HOLE).segments[1].start
    assert any(a.t_leave == b.t_arrive for a in HANDOVER for b in HANDOVER)
    assert len(SINGLE) == 1
    assert stream_shares(SINGLE).ex_post == {"a": F(22, 7) - F(1, 3)}
    assert max(
        v.denominator for v in stream_shares(LARGE_DENOMINATORS).ex_post.values()
    ) > 2**64
