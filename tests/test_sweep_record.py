"""One segmentation pass per stream: what the sweep records, and who reads it.

`socd.model._sweep` records each realized segment's members and each
arrival's ex-ante cut as it walks.  These tests check both against their
definitions, the per-agent rescans in `share_oracle.py` put on the sweep's
ticks: the bounds and members of `stream_segments`, and each arrival's
`eas_segments` over the agents present.  Members are stream positions in
arrival order.  Each arrival's ex-ante sum is the sum of |seg|/n_seg over
its recorded cut.

A counting guard checks that a mechanism run walks each ex-ante cut once,
inside the sweep, and not at all when it is handed a sweep.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

import share_oracle as oracle
import socd.mechanisms
import socd.model
from socd import AgentSpec, MechanismKind, run_mechanism, stream_shares
from socd.model import _sweep
from socd.simulation import _STATION_TICKS, _sample_ticks
from test_highway_core import _counting
from test_shares import (
    HANDOVER,
    HOLE,
    LARGE_DENOMINATORS,
    PRIME_STREAM,
    SINGLE,
    prime_stream,
    streams,
)


def assert_recorded_like_the_oracle(stream, ticks) -> None:
    """`ticks` is the sweep of `stream`, whose agents are in arrival order."""
    position = {a.id: k for k, a in enumerate(stream)}

    def tick(t: F) -> int:
        assert (t * ticks.scale).denominator == 1
        return int(t * ticks.scale)

    segments = oracle.stream_segments(stream)
    assert ticks.bounds == [(tick(seg.start), tick(seg.end)) for seg in segments]
    assert [set(members) for members in ticks.members] == [
        {position[i] for i in seg.members} for seg in segments
    ]
    # sets cannot see order: each segment's members are in arrival order
    assert all(members == sorted(set(members)) for members in ticks.members)
    assert ticks.cuts == [
        [(tick(seg.start), tick(seg.end), len(seg.members))
         for seg in oracle.eas_segments(a, oracle.present_at_arrival(a, stream))]
        for a in stream
    ]
    assert len(ticks.cuts) == len(ticks.arrive)
    for arrive, leave, ante, cut in zip(ticks.arrive, ticks.leave, ticks.ex_ante,
                                        ticks.cuts):
        # the cut tiles the window, and its member count never grows
        assert [s for s, _, _ in cut] == [arrive, *(e for _, e, _ in cut[:-1])]
        assert cut[-1][1] == leave
        assert all(a[2] >= b[2] >= 1 for a, b in zip(cut, cut[1:]))
        assert ante == sum(F(e - s, n_seg) for s, e, n_seg in cut)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(streams())
@example(HANDOVER)  # a departure and an arrival at one instant
@example(HOLE)
@example(SINGLE)
@example(LARGE_DENOMINATORS)
@example(PRIME_STREAM)
def test_the_sweep_records_members_and_cuts_like_the_passes_it_replaces(stream):
    shares = stream_shares(stream)
    assert_recorded_like_the_oracle(shares.stream, shares._ticks)


@pytest.mark.parametrize("configuration", ["uniform", "bimodal"])
def test_the_highway_sweep_records_like_the_passes_it_replaces(configuration):
    for seed in range(50):
        rng = np.random.default_rng(seed)
        _, arrive, leave = _sample_ticks(configuration, rng, 1 + seed % 30, 40)
        stream = [AgentSpec(k, F(t, _STATION_TICKS), F(e, _STATION_TICKS))
                  for k, (t, e) in enumerate(zip(arrive, leave))]
        assert_recorded_like_the_oracle(stream, _sweep(arrive, leave, _STATION_TICKS))


def _count_ante_cuts(monkeypatch) -> Counter:
    """Count the ex-ante walks, by the name `socd.model` and, if it imports
    it, `socd.mechanisms` look up."""
    walked: Counter = Counter()
    counting = _counting(walked, "_ante_cut", socd.model._ante_cut)
    for module in (socd.model, socd.mechanisms):
        monkeypatch.setattr(module, "_ante_cut", counting, raising=False)
    return walked


@pytest.mark.parametrize("kind", list(MechanismKind))
def test_a_run_walks_each_ex_ante_cut_once(monkeypatch, kind):
    stream = prime_stream(30)
    walked = _count_ante_cuts(monkeypatch)
    run_mechanism(kind, stream)
    assert walked["_ante_cut"] == len(stream)

    sweep = stream_shares(stream)
    walked.clear()
    run_mechanism(kind, sweep)
    assert walked["_ante_cut"] == 0


def test_the_cut_count_sees_a_walk(monkeypatch):
    # the guard above counts the walks that `eas_segments` makes too
    walked = _count_ante_cuts(monkeypatch)
    a, b = AgentSpec("a", 0, 4), AgentSpec("b", 1, 3)
    socd.model.eas_segments(a, [a])
    socd.model.eas_segments(b, [a, b])
    assert walked["_ante_cut"] == 2
