"""One segmentation pass per stream: what the sweep records, and who reads it.

`socd.model._sweep` records each realized segment's members and each
arrival's ex-ante cut as it walks.  These tests check both against the
passes that used to derive them again (`sweep_oracle.py`): the bisect
rebuild of the members and the convoy loop's second walk of each cut.  Each
arrival's ex-ante sum is the sum of |seg|/n_seg over its recorded cut.

A counting guard checks that a mechanism run walks each ex-ante cut once,
inside the sweep, and not at all when it is handed a sweep.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

import socd.mechanisms
import socd.model
import sweep_oracle as oracle
from socd import AgentSpec, MechanismKind, run_mechanism, stream_shares
from socd.model import _sweep
from socd.simulation import _STATION_TICKS, _sample_ticks
from test_highway_core import _counting
from test_shares import HANDOVER, HOLE, LARGE_DENOMINATORS, SINGLE, streams
from test_ticks import PRIME_STREAM, prime_stream


def assert_recorded_like_the_oracle(ticks) -> None:
    assert ticks.members == oracle.members(ticks)
    assert ticks.cuts == oracle.recut(ticks)
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
    assert_recorded_like_the_oracle(stream_shares(stream)._ticks)


@pytest.mark.parametrize("configuration", ["uniform", "bimodal"])
def test_the_highway_sweep_records_like_the_passes_it_replaces(configuration):
    for seed in range(50):
        rng = np.random.default_rng(seed)
        _, arrive, leave = _sample_ticks(configuration, rng, 1 + seed % 30, 40)
        assert_recorded_like_the_oracle(_sweep(arrive, leave, _STATION_TICKS))


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
