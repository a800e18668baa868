"""Inequality and satisfaction metrics, checked against brute force."""

from __future__ import annotations

import copy
import dataclasses
import pickle
from fractions import Fraction as F

import numpy as np
import pytest

from socd import (
    UNSATISFIED_THRESHOLD,
    AllZeroSample,
    ConvergenceCurve,
    EmptySample,
    ParticipationRecord,
    ZeroEpps,
    ex_post_share,
    gini,
    run_mechanism,
    unsatisfied_fraction,
)
from socd.metrics import _check_record
from conftest import S1

NAN, INF = float("nan"), float("inf")


def gini_brute_force(values) -> float:
    """O(n^2) mean absolute difference definition."""
    arr = np.asarray(values, dtype=float)
    diffs = np.abs(arr[:, None] - arr[None, :]).sum()
    return float(diffs / (2 * arr.size**2 * arr.mean()))


# ------------------------------------------------------------------- records


def test_participation_record_computes_ratio():
    rec = ParticipationRecord(agent=1, convoy=0, actual_lead=3.0, epps=4.0)
    assert rec.ratio == 0.75
    explicit = ParticipationRecord(agent=1, convoy=0, actual_lead=3.0, epps=4.0,
                                   ratio=0.7)
    assert explicit.ratio == 0.7


def test_participation_record_validation():
    with pytest.raises(ZeroEpps):
        ParticipationRecord(agent=1, convoy=0, actual_lead=3.0, epps=0.0)
    with pytest.raises(ValueError):
        ParticipationRecord(agent=1, convoy=0, actual_lead=-1.0, epps=4.0)


def test_participation_record_refuses_a_nan_lead_and_accepts_an_infinite_epps():
    with pytest.raises(ValueError, match="actual lead must be non-negative"):
        ParticipationRecord(agent=1, convoy=0, actual_lead=NAN, epps=4.0)
    with pytest.raises(ZeroEpps):
        ParticipationRecord(agent=1, convoy=0, actual_lead=1.0, epps=NAN)
    rec = ParticipationRecord(agent=1, convoy=0, actual_lead=1.0, epps=INF)
    assert rec.ratio == 0.0
    assert ParticipationRecord(agent=1, convoy=0, actual_lead=INF, epps=1.0).ratio == INF


@pytest.mark.parametrize("lead, epps", [(3.0, 0.0), (3.0, -1.0), (3.0, NAN), (-1.0, 4.0),
                                        (NAN, 4.0), (-1.0, 0.0), (-INF, INF)])
def test_a_bad_row_raises_as_the_record_does(lead, epps):
    # experiments check each row with the record's own check, so a row and a
    # record with the same values raise the same exception and message
    with pytest.raises(ValueError) as record:
        ParticipationRecord(agent="a1", convoy=7, actual_lead=lead, epps=epps)
    with pytest.raises(ValueError) as row:
        _check_record("a1", 7, lead, epps)
    assert type(row.value) is type(record.value)
    assert str(row.value) == str(record.value)
    assert type(row.value) is (ZeroEpps if not epps > 0 else ValueError)
    if type(row.value) is ZeroEpps:
        assert str(row.value) == "record (7, a1) has epps <= 0"


def test_participation_record_is_slotted_and_frozen():
    rec = ParticipationRecord(agent="a1", convoy=2, actual_lead=3.0, epps=4.0,
                              mechanism="rg", rotations=1, net_utility=0.5)
    assert not hasattr(rec, "__dict__")
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert copy.deepcopy(rec) == rec
    moved = dataclasses.replace(rec, convoy=3)
    assert (moved.convoy, moved.ratio) == (3, 0.75)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.agent = "a2"


def test_convergence_curve_validation():
    curve = ConvergenceCurve(points=[(10.0, 0.5)], band=[(0.4, 0.6)])
    assert curve.points == ((10.0, 0.5),)
    with pytest.raises(ValueError):
        ConvergenceCurve(points=[(10.0, 0.5)], band=[])
    with pytest.raises(ValueError):
        ConvergenceCurve(points=[(10.0, 1.5)], band=[(1.5, 1.5)])


# ---------------------------------------------------------------------- gini


def test_gini_exact_fixtures():
    assert gini([1, 1, 1, 1]) == 0.0
    assert gini([0, 1]) == 0.5
    assert gini([1, 3]) == 0.25
    assert gini([7.3] * 10) == pytest.approx(0.0, abs=1e-15)
    # supremum for n values is (n-1)/n: one agent holds everything
    assert gini([0] * 99 + [1]) == 0.99


def test_gini_rejects_degenerate_input():
    with pytest.raises(EmptySample):
        gini([])
    with pytest.raises(AllZeroSample):
        gini([0.0, 0.0])
    with pytest.raises(ValueError):
        gini([1.0, -0.5])


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_gini_refuses_a_non_finite_value(bad):
    # numpy would give nan with only a RuntimeWarning
    for values in ([1.0, bad], [bad], [bad, 0.0, 2.0]):
        with pytest.raises(ValueError, match="gini requires finite values"):
            gini(values)


def test_gini_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        values = rng.uniform(0.0, 10.0, size=n)
        values[rng.random(n) < 0.1] = 0.0
        if values.sum() == 0.0:
            continue
        assert abs(gini(values) - gini_brute_force(values)) <= 1e-12


def test_gini_bounds_and_equality_condition():
    rng = np.random.default_rng(12)
    for _ in range(100):
        values = rng.uniform(0.1, 5.0, size=int(rng.integers(2, 40)))
        g = gini(values)
        assert 0.0 <= g < 1.0
        if len(set(values.tolist())) > 1:
            assert g > 0.0


def test_gini_scale_invariance():
    rng = np.random.default_rng(13)
    values = rng.uniform(0.0, 10.0, size=50)
    base = gini(values)
    # powers of two rescale every float exactly
    assert gini(values * 2.0) == base
    assert gini(values * 0.5) == base
    assert abs(gini(values * 3.7) - base) <= 1e-12


# -------------------------------------------------------------------- ratios


def test_lead_ratio_of_reference_game(s1):
    # shares (4, 4, 12) against realized proportional (20/3, 17/3, 23/3)
    out = run_mechanism("rg", s1)
    ratios = []
    for a in s1:
        rec = ParticipationRecord(
            agent=a.id,
            convoy=0,
            actual_lead=float(out.lead_shares[a.id]),
            epps=float(ex_post_share(a, s1)),
        )
        ratios.append(rec.ratio)
    assert ratios == pytest.approx([0.6, 12 / 17, 36 / 23])


def test_unsatisfied_fraction_is_strict():
    assert unsatisfied_fraction([1, 1, 1]) == 0.0
    assert unsatisfied_fraction([1.2, 1.0, 0.9, 1.05]) == 0.25
    assert unsatisfied_fraction([1.10, 1.10, 1.10]) == 0.0  # not strictly above
    assert UNSATISFIED_THRESHOLD == 1.10
    with pytest.raises(EmptySample):
        unsatisfied_fraction([])


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_unsatisfied_fraction_refuses_a_ratio_that_is_not_finite(bad):
    # a NaN compares false with the threshold, so it was counted as satisfied
    with pytest.raises(ValueError, match="finite"):
        unsatisfied_fraction([bad, 2.0])

