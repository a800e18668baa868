"""The highway reads its records off the mechanisms' tick core.

`highway_experiment` builds no `MechanismOutcome`; these tests check that
its records and Gini cells equal those of the loop that did
(`highway_oracle.py`), and that it builds none of an outcome's parts and
no segment.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import highway_oracle as oracle
import socd.mechanisms
import socd.model
from socd import (
    HighwayParams,
    MechanismKind,
    Segment,
    highway_experiment,
    run_mechanism,
)
from socd.simulation import sample_stream

ALL_KINDS = [k.value for k in MechanismKind]

# Switch costs: none, an integer and a non-integer Fraction.  The small
# road makes same-station entries, and so sub-station arrivals, common.
SIZES = [(100, 10), (12, 8)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("switch_cost", [0, 2, Fraction(5, 3)], ids=["0", "2", "5/3"])
@pytest.mark.parametrize("configuration", ["uniform", "bimodal"])
@pytest.mark.parametrize("n_stations, agents", SIZES, ids=["road100", "road12"])
def test_records_equal_the_outcome_loop(seed, switch_cost, configuration,
                                        n_stations, agents):
    params = HighwayParams(n_stations=n_stations, n_convoys=3, agents_per_convoy=agents,
                           configuration=configuration, switch_cost=switch_cost,
                           seed=seed)
    fast = highway_experiment(params, ALL_KINDS)
    slow = oracle.highway_experiment(params, ALL_KINDS)
    assert fast.records == slow.records
    assert fast.gini_cells == slow.gini_cells


def test_some_highway_agents_rotate_and_pay():
    # the differential cases above must exercise rotation charges and pt's
    # ledger, or a wrong tick net would go unseen
    params = HighwayParams(n_stations=12, n_convoys=3, agents_per_convoy=8,
                           switch_cost=Fraction(5, 3), seed=0)
    records = highway_experiment(params, ALL_KINDS).records
    assert any(r.rotations for r in records if r.mechanism == "sg")
    assert any(r.net_utility != r.epps - r.actual_lead
               for r in records if r.mechanism == "pt")


def _counting(built: Counter, name: str, cls):
    def make(*args, **kwargs):
        built[name] += 1
        return cls(*args, **kwargs)

    return make


def _count_constructions(monkeypatch) -> Counter:
    """Count what `socd.mechanisms` builds, by the names it looks up."""
    built: Counter = Counter()
    for name in ("ActivePeriod", "SwitchEvent", "Schedule", "Transfer", "Ledger",
                 "MechanismOutcome", "Fraction"):
        cls = getattr(socd.mechanisms, name)
        monkeypatch.setattr(socd.mechanisms, name, _counting(built, name, cls))
    return built


def test_highway_builds_no_outcome(monkeypatch):
    built = _count_constructions(monkeypatch)
    params = HighwayParams(n_stations=12, n_convoys=2, agents_per_convoy=8,
                           switch_cost=Fraction(5, 3), seed=3)
    assert len(highway_experiment(params, ALL_KINDS).records) == 2 * 8 * 4
    assert built == {}


def test_the_construction_count_sees_an_outcome(monkeypatch):
    # the guard above counts what a full outcome builds
    stream = sample_stream("uniform", np.random.default_rng(3), 8, 12)
    built = _count_constructions(monkeypatch)
    run_mechanism("pt", stream).ledger.transfers  # built on first read
    assert {"ActivePeriod", "Schedule", "Transfer", "Ledger", "MechanismOutcome",
            "Fraction"} <= set(built)


def test_highway_builds_no_segment(monkeypatch):
    built: Counter = Counter()
    monkeypatch.setattr(socd.model, "Segment", _counting(built, "Segment", Segment))
    params = HighwayParams(n_stations=12, n_convoys=2, agents_per_convoy=8, seed=3)
    highway_experiment(params, ALL_KINDS)
    assert built == {}
    # the count sees the segments that a pt outcome's ledger reads
    run_mechanism("pt", sample_stream("uniform", np.random.default_rng(3), 8, 12))
    assert built["Segment"] > 0


def test_repeated_and_reordered_kinds_equal_the_outcome_loop():
    params = HighwayParams(n_stations=12, n_convoys=2, agents_per_convoy=6,
                           switch_cost=1, seed=9)
    kinds = ["sg", "rg", "sg"]
    assert highway_experiment(params, kinds) == oracle.highway_experiment(params, kinds)
