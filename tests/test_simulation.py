"""Traffic experiments: sampling invariants, edge cases, reproducibility."""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ring_oracle
from highway_oracle import ENTRY_OFFSET

import socd
from socd import (
    ConvergenceCurve,
    HighwayParams,
    RingRoadParams,
    aggregate_curves,
    highway_experiment,
    ring_road_experiment,
    sample_stream,
    validate_stream,
)
from socd import simulation


# -------------------------------------------------------------------- params


def test_ring_params_validation():
    with pytest.raises(ValueError):
        RingRoadParams(join_probability=1.5)
    with pytest.raises(ValueError):
        RingRoadParams(n_vehicles=0)
    with pytest.raises(ValueError):
        RingRoadParams(curve_step=0.0)
    with pytest.raises(ValueError):
        RingRoadParams(target_mean_participations=-1.0)


@pytest.mark.parametrize("field", ["target_mean_participations", "curve_step"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan,
                                   pytest.param(10**400, id="10**400")])
def test_ring_params_must_be_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        RingRoadParams(**{field: value})


def test_highway_params_validation():
    with pytest.raises(ValueError):
        HighwayParams(configuration="trimodal")
    with pytest.raises(ValueError):
        HighwayParams(n_stations=1, agents_per_convoy=1)
    with pytest.raises(ValueError):
        HighwayParams(agents_per_convoy=0)
    with pytest.raises(ValueError):
        HighwayParams(n_stations=5, agents_per_convoy=5)


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
@pytest.mark.parametrize(
    "params, field",
    [
        (HighwayParams, "n_stations"),
        (HighwayParams, "n_convoys"),
        (HighwayParams, "agents_per_convoy"),
        (HighwayParams, "seed"),
        (RingRoadParams, "n_stations"),
        (RingRoadParams, "n_vehicles"),
        (RingRoadParams, "seed"),
    ],
)
def test_params_counts_and_seeds_must_be_integers(params, field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        params(**{field: value})


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "an int or a Fraction"),
        (0.5, "an int or a Fraction"),
        ("1", "an int or a Fraction"),
        (-1, "non-negative"),
        (F(-1, 2), "non-negative"),
        # these two printed no field: CPython refuses to print 5000 digits
        pytest.param(-10**5000, "non-negative, not a number of more than 4300 digits$",
                     id="-10**5000-non-negative"),
        pytest.param(F(-10**5000, 3), "non-negative, not a number of more than 4300 "
                     "digits$", id="-10**5000/3-non-negative"),
    ],
)
def test_highway_switch_cost_must_be_a_non_negative_rational(value, message):
    with pytest.raises(ValueError, match=f"^switch_cost must be {message}"):
        HighwayParams(switch_cost=value)


@pytest.mark.parametrize("value", [0, 2, F(1, 3), np.int64(1)])
def test_highway_switch_cost_accepts_rationals(value):
    assert HighwayParams(switch_cost=value).switch_cost == value


@pytest.mark.parametrize("value", [10**100, 10**400, F(10**101 + 1, 3)],
                         ids=["10**100", "10**400", "(10**101+1)/3"])
def test_highway_switch_cost_must_be_below_10_to_the_100(value):
    with pytest.raises(ValueError, match=r"^switch_cost must be below 10\*\*100$"):
        HighwayParams(n_convoys=2, switch_cost=value)


def test_highway_switch_cost_just_below_the_bound_runs():
    result = highway_experiment(HighwayParams(n_convoys=2, switch_cost=10**100 - 1))
    assert min(r.net_utility for r in result.records) == pytest.approx(-7e100)


@pytest.mark.parametrize("value", ["5", "0.5", True, None, F(1, 2) * 1j])
@pytest.mark.parametrize(
    "field", ["join_probability", "target_mean_participations", "curve_step"]
)
def test_ring_float_fields_must_be_real_numbers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a real number"):
        RingRoadParams(**{field: value})


def test_ring_float_fields_accept_ints_and_numpy_floats():
    params = RingRoadParams(join_probability=np.float64(0.25),
                            target_mean_participations=np.float32(4), curve_step=2)
    assert (params.join_probability, params.curve_step) == (0.25, 2)
    assert (params.target_mean_participations, params.curve_step) == (4, 2)


@pytest.mark.parametrize("params", [HighwayParams, RingRoadParams])
@pytest.mark.parametrize("seed", [-1, np.int64(-3), pytest.param(-10**5000, id="-10**5000")])
def test_params_reject_negative_seeds(params, seed):
    # -10**5000 printed no field: CPython refuses to print 5000 digits
    shown = seed if seed > -10**4300 else "a number of more than 4300 digits"
    with pytest.raises(ValueError, match=f"^seed must be non-negative, not {shown}$"):
        params(seed=seed)


def test_params_accept_numpy_integers():
    assert HighwayParams(n_convoys=np.int64(3), seed=np.int64(7)).n_convoys == 3
    assert RingRoadParams(n_vehicles=np.int32(4)).n_vehicles == 4


@pytest.mark.parametrize("value", [0, 10**30, F(1, 3)])
def test_highway_switch_cost_keeps_an_int_or_fraction_as_given(value):
    # the JSON params write an int as a number and a Fraction as a string
    assert HighwayParams(switch_cost=value).switch_cost is value


@pytest.mark.parametrize("np_int", [np.int64, np.int32])
def test_a_numpy_switch_cost_runs_like_a_python_int(np_int):
    # 60 agents over 1000 stations: the tick scale is far beyond a C long
    size = dict(n_stations=1000, n_convoys=2, agents_per_convoy=60)
    params = HighwayParams(switch_cost=np_int(3), **size)
    assert type(params.switch_cost) is int
    assert highway_experiment(params) == highway_experiment(
        HighwayParams(switch_cost=3, **size))


# ------------------------------------------------------------------ sampling


def test_uniform_sampling_invariants():
    rng = np.random.default_rng(3)
    for _ in range(60):
        stream = sample_stream("uniform", rng, n_agents=10, n_stations=100)
        assert sorted(a.id for a in stream) == list(range(10))
        for a in stream:
            station = math.floor(a.t_arrive)
            assert 1 <= station <= 99
            assert a.t_leave == int(a.t_leave)  # exits sit exactly on stations
            assert station < a.t_leave <= 100
            # sub-station offsets never spill into the next station
            assert a.t_arrive - station < 1
        validate_stream(stream)  # distinct arrivals, non-empty windows


def test_same_station_entries_get_distinct_offsets():
    # 6 agents over 3 stations force shared entry stations
    rng = np.random.default_rng(7)
    stream = sample_stream("uniform", rng, n_agents=6, n_stations=3)
    validate_stream(stream)
    arrivals = [a.t_arrive for a in stream]
    assert len(set(arrivals)) == 6
    offsets = [a.t_arrive - math.floor(a.t_arrive) for a in stream]
    assert any(o > 0 for o in offsets)
    assert all(o % ENTRY_OFFSET == 0 for o in offsets)


def test_bimodal_sampling_routes_most_agents_hub_to_hub():
    rng = np.random.default_rng(9)
    stream = sample_stream("bimodal", rng, n_agents=400, n_stations=100)
    hub_trips = sum(
        1 for a in stream if a.t_arrive < 11 and a.t_leave >= 91
    )
    # 80% direct hub share plus uniform draws that land (or re-roll) there
    assert 0.8 <= hub_trips / 400 <= 0.96
    assert hub_trips < 400
    for a in stream:
        assert a.t_arrive < a.t_leave


class _OneStation:
    """A generator stub that sends every agent from station 1 to station 2."""

    def __init__(self):
        self._draws = itertools.cycle([1, 2])  # entry, then exit

    def integers(self, low, high):
        return next(self._draws)

    def permutation(self, n):
        return np.arange(n)


def test_a_station_takes_at_most_1000_joiners():
    # one station is 1000 ticks: the 1001st joiner would arrive on the tick
    # of station 2, which is every agent's exit
    stream = sample_stream("uniform", _OneStation(), n_agents=1000, n_stations=2)
    assert stream[-1].t_arrive == 1 + 999 * ENTRY_OFFSET < stream[-1].t_leave == 2
    with pytest.raises(ValueError, match="1001 agents enter at station 1"):
        sample_stream("uniform", _OneStation(), n_agents=1001, n_stations=2)
    with pytest.raises(ValueError, match="1001 agents enter at station 1"):
        simulation._sample_ticks("uniform", _OneStation(), 1001, 2)


def test_sample_stream_refuses_an_unknown_configuration():
    # "bimodl" drew uniform streams
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="^configuration must be 'uniform' or 'bimodal'$"):
        sample_stream("bimodl", rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("sizes, message", [
    ({"n_stations": 1}, "^need at least two stations$"),
    ({"n_agents": 0}, "^n_agents must be positive$"),
    ({"n_agents": -1}, "^n_agents must be positive$"),
    ({"n_agents": 2.5}, "^n_agents must be an integer, not 2.5$"),
    ({"n_stations": 2.5}, "^n_stations must be an integer, not 2.5$"),
    ({"n_agents": 10**6 + 1}, "^n_agents must be at most 1000000$"),
    ({"n_agents": 10**5000}, "^n_agents must be at most 1000000$"),
    ({"n_stations": 10**6 + 1}, "^n_stations must be at most 1000000$"),
])
def test_sample_stream_refuses_bad_sizes_before_drawing(sizes, message):
    # n_stations=1 redrew 1000 times, then raised a RuntimeError; n_agents
    # 0 or -1 gave [], 2.5 a TypeError in `range`; n_stations=2.5 drew;
    # 10**6+1 agents drew them all before the station capacity refused
    # them, 10**5000 drew until memory ran out
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        sample_stream("uniform", rng, **sizes)
    assert rng.bit_generator.state == state


def test_sampling_is_reproducible():
    first = sample_stream("uniform", np.random.default_rng(42), 8, 50)
    second = sample_stream("uniform", np.random.default_rng(42), 8, 50)
    assert first == second


# ------------------------------------------------------------------- highway


def test_highway_single_rider_gets_exact_share():
    params = HighwayParams(n_stations=2, n_convoys=1, agents_per_convoy=1)
    result = highway_experiment(params)
    assert [r.ratio for r in result.records] == [1.0] * 3
    assert [r.net_utility for r in result.records] == [0.0] * 3
    assert result.gini_cells == {}  # one record per cell is not a sample
    assert result.curve is None


def test_highway_experiment_is_reproducible():
    params = HighwayParams(n_convoys=4, agents_per_convoy=5, seed=5)
    a = highway_experiment(params)
    b = highway_experiment(params)
    assert a.records == b.records
    assert a.gini_cells == b.gini_cells


def test_highway_sampling_is_mechanism_insensitive():
    # each convoy draws from its own spawned child generator, so adding
    # mechanisms must not disturb the streams another mechanism sees
    params = HighwayParams(n_convoys=3, agents_per_convoy=4, seed=11)
    alone = highway_experiment(params, mechanisms=["rg"])
    full = highway_experiment(params, mechanisms=["rg", "sg", "sg-da"])
    rg_only = tuple(r for r in full.records if r.mechanism == "rg")
    assert alone.records == rg_only


def test_highway_record_shape():
    params = HighwayParams(n_convoys=2, agents_per_convoy=3, seed=1)
    result = highway_experiment(params, mechanisms=["sg"])
    assert len(result.records) == 6
    assert {r.convoy for r in result.records} == {0, 1}
    assert all(r.mechanism == "sg" for r in result.records)
    assert all(r.rotations in (0, 1) for r in result.records)
    assert set(result.gini_cells) == {"sg"}


# ----------------------------------------------------------------- ring road


def test_ring_road_without_joins_is_empty():
    params = RingRoadParams(n_vehicles=3, join_probability=0.0,
                            target_mean_participations=5.0)
    result = ring_road_experiment(params)
    assert result.records == ()
    assert result.curve.points == ()
    assert result.gini_cells == {}


def test_ring_road_solo_vehicle_always_leads_its_own_share():
    params = RingRoadParams(
        n_stations=10,
        n_vehicles=1,
        join_probability=1.0,
        target_mean_participations=20.0,
        curve_step=5.0,
        seed=2,
    )
    result = ring_road_experiment(params)
    assert len(result.records) >= 20
    for rec in result.records:
        assert rec.ratio == 1.0
        assert rec.net_utility == 0.0  # led every section it rode
    assert [x for x, _ in result.curve.points] == [5.0, 10.0, 15.0, 20.0]
    assert all(y == 0.0 for _, y in result.curve.points)


def test_ring_road_is_reproducible():
    params = RingRoadParams(n_vehicles=10, target_mean_participations=10.0,
                            curve_step=2.0, seed=4)
    a = ring_road_experiment(params)
    b = ring_road_experiment(params)
    assert a.records == b.records
    assert a.curve == b.curve


def test_ring_road_accounting_invariants():
    params = RingRoadParams(n_vehicles=10, target_mean_participations=10.0,
                            seed=6, curve_step=2.0)
    result = ring_road_experiment(params)
    assert len(result.records) >= 100
    for rec in result.records:
        assert rec.mechanism == "rg"
        assert rec.actual_lead == int(rec.actual_lead)  # whole sections
        assert rec.epps > 0
        assert rec.net_utility >= 0  # lead never exceeds sections aboard
    assert result.curve.band == tuple((y, y) for _, y in result.curve.points)


# Small rings: with n stations one trip in n takes a full lap back to its
# own station, and few stations with many vehicles make several joiners at
# one visit common.
RING_PARAMS = st.builds(
    RingRoadParams,
    n_stations=st.integers(1, 13),
    n_vehicles=st.integers(1, 40),
    join_probability=st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)),
    target_mean_participations=st.sampled_from((0.5, 2.0, 6.0)),
    curve_step=st.sampled_from((0.05, 0.25, 1.0, 3.0)),
    seed=st.integers(0, 2**32 - 1),
)


def exact(records, curve):
    """Records and curve with every float as its repr (so -0.0 != 0.0)."""

    def cells(row):
        return tuple(repr(v) if isinstance(v, float) else v for v in row)

    return (
        [cells(dataclasses.astuple(r)) for r in records],
        [cells(pt) for pt in curve.points],
        [cells(b) for b in curve.band],
    )


def ring_exact(params):
    """`exact` of the ring road's records, built from its rows, and curve."""
    result = ring_road_experiment(params)
    return exact(result.records, result.curve)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(RING_PARAMS)
# one station: every trip is a full lap, leaving at the visit after joining
@example(RingRoadParams(n_stations=1, n_vehicles=3,
                        join_probability=0.5, target_mean_participations=6.0,
                        curve_step=1.0))
# everyone joins at once: same-visit joiners go through the permutation
@example(RingRoadParams(n_stations=3, n_vehicles=40,
                        join_probability=1.0, target_mean_participations=6.0,
                        curve_step=0.05))
# two vehicles leaving together cross four checkpoints in one batch
@example(RingRoadParams(n_stations=2, n_vehicles=2,
                        join_probability=1.0, target_mean_participations=6.0,
                        curve_step=0.25, seed=3))
# 910 records: whole stations exit from the middle of the convoy, and the
# leader exits while others ride on
@example(RingRoadParams(n_stations=7, n_vehicles=300,
                        join_probability=1.0, target_mean_participations=3.0,
                        curve_step=1.0))
def test_ring_road_matches_per_section_oracle(params):
    assert ring_exact(params) == exact(*ring_oracle.ring_road_experiment(params))


# Blocks of a few doubles put hits on block edges, refills between a visit's
# candidates and its trip draws, and permutations right after a refill.
@pytest.mark.parametrize("block", [1, 2, 3, 7])
@settings(max_examples=75, deadline=None, derandomize=True, database=None)
@given(RING_PARAMS)
@example(RingRoadParams(n_stations=1, n_vehicles=3,
                        join_probability=0.5, target_mean_participations=6.0,
                        curve_step=1.0))
@example(RingRoadParams(n_stations=3, n_vehicles=40,
                        join_probability=1.0, target_mean_participations=6.0,
                        curve_step=0.05))
@example(RingRoadParams(n_stations=2, n_vehicles=2,
                        join_probability=1.0, target_mean_participations=6.0,
                        curve_step=0.25, seed=3))
def test_ring_road_buffer_edges_match_oracle(block, params):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "_BLOCK", block)
        got = ring_exact(params)
    assert got == exact(*ring_oracle.ring_road_experiment(params))


def test_ring_road_builds_its_records_once_on_first_read(record_counts):
    built, checked = record_counts
    params = RingRoadParams(n_stations=10, n_vehicles=6,
                            target_mean_participations=20.0, curve_step=5.0, seed=4)
    result = ring_road_experiment(params)
    assert built == []
    assert checked == [row[:4] for row in result.rows]  # each row where it is made
    records = result.records
    assert len(built) == len(result.rows) >= 120
    assert result.records is records
    assert len(built) == len(result.rows)  # the second read built none
    assert records == ring_oracle.ring_road_experiment(params)[0]


def test_ring_road_buffer_stays_bounded_without_permutations(monkeypatch):
    """One vehicle never joins with another, so no permutation draws a new
    block; running past the end of a block must, and every block must hold
    exactly max(_BLOCK, n) doubles."""
    block = 8
    monkeypatch.setattr(simulation, "_BLOCK", block)
    sizes = []
    draws = simulation._draws

    def spy(rng, p, n):
        out = draws(rng, p, n)
        sizes.append((len(out[1]), max(block, n)))
        return out

    monkeypatch.setattr(simulation, "_draws", spy)
    params = RingRoadParams(n_stations=5, n_vehicles=1,
                            join_probability=0.3, target_mean_participations=300.0,
                            curve_step=50.0)
    result = ring_road_experiment(params)
    assert len(result.records) == 300
    assert len(sizes) > 20  # far more doubles drawn than one block holds
    assert all(size == expected for size, expected in sizes)
    assert exact(result.records, result.curve) == exact(
        *ring_oracle.ring_road_experiment(params))


def test_a_large_convoy_finishes_in_time():
    # 10**5 vehicles at 10**5 stations all join, and riders exit at most
    # visits of a long convoy: an exit that walked the whole convoy made
    # this quadratic.  In a subprocess, so a regression fails on the
    # timeout instead of hanging the suite.
    code = (
        "from socd import RingRoadParams, ring_road_experiment\n"
        "params = RingRoadParams(n_stations=100_000, n_vehicles=100_000,"
        " join_probability=1.0, target_mean_participations=1.0, curve_step=1.0)\n"
        "print(len(ring_road_experiment(params).rows))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(socd.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "100000\n", "")


# -------------------------------------------------------------- aggregation


def test_aggregate_curves_means_and_band():
    a = ConvergenceCurve(points=[(10.0, 0.2), (20.0, 0.0)],
                         band=[(0.2, 0.2), (0.0, 0.0)])
    b = ConvergenceCurve(points=[(10.0, 0.4), (20.0, 0.0)],
                         band=[(0.4, 0.4), (0.0, 0.0)])
    merged = aggregate_curves([a, b])
    assert [x for x, _ in merged.points] == [10.0, 20.0]
    assert [y for _, y in merged.points] == pytest.approx([0.3, 0.0])
    low, high = merged.band[0]
    assert (low, high) == pytest.approx((0.2, 0.4))
    assert merged.band[1] == pytest.approx((0.0, 0.0))


def test_aggregate_curves_clips_band_to_unit_interval():
    a = ConvergenceCurve(points=[(10.0, 0.0)], band=[(0.0, 0.0)])
    b = ConvergenceCurve(points=[(10.0, 0.1)], band=[(0.1, 0.1)])
    merged = aggregate_curves([a, b])
    low, high = merged.band[0]
    assert low == 0.0  # mean - sd would be negative without the clip
    assert high == pytest.approx(0.1)


def test_aggregate_curves_rejects_bad_input():
    a = ConvergenceCurve(points=[(10.0, 0.2)], band=[(0.2, 0.2)])
    b = ConvergenceCurve(points=[(20.0, 0.2)], band=[(0.2, 0.2)])
    with pytest.raises(ValueError):
        aggregate_curves([])
    with pytest.raises(ValueError):
        aggregate_curves([a, b])
