"""The highway runs on integer ticks from the draw to the record.

`highway_experiment` draws ticks, sweeps them and reads its records off the
mechanisms' tick core.  These tests check that its records and Gini cells
equal those of the public path (`public_highway`: the Fraction draw in
`highway_oracle.py`, then `run_mechanism`, `net_utilities` and `float`),
that its draw and sweep equal that Fraction draw and `stream_shares`, and
that it builds no stream, none of an outcome's parts and no segment.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import highway_oracle as oracle
import socd.mechanisms
import socd.model
import socd.simulation
from socd import (
    GameParams,
    HighwayParams,
    MechanismKind,
    ParticipationRecord,
    Segment,
    gini,
    highway_experiment,
    net_utilities,
    run_mechanism,
    stream_shares,
)
from socd.model import _sweep
from socd.simulation import _sample_ticks, sample_stream

ALL_KINDS = [k.value for k in MechanismKind]

# Switch costs: none, an integer and a non-integer Fraction.  The small
# road makes same-station entries, and so sub-station arrivals, common.
SIZES = [(100, 10), (12, 8)]


def public_highway(params: HighwayParams, kinds):
    """The highway through the public path: each convoy drawn as `AgentSpec`s
    from its own child seed, run by `run_mechanism` with u = 1 and c the
    switch cost, and each exact value made a float.  Returns the
    `ParticipationRecord`s and the Gini cells."""
    game = GameParams(c=Fraction(params.switch_cost))
    children = np.random.SeedSequence(params.seed).spawn(params.n_convoys)
    records = []
    for convoy, child in enumerate(children):
        sweep = stream_shares(oracle.sample_stream(
            params.configuration, np.random.default_rng(child),
            params.agents_per_convoy, params.n_stations))
        for kind in kinds:
            outcome = run_mechanism(kind, sweep, game)
            nets = net_utilities(outcome)
            for a in sweep.stream:
                lead, epps = outcome.lead_shares[a.id], sweep.ex_post[a.id]
                records.append(ParticipationRecord(
                    agent=a.id, convoy=convoy, actual_lead=float(lead),
                    epps=float(epps), ratio=float(lead / epps), mechanism=kind,
                    rotations=int(a.id in outcome.rotation_costs),
                    net_utility=float(nets[a.id])))
    ratios = {kind: [r.ratio for r in records if r.mechanism == kind] for kind in kinds}
    cells = {kind: gini(values) for kind, values in ratios.items() if len(values) >= 2}
    return tuple(records), cells


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
    records, cells = public_highway(params, ALL_KINDS)
    assert fast.records == records
    assert fast.gini_cells == cells


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
    """Count what `socd.mechanisms` builds, by the names it looks up, and
    the `Segment`s that `socd.model` builds."""
    built: Counter = Counter()
    for name in ("ActivePeriod", "SwitchEvent", "Schedule", "ShareReport", "Payment",
                 "Ledger", "MechanismOutcome", "Fraction"):
        cls = getattr(socd.mechanisms, name)
        monkeypatch.setattr(socd.mechanisms, name, _counting(built, name, cls))
    monkeypatch.setattr(socd.model, "Segment", _counting(built, "Segment", Segment))
    return built


def _count_streams(monkeypatch, built: Counter) -> Counter:
    """Count the `AgentSpec`s and Fractions that `socd.model` and
    `socd.simulation` build, by the names they look up, and the streams
    that `socd.model` validates."""
    for module in (socd.model, socd.simulation):
        for name in ("AgentSpec", "Fraction"):
            cls = getattr(module, name)
            monkeypatch.setattr(module, name,
                                _counting(built, f"{module.__name__}.{name}", cls))
    validate = socd.model.validate_stream
    monkeypatch.setattr(socd.model, "validate_stream",
                        _counting(built, "validate_stream", validate))
    return built


def test_highway_builds_no_outcome(monkeypatch):
    params = HighwayParams(n_stations=12, n_convoys=2, agents_per_convoy=8,
                           switch_cost=Fraction(5, 3), seed=3)
    built = _count_streams(monkeypatch, _count_constructions(monkeypatch))
    assert len(highway_experiment(params, ALL_KINDS).records) == 2 * 8 * 4
    assert built == {}


def test_the_construction_count_sees_a_stream(monkeypatch):
    # the guard above counts what `sample_stream` and `stream_shares` build
    built = _count_streams(monkeypatch, Counter())
    stream_shares(sample_stream("uniform", np.random.default_rng(3), 8, 12))
    assert built["socd.simulation.AgentSpec"] == built["socd.simulation.Fraction"] == 8
    assert built["socd.model.Fraction"] > 0  # AgentSpec coerces the int exits
    assert built["validate_stream"] == 1


def test_the_construction_count_sees_an_outcome(monkeypatch):
    # the guard above counts what a full outcome builds
    stream = sample_stream("uniform", np.random.default_rng(3), 8, 12)
    built = _count_constructions(monkeypatch)
    outcome = run_mechanism("pt", stream)
    outcome.schedule, outcome.ledger, outcome.reports  # built on first read
    assert {"ActivePeriod", "SwitchEvent", "Schedule", "ShareReport", "Payment",
            "Ledger", "Segment", "MechanismOutcome", "Fraction"} <= set(built)


def test_highway_builds_no_segment(monkeypatch):
    built = _count_constructions(monkeypatch)
    params = HighwayParams(n_stations=12, n_convoys=2, agents_per_convoy=8, seed=3)
    highway_experiment(params, ALL_KINDS)
    assert built == {}
    # the count sees the segments that a pt outcome's ledger reads
    run_mechanism("pt", sample_stream("uniform", np.random.default_rng(3), 8, 12)).ledger
    assert built["Segment"] > 0


def test_highway_builds_its_records_once_on_first_read(record_counts):
    built, checked = record_counts
    params = HighwayParams(n_stations=12, n_convoys=3, agents_per_convoy=8,
                           switch_cost=Fraction(5, 3), seed=2)
    result = highway_experiment(params, ALL_KINDS)
    assert built == []
    assert checked == [row[:4] for row in result.rows]  # each row where it is made
    records = result.records
    assert len(built) == len(result.rows) == 3 * 8 * 4
    assert result.records is records
    assert len(built) == len(result.rows)  # the second read built none
    assert (records, result.gini_cells) == public_highway(params, ALL_KINDS)


def test_repeated_and_reordered_kinds_equal_the_outcome_loop():
    params = HighwayParams(n_stations=12, n_convoys=2, agents_per_convoy=6,
                           switch_cost=1, seed=9)
    kinds = ["sg", "rg", "sg"]
    fast = highway_experiment(params, kinds)
    assert (fast.records, fast.gini_cells) == public_highway(params, kinds)


@pytest.mark.parametrize("n_stations", [2, 3, 12, 100])
@pytest.mark.parametrize("configuration", ["uniform", "bimodal"])
def test_tick_draw_and_sweep_equal_the_fraction_sampler(configuration, n_stations):
    for seed in range(200):
        n_agents = 1 + seed % (n_stations - 1)
        rngs = [np.random.default_rng(seed) for _ in range(3)]
        ids, arrive, leave = _sample_ticks(configuration, rngs[0], n_agents, n_stations)
        stream = oracle.sample_stream(configuration, rngs[1], n_agents, n_stations)
        assert sample_stream(configuration, rngs[2], n_agents, n_stations) == stream
        states = [rng.bit_generator.state for rng in rngs]
        assert states[0] == states[1] == states[2]

        want = stream_shares(stream)._ticks
        assert ids == [a.id for a in stream]
        # the draw is on a base of 1000 ticks per station, the oracle's sweep
        # on its own scale: compare x / 1000 with y / scale
        assert [t * want.scale for t in arrive] == [t * 1000 for t in want.arrive]
        assert [t * want.scale for t in leave] == [t * 1000 for t in want.leave]

        got = _sweep(arrive, leave, 1000)
        for name in ("arrive", "leave", "ex_ante", "ex_post"):
            assert ([t * want.scale for t in getattr(got, name)]
                    == [t * got.scale for t in getattr(want, name)]), name
        assert ([(b * want.scale, e * want.scale) for b, e in got.bounds]
                == [(b * got.scale, e * got.scale) for b, e in want.bounds])
        assert got.by_leave == want.by_leave
        assert got.members == want.members
