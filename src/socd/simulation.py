"""Seeded traffic experiments that exercise the mechanisms at scale.

Two setups:

* ring road: vehicles park at stations on a circular road and re-join a
  single convoy with fixed probability whenever it passes, under
  repeated-game leadership.  Measures how fast each vehicle's cumulative
  lead converges to its cumulative proportional share.
* highway: independent convoys on a straight road, each a fresh stream of
  agents with station-indexed arrival and departure times.  Pools the
  per-agent lead ratios and compares mechanisms by the Gini coefficient of
  those ratios, under a uniform or a commuter-hub (bimodal) entry pattern.

Both are reproducible from the experiment seed.  The highway spawns one
child generator per convoy, so its results are also insensitive to which
mechanisms are evaluated; the ring road draws from one generator seeded
with the experiment seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .mechanisms import MechanismKind, _drive, _nets
from .metrics import (
    ConvergenceCurve,
    ParticipationRecord,
    _check_record,
    gini,
    unsatisfied_fraction,
)
from .model import AgentSpec, _sweep, as_time

__all__ = [
    "RingRoadParams",
    "HighwayParams",
    "ExperimentResult",
    "sample_stream",
    "ring_road_experiment",
    "highway_experiment",
    "aggregate_curves",
    "HIGHWAY_MECHANISMS",
]

HIGHWAY_MECHANISMS = (
    MechanismKind.REPEATED_GAME,
    MechanismKind.SINGLE_GAME,
    MechanismKind.SINGLE_GAME_DYNAMIC,
)


def _require(values: Mapping[str, object], kind: type, what: str, *names: str) -> None:
    """Reject counts and seeds that are not integers and lengths and rates
    that are not real numbers (bools included): they would fail later, as a
    TypeError, inside `range` or in a comparison."""
    for name in names:
        value = values[name]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{name} must be {what}, not {_shown(value, repr)}")


# Upper bound on an experiment's station, vehicle and convoy counts, on
# the ring road's checkpoint count and on both experiments' record counts.
# Past it a run would exhaust memory, overflow numpy or never finish before
# writing a record, so the params classes refuse it at construction.
_MAX_SIZE = 10**6


# Upper bound on the ring road's estimated section count (a vehicle waits
# about 1/join_probability laps of n_stations sections per participation)
# and on its curve's vehicle reads (each checkpoint reads every vehicle).
# A run at the section bound took 13-22 s on a 2-core Xeon.
_MAX_STEPS = 10**8


# Upper bound on the highway's switch cost, the CLI's bound on any exact
# value, so a run's net utilities, which subtract the switch cost times a
# convoy size, convert to finite floats.
_MAX_SWITCH_COST = 10**100


def _require_at_most(values: Mapping[str, object], *names: str) -> None:
    for name in names:
        if values[name] > _MAX_SIZE:
            raise ValueError(f"{name} must be at most {_MAX_SIZE}")


def _require_positive(values: Mapping[str, object], *names: str) -> None:
    if any(values[name] < 1 for name in names):
        raise ValueError(f"{' and '.join(names)} must be positive")


def _require_stations(n_stations: int) -> None:
    if n_stations < 2:
        raise ValueError("need at least two stations")


def _require_configuration(configuration: str) -> None:
    if configuration not in ("uniform", "bimodal"):
        raise ValueError("configuration must be 'uniform' or 'bimodal'")


def _shown(value: object, form: Callable[[object], str] = str) -> str:
    """`form(value)`, unless CPython refuses to print its 4300+ digits."""
    try:
        return form(value)
    except ValueError:
        return "a number of more than 4300 digits"


def _require_seed(seed: int) -> None:
    # numpy would reject it later without naming the seed
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {_shown(seed)}")


@dataclass(frozen=True)
class RingRoadParams:
    """Circular-road rejoin experiment.

    Stations sit one section apart on a ring; a single convoy slot cycles
    the ring forever (even while empty).  Parked vehicles rejoin with
    `join_probability` whenever the convoy passes, ride ⌊u * n_stations⌋ + 1
    sections for a fresh uniform draw u in [0, 1), and park again.  The run
    stops once the mean number of completed participations per vehicle
    reaches the target.
    """

    n_stations: int = 100
    n_vehicles: int = 100
    join_probability: float = 0.1
    target_mean_participations: float = 1000.0
    curve_step: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        _require(vars(self), numbers.Integral, "an integer", "n_stations", "n_vehicles",
                 "seed")
        _require(vars(self), numbers.Real, "a real number", "join_probability",
                 "target_mean_participations", "curve_step")
        _require_seed(self.seed)
        _require_positive(vars(self), "n_stations", "n_vehicles")
        # the loop reads floats, and a Fraction there made it 12x slower; the
        # checks below read the floats the loop gets
        for name in ("join_probability", "target_mean_participations", "curve_step"):
            value = getattr(self, name)
            try:
                value = float(value)
            except OverflowError:  # a real past the largest float
                value = math.inf if value > 0 else -math.inf
            object.__setattr__(self, name, value)
        if not 0.0 <= self.join_probability <= 1.0:
            raise ValueError("join_probability must lie in [0, 1]")
        for name in ("target_mean_participations", "curve_step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.curve_step <= 0:
            raise ValueError("curve_step must be positive")
        if self.target_mean_participations <= 0:
            raise ValueError("target_mean_participations must be positive")
        _require_at_most(vars(self), "n_stations", "n_vehicles")
        if self.target_mean_participations / self.curve_step > _MAX_SIZE:
            raise ValueError("target_mean_participations / curve_step (the "
                             f"checkpoint count) must be at most {_MAX_SIZE}")
        if self.target_mean_participations * self.n_vehicles > _MAX_SIZE:
            raise ValueError("target_mean_participations * n_vehicles (the "
                             f"record count) must be at most {_MAX_SIZE}")
        sections = self.target_mean_participations * self.n_stations
        if self.join_probability > 0 and sections / self.join_probability > _MAX_STEPS:
            raise ValueError("target_mean_participations * n_stations / join_probability"
                             f" (the estimated section count) must be at most {_MAX_STEPS}")
        if self.n_vehicles * self.target_mean_participations / self.curve_step > _MAX_STEPS:
            raise ValueError("n_vehicles * target_mean_participations / curve_step (the "
                             f"curve's vehicle reads) must be at most {_MAX_STEPS}")


@dataclass(frozen=True)
class HighwayParams:
    """Straight-road convoy experiment.

    Each convoy is an independent stream of agents whose arrival and
    departure times are their entry and exit station indices.  `uniform`
    samples entries anywhere; `bimodal` routes 80% of agents between the
    first and last 10% of stations (commuter hubs) and samples the rest
    uniformly.  Agents sharing an entry station are spaced by sub-station
    offsets, so arrival times stay distinct.
    """

    n_stations: int = 100
    n_convoys: int = 100
    agents_per_convoy: int = 10
    configuration: str = "uniform"
    switch_cost: int | Fraction = 0
    seed: int = 0

    def __post_init__(self) -> None:
        _require(vars(self), numbers.Integral, "an integer",
                 "n_stations", "n_convoys", "agents_per_convoy", "seed")
        _require_seed(self.seed)
        cost = self.switch_cost
        if isinstance(cost, bool) or not isinstance(cost, numbers.Rational):
            raise ValueError(f"switch_cost must be an int or a Fraction, not {cost!r}")
        if cost < 0:
            raise ValueError(f"switch_cost must be non-negative, not {_shown(cost)}")
        if cost >= _MAX_SWITCH_COST:
            raise ValueError("switch_cost must be below 10**100")
        # an int or a Fraction of ints stays as given; a numpy integer would overflow
        object.__setattr__(self, "switch_cost",
                           int(cost) if isinstance(cost, numbers.Integral) else as_time(cost))
        _require_configuration(self.configuration)
        _require_stations(self.n_stations)
        _require_positive(vars(self), "n_convoys", "agents_per_convoy")
        _require_at_most(vars(self), "n_stations", "n_convoys")
        if self.agents_per_convoy > self.n_stations - 1:
            raise ValueError("agents_per_convoy must be below n_stations")
        if self.n_convoys * self.agents_per_convoy > _MAX_SIZE:
            raise ValueError("n_convoys * agents_per_convoy (the record count "
                             f"per mechanism) must be at most {_MAX_SIZE}")


@dataclass(frozen=True)
class ExperimentResult:
    """One experiment run: its rows plus the setup-specific aggregates.

    Each row is one participation as a plain tuple of the
    `ParticipationRecord` fields, in field order, already checked as a
    record checks itself.  `records` builds the records from the rows on
    first read.
    """

    seed: int
    rows: tuple[tuple, ...]
    curve: ConvergenceCurve | None
    gini_cells: dict[str, float]

    @cached_property
    def records(self) -> tuple[ParticipationRecord, ...]:
        return tuple(ParticipationRecord(*row) for row in self.rows)


# Ticks per station on the highway.  Same-station joiners arrive one tick
# apart, so a station takes at most this many of them: one more would
# arrive on the next station's tick, the first tick any exit can fall on.
_STATION_TICKS = 1000


def _sample_ticks(
    configuration: str, rng: np.random.Generator, n_agents: int, n_stations: int
) -> tuple[list[int], list[int], list[int]]:
    """One convoy's stream as ids, arrivals and departures in ticks, in
    arrival order: the arrival of the rank-r joiner at station s is
    s * 1000 + r, its departure its exit station times 1000.  Raises a
    ValueError if more than 1000 agents enter at one station.
    (`sample_stream` gives the same draw as `AgentSpec`s.)
    """
    hub = max(1, n_stations // 10)
    by_station: dict[int, list[tuple[int, int]]] = {}
    for i in range(n_agents):
        for _ in range(1000):
            if configuration == "bimodal" and rng.random() < 0.8:
                entry = int(rng.integers(1, hub + 1))
                exit_ = int(rng.integers(n_stations - hub + 1, n_stations + 1))
            else:
                entry = int(rng.integers(1, n_stations + 1))
                exit_ = int(rng.integers(1, n_stations + 1))
                if exit_ <= entry:
                    continue
            by_station.setdefault(entry, []).append((exit_, i))
            break
        else:
            raise RuntimeError("could not sample an ordered entry/exit pair")

    ids: list[int] = []
    arrive: list[int] = []
    leave: list[int] = []
    for entry in sorted(by_station):
        group = by_station[entry]
        if len(group) > 1:
            if len(group) > _STATION_TICKS:
                raise ValueError(f"{len(group)} agents enter at station {entry}; "
                                 f"at most {_STATION_TICKS} fit between two stations")
            group = [group[j] for j in rng.permutation(len(group))]
        tick = entry * _STATION_TICKS
        for exit_, i in group:
            ids.append(i)
            arrive.append(tick)
            leave.append(exit_ * _STATION_TICKS)
            tick += 1
    return ids, arrive, leave


def sample_stream(
    configuration: str,
    rng: np.random.Generator,
    n_agents: int = 10,
    n_stations: int = 100,
) -> list[AgentSpec]:
    """Sample one convoy's agent stream.

    Uniform scheme: the (entry, exit) pair is drawn uniformly over all
    station pairs with entry < exit, by redrawing both until they are
    ordered.  Bimodal scheme: with probability 0.8 the agent commutes
    hub-to-hub, entering in the first 10% of stations and exiting in the
    last 10%; otherwise the uniform scheme applies.  Several agents may
    enter at the same station; their order is randomized and they are
    spaced by 1/1000 of a station so that arrival times stay distinct,
    with the last one in arriving latest.  At most 1000 agents may enter
    at one station (a ValueError otherwise).  Ids are 0..n_agents-1,
    listed in arrival order.

    This is the highway's own draw (the same generator calls in the same
    order), with each time as an exact `Fraction`; the highway itself
    keeps the times as integer ticks.  `configuration` is 'uniform' or
    'bimodal', `n_agents` a positive integer and `n_stations` an integer of
    at least 2, neither above 10**6 (a ValueError otherwise, before
    anything is drawn).
    """
    sizes = {"n_agents": n_agents, "n_stations": n_stations}
    _require(sizes, numbers.Integral, "an integer", *sizes)
    _require_configuration(configuration)
    _require_stations(n_stations)
    _require_positive(sizes, "n_agents")
    _require_at_most(sizes, *sizes)
    ids, arrive, leave = _sample_ticks(configuration, rng, n_agents, n_stations)
    return [AgentSpec(i, Fraction(t_arrive, _STATION_TICKS), t_leave // _STATION_TICKS)
            for i, t_arrive, t_leave in zip(ids, arrive, leave)]


def highway_experiment(
    params: HighwayParams,
    mechanisms: Sequence[MechanismKind | str] = HIGHWAY_MECHANISMS,
) -> ExperimentResult:
    """Run every convoy under every requested mechanism.

    The lead ratio denominator is always the ex-post proportional segment
    sum (no switch-cost addend), i.e. the share the payment-transfer
    mechanism would charge for.  Gini cells with fewer than two records are
    omitted.  The result keeps each participation as a row, by convoy, then
    mechanism in the order requested, then agent in arrival order.

    The highway runs on integer ticks from the draw to the record: each
    convoy's stream is drawn as ticks (`_sample_ticks`, the draw of
    `sample_stream`), swept as ticks (`model._sweep`, the sweep of
    `stream_shares`), and run through each mechanism's tick core
    (`mechanisms._drive` and `_nets`).  No `AgentSpec`, `MechanismOutcome`,
    `Fraction` or `ParticipationRecord` is built, and the stream is not
    validated again: the draw gives distinct arrivals in order, each before
    its departure.  Each float is one int divided by another, which is
    correctly rounded, so it equals float() of the exact Fraction that
    `run_mechanism` and `net_utilities` give on the `sample_stream` stream,
    whatever the tick scale.
    """
    kinds = [MechanismKind(m) for m in mechanisms]
    c = params.switch_cost  # u is 1
    children = np.random.SeedSequence(params.seed).spawn(params.n_convoys)

    rows: list[tuple] = []
    ratios: dict[str, list[float]] = {kind.value: [] for kind in kinds}
    for ci, child in enumerate(children):
        rng = np.random.default_rng(child)
        ids, arrive, leave = _sample_ticks(
            params.configuration, rng, params.agents_per_convoy, params.n_stations
        )
        ticks = _sweep(arrive, leave, _STATION_TICKS)
        scale, epps = ticks.scale, ticks.ex_post
        for kind in kinds:
            mechanism = kind.value
            run = _drive(kind, ticks, ids)
            nets, den = _nets(kind, ticks, run, 1, c)
            led, rotated, pool = run.led, run.rotated, ratios[mechanism]
            for k, i in enumerate(ids):
                lead, share = led[k] / scale, epps[k] / scale
                _check_record(i, ci, lead, share)
                ratio = led[k] / epps[k]
                rows.append((i, ci, lead, share, ratio, mechanism,
                             1 if rotated[k] else 0, nets[k] / den))
                pool.append(ratio)

    gini_cells = {m: gini(values) for m, values in ratios.items() if len(values) >= 2}

    return ExperimentResult(
        seed=params.seed, rows=tuple(rows), curve=None, gini_cells=gini_cells
    )


# Doubles the ring road draws ahead per block of join draws.
_BLOCK = 512


def _draws(rng: np.random.Generator, p: float, n: int) -> tuple[dict, np.ndarray, list[int]]:
    """A block of join draws starting where `rng` stands: the saved state,
    max(_BLOCK, n) doubles as an array, and the hits (the indices of the
    doubles below `p`, as a list), ending in the sentinel len(doubles)."""
    snapshot = rng.bit_generator.state
    block = rng.random(max(_BLOCK, n))
    hits = (block < p).nonzero()[0].tolist()
    hits.append(len(block))
    return snapshot, block, hits


def _rewind(rng: np.random.Generator, snapshot: dict, pos: int) -> None:
    """Put `rng` back where it stood `pos` doubles after `snapshot`.

    Restoring the state keeps the half-used 32-bit word that PCG64 buffers
    for `permutation` and `integers`; `bit_generator.advance` would clear it.
    """
    rng.bit_generator.state = snapshot
    rng.random(pos)


def ring_road_experiment(params: RingRoadParams) -> ExperimentResult:
    """Simulate the rejoin loop until the target mean participation count.

    Leadership follows the repeated-game rule: same-station joiners are
    pushed to the front in a randomized order (the last one leads) and the
    previous front agent resumes when the leader exits.  Per section, every
    member accrues 1/n to its proportional share and the leader accrues one
    section of actual lead.  The convergence curve samples, at every
    `curve_step` of mean participations, the fraction of vehicles whose
    cumulative lead exceeds their cumulative share by more than 10%.

    The loop is event-driven.  The convoy is one insertion-ordered dict
    from each rider, in join order, to its ride so far: [share sum at
    join, section at join, sections led]; the last entry leads.  A joiner
    is also filed in the exit bucket of its destination station, so a
    visit finds its exits without scanning the convoy.  A visit first
    reads its join draws; one with exits or joiners then changes the
    convoy in one step: it credits the leader its run of led sections,
    pops the exits and writes their rows, crosses the curve's checkpoints
    (stopping at the target), boards the joiners, sets the station's parked
    vehicles and recomputes 1/n.  The running share sum still gains 1/n
    once per section, in order: the shares are float differences of that
    sum, so adding in bulk would round differently.

    Random draws come in the same order as a plain per-section loop makes
    them (one double per parked candidate, then a permutation of several
    same-visit joiners, then one trip double u per joiner, who rides
    int(u * n_stations) + 1 sections), so a seed gives the same records and
    curve.  The doubles are drawn ahead in blocks, with the ascending
    indices of those below the join probability (the hits) beside them; a
    visit without a hit only moves the block position, and a join visit
    reads its joiners at the hits and its trips from the next doubles.  A
    block stays a numpy array: the loop reads a double as a Python float
    only for a trip.  One rule refills a block: a visit with a hit (the
    hits end in the block's length, so running past the block counts)
    that finds no room for its join draws and a trip draw per candidate
    rewinds the generator to the block position (`_rewind`) and draws a
    new block there, which holds the same doubles.  A permutation reads
    the generator itself, so the same rewind precedes it and a new block
    follows.

    Each participation is kept as a row, a tuple of the
    `ParticipationRecord` fields; no record is built until
    `ExperimentResult.records` is read.
    """
    rng = np.random.default_rng(params.seed)
    n_stations, n_vehicles = params.n_stations, params.n_vehicles
    p = params.join_probability
    rg = MechanismKind.REPEATED_GAME.value

    rows: list[tuple] = []
    points: list[tuple[float, float]] = []

    if p > 0.0:
        parked: list[list[int]] = [[] for _ in range(n_stations)]
        for vid, st in enumerate(rng.integers(0, n_stations, size=n_vehicles)):
            parked[int(st)].append(vid)
        # exits[s]: the riders leaving at station s, in join order
        exits: list[list[int]] = [[] for _ in range(n_stations)]

        # rider -> [cum_inv at join, section at join, sections led], in
        # join order: the last entry leads
        convoy: dict[int, list] = {}
        lead_start = 0  # section from which the leader has led uncredited
        # 1/len(convoy); 0.0 while the convoy is empty, where adding it to
        # cum_inv leaves the sum unchanged
        inv = 0.0
        cum_inv = 0.0  # running sum of 1/n over sections with a non-empty convoy
        cum_actual = [0.0] * n_vehicles
        cum_epps = [0.0] * n_vehicles  # positive once the vehicle has a record

        total_records = 0
        target_records = params.target_mean_participations * n_vehicles
        next_checkpoint = params.curve_step

        # the block of doubles drawn from `snapshot`: buf[pos] is the next
        # double the stream would give, and hits[h] the first index >= pos
        # whose double is below p (or len(buf))
        snapshot, buf, hits = _draws(rng, p, 0)
        pos = h = 0

        lap = 0  # section number of the current lap's visit to station 0
        while total_records < target_records:
            for station in range(n_stations):
                # join draws from the vehicles parked before this visit: one
                # double each, buf[pos:stop]
                candidates = parked[station]
                joiners = ()
                if candidates:
                    stop = pos + len(candidates)
                    if hits[h] < stop:
                        if stop + len(candidates) > len(buf):  # no room: refill
                            _rewind(rng, snapshot, pos)
                            snapshot, buf, hits = _draws(rng, p, 2 * len(candidates))
                            pos = h = 0
                            stop = len(candidates)
                        joiners = []
                        while (i := hits[h]) < stop:
                            joiners.append(candidates[i - pos])
                            h += 1
                    pos = stop

                # the convoy step; the exits park after the join draws, so a
                # vehicle never rejoins on the visit it parks
                out = exits[station]
                if out or joiners:
                    exits[station] = []  # a full-lap trip files here, not in `out`
                    section = lap + station
                    if convoy:
                        next(reversed(convoy.values()))[2] += section - lead_start
                    lead_start = section
                    if out:
                        for vid in out:
                            joined_cum, joined_section, led = convoy.pop(vid)
                            actual = float(led)
                            epps = cum_inv - joined_cum
                            aboard = section - joined_section
                            _check_record(vid, total_records, actual, epps)
                            rows.append((vid, total_records, actual, epps, actual / epps,
                                         rg, 0, float(aboard) - actual))
                            cum_actual[vid] += actual
                            cum_epps[vid] += epps
                            total_records += 1
                        while (
                            next_checkpoint <= params.target_mean_participations
                            and total_records / n_vehicles >= next_checkpoint
                        ):
                            ratios = (
                                cum_actual[v] / cum_epps[v]
                                for v in range(n_vehicles)
                                if cum_epps[v]
                            )
                            points.append((next_checkpoint, unsatisfied_fraction(ratios)))
                            next_checkpoint += params.curve_step
                        if total_records >= target_records:
                            break
                    if joiners:
                        if len(joiners) > 1:  # the permutation reads the generator
                            _rewind(rng, snapshot, pos)
                            joiners = [joiners[k] for k in rng.permutation(len(joiners))]
                            snapshot, buf, hits = _draws(rng, p, len(joiners))
                            pos = h = 0
                        for vid in joiners:
                            sections = int(buf.item(pos) * n_stations) + 1
                            pos += 1
                            exits[(station + sections) % n_stations].append(vid)
                            convoy[vid] = [cum_inv, section, 0]
                        while hits[h] < pos:  # trip draws below p are not hits
                            h += 1
                        taken = set(joiners)
                        candidates = [vid for vid in candidates if vid not in taken]
                    parked[station] = candidates + out
                    inv = 1.0 / len(convoy) if convoy else 0.0

                cum_inv += inv
            lap += n_stations

    curve = ConvergenceCurve(
        points=tuple(points), band=tuple((y, y) for _, y in points)
    )
    return ExperimentResult(seed=params.seed, rows=tuple(rows), curve=curve, gini_cells={})


def aggregate_curves(curves: Sequence[ConvergenceCurve]) -> ConvergenceCurve:
    """Average same-grid curves across seeds; the band is mean +- one sd."""
    if not curves:
        raise ValueError("no curves to aggregate")
    xs = [x for x, _ in curves[0].points]
    for c in curves[1:]:
        if [x for x, _ in c.points] != xs:
            raise ValueError("curves must share the same checkpoint grid")
    ys = np.array([[y for _, y in c.points] for c in curves])
    mean = ys.mean(axis=0)
    sd = ys.std(axis=0)
    low = np.clip(mean - sd, 0.0, 1.0)
    high = np.clip(mean + sd, 0.0, 1.0)
    return ConvergenceCurve(
        points=tuple(zip(xs, mean.tolist())),
        band=tuple(zip(low.tolist(), high.tolist())),
    )
