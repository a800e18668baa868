"""Per-section ring-road loop: the reference the event-driven loop is checked against.

This is the ring road written one section at a time: every section rescans
the convoy for vehicles whose destination is the current station, rebuilds
the stack, draws every parked candidate's join decision as one array, and
credits the leader one section.  It is kept only as a test oracle for
`socd.simulation.ring_road_experiment`, which must give equal records and an
equal curve from the same random stream.  It builds each record as a
`ParticipationRecord`, so the tests compare the loop's rows, read through
`ExperimentResult.records`, with records made directly.
"""

from __future__ import annotations

import numpy as np

from socd import ConvergenceCurve, ParticipationRecord, RingRoadParams
from socd.mechanisms import MechanismKind
from socd.metrics import UNSATISFIED_THRESHOLD


def ring_road_experiment(
    params: RingRoadParams,
) -> tuple[tuple[ParticipationRecord, ...], ConvergenceCurve]:
    """Simulate the rejoin loop until the target mean participation count;
    return the records and the convergence curve.

    Leadership follows the repeated-game rule: same-station joiners are
    pushed to the front in a randomized order (the last one leads) and the
    previous front agent resumes when the leader exits.  Per section, every
    member accrues 1/n to its proportional share and the leader accrues one
    section of actual lead.  The convergence curve samples, at every
    `curve_step` of mean participations, the fraction of vehicles whose
    cumulative lead exceeds their cumulative share by more than 10%.
    """
    rng = np.random.default_rng(params.seed)
    n_stations, n_vehicles = params.n_stations, params.n_vehicles
    p = params.join_probability

    records: list[ParticipationRecord] = []
    points: list[tuple[float, float]] = []

    if p > 0.0:
        parked: list[list[int]] = [[] for _ in range(n_stations)]
        for vid, st in enumerate(rng.integers(0, n_stations, size=n_vehicles)):
            parked[int(st)].append(vid)

        stack: list[int] = []  # stack[-1] is the front of the convoy
        dest: dict[int, int] = {}
        join_cum: dict[int, float] = {}
        join_section: dict[int, int] = {}
        led_count: dict[int, int] = {}

        cum_inv = 0.0  # running sum of 1/n over sections with a non-empty convoy
        section = 0
        cum_actual = np.zeros(n_vehicles)
        cum_epps = np.zeros(n_vehicles)
        participated = np.zeros(n_vehicles, dtype=bool)

        total_records = 0
        target_records = params.target_mean_participations * n_vehicles
        next_checkpoint = params.curve_step

        station = 0
        while total_records < target_records:
            candidates = parked[station]
            parked[station] = []

            # exits first: a vehicle never rejoins on the visit it parks
            exited: list[int] = []
            if stack:
                exited = [vid for vid in stack if dest[vid] == station]
                if exited:
                    stack = [vid for vid in stack if dest[vid] != station]
                for vid in exited:
                    actual = float(led_count.pop(vid))
                    epps = cum_inv - join_cum.pop(vid)
                    aboard = section - join_section.pop(vid)
                    del dest[vid]
                    records.append(
                        ParticipationRecord(
                            agent=vid,
                            convoy=total_records,
                            actual_lead=actual,
                            epps=epps,
                            mechanism=MechanismKind.REPEATED_GAME.value,
                            rotations=0,
                            net_utility=float(aboard) - actual,
                        )
                    )
                    cum_actual[vid] += actual
                    cum_epps[vid] += epps
                    participated[vid] = True
                    total_records += 1
                while (
                    next_checkpoint <= params.target_mean_participations
                    and total_records / n_vehicles >= next_checkpoint
                ):
                    ratios = cum_actual[participated] / cum_epps[participated]
                    frac = float(np.mean(ratios > UNSATISFIED_THRESHOLD))
                    points.append((next_checkpoint, frac))
                    next_checkpoint += params.curve_step

            # join draws from the vehicles parked before this visit
            stayed = candidates
            if candidates:
                draws = rng.random(len(candidates))
                joiners = [v for v, d in zip(candidates, draws) if d < p]
                stayed = [v for v, d in zip(candidates, draws) if d >= p]
                if len(joiners) > 1:
                    order = rng.permutation(len(joiners))
                    joiners = [joiners[k] for k in order]
                for vid in joiners:
                    sections = int(rng.random() * n_stations) + 1
                    dest[vid] = (station + sections) % n_stations
                    stack.append(vid)
                    join_cum[vid] = cum_inv
                    join_section[vid] = section
                    led_count[vid] = 0
            parked[station] = stayed + exited

            if stack:
                cum_inv += 1.0 / len(stack)
                led_count[stack[-1]] += 1
            section += 1
            station = (station + 1) % n_stations

    curve = ConvergenceCurve(
        points=tuple(points), band=tuple((y, y) for _, y in points)
    )
    return tuple(records), curve
