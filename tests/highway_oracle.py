"""The highway experiment as it read its records off full mechanism
outcomes, verbatim: `run_mechanism`, then `net_utilities`, then `float`.

`socd.simulation.highway_experiment` now reads the same records off each
mechanism's tick core, without building a `MechanismOutcome`.  This loop is
kept only as a test oracle for it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from socd.mechanisms import MechanismKind, net_utilities, run_mechanism
from socd.metrics import ParticipationRecord, gini
from socd.model import GameParams, stream_shares
from socd.simulation import (
    HIGHWAY_MECHANISMS,
    ExperimentResult,
    HighwayParams,
    sample_stream,
)


def highway_experiment(
    params: HighwayParams,
    mechanisms: Sequence[MechanismKind | str] = HIGHWAY_MECHANISMS,
) -> ExperimentResult:
    """Run every convoy under every requested mechanism.

    The lead ratio denominator is always the ex-post proportional segment
    sum (no switch-cost addend), i.e. the share the payment-transfer
    mechanism would charge for.  Gini cells with fewer than two records are
    omitted.
    """
    kinds = [MechanismKind(m) for m in mechanisms]
    game_params = GameParams(u=Fraction(1), c=Fraction(params.switch_cost))
    children = np.random.SeedSequence(params.seed).spawn(params.n_convoys)

    records: list[ParticipationRecord] = []
    for ci, child in enumerate(children):
        rng = np.random.default_rng(child)
        shares = stream_shares(
            sample_stream(
                params.configuration, rng, params.agents_per_convoy, params.n_stations
            )
        )
        # floats straight from the ticks: int / int is correctly rounded, so
        # each equals float() of the exact Fraction
        scale, epps = shares._ticks.scale, shares._ticks.ex_post
        for kind in kinds:
            outcome = run_mechanism(kind, shares, game_params)
            nets = net_utilities(outcome)
            led = outcome._run.led
            for k, a in enumerate(shares.stream):
                records.append(
                    ParticipationRecord(
                        agent=a.id,
                        convoy=ci,
                        actual_lead=led[k] / scale,
                        epps=epps[k] / scale,
                        ratio=led[k] / epps[k],
                        mechanism=kind.value,
                        rotations=1 if a.id in outcome.rotation_costs else 0,
                        net_utility=float(nets[a.id]),
                    )
                )

    gini_cells: dict[str, float] = {}
    for kind in kinds:
        ratios = [r.ratio for r in records if r.mechanism == kind.value]
        if len(ratios) >= 2:
            gini_cells[kind.value] = gini(ratios)

    return ExperimentResult(
        kind="highway",
        seed=params.seed,
        records=tuple(records),
        curve=None,
        gini_cells=gini_cells,
        params=params,
    )
