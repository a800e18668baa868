"""The highway experiment as it read its records off full mechanism
outcomes, verbatim: `sample_stream` drew each convoy's `AgentSpec`s with
Fraction arrivals, `stream_shares` validated and swept them, then
`run_mechanism`, `net_utilities` and `float`.

`socd.simulation.highway_experiment` now draws integer ticks, sweeps them
and reads the same records off each mechanism's tick core, without building
an `AgentSpec`, a `Fraction` or a `MechanismOutcome`.  This loop and its
Fraction sampler are kept only as test oracles for it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from socd.mechanisms import MechanismKind, net_utilities, run_mechanism
from socd.metrics import ParticipationRecord, gini
from socd.model import AgentSpec, GameParams, stream_shares
from socd.simulation import HIGHWAY_MECHANISMS, ExperimentResult, HighwayParams

# Sub-station spacing for same-station joiners; must stay below one station
# so the offsets never reach the next station or any exit time.
ENTRY_OFFSET = Fraction(1, 1000)


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
    spaced by sub-station offsets so that arrival times stay distinct,
    with the last one in arriving latest.  Ids are 0..n_agents-1.
    """
    hub = max(1, n_stations // 10)
    drawn: list[tuple[int, int, int]] = []
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
            drawn.append((entry, exit_, i))
            break
        else:
            raise RuntimeError("could not sample an ordered entry/exit pair")

    by_station: dict[int, list[tuple[int, int, int]]] = {}
    for entry, exit_, i in drawn:
        by_station.setdefault(entry, []).append((entry, exit_, i))
    agents: list[AgentSpec] = []
    for entry in sorted(by_station):
        group = by_station[entry]
        if len(group) > 1:
            group = [group[j] for j in rng.permutation(len(group))]
        for rank, (_, exit_, i) in enumerate(group):
            agents.append(AgentSpec(i, Fraction(entry) + rank * ENTRY_OFFSET, exit_))
    return agents


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
