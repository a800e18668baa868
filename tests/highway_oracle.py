"""The highway's draw as it was written first: each convoy's `AgentSpec`s,
with Fraction arrivals.

`socd.simulation` now draws the same convoys as integer ticks
(`_sample_ticks`, behind `sample_stream` and `highway_experiment`).  This
sampler is kept as the definition of the draw they are checked against.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from socd import AgentSpec

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
