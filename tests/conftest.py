"""Shared fixtures: the three-agent reference scenario, random streams and
a count of the records that experiments build and check."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import socd.simulation
from socd import AgentSpec, ParticipationRecord

# Reference scenario used across the suite: three staggered agents whose
# windows overlap pairwise and all at once in [8, 10).
S1 = (
    AgentSpec("a1", 0, 10),
    AgentSpec("a2", 4, 16),
    AgentSpec("a3", 8, 20),
)


def random_stream(
    rng: np.random.Generator,
    n_agents: int | None = None,
    integer_times: bool = False,
    horizon: int = 24,
) -> list[AgentSpec]:
    """Build 2-8 agents with distinct arrivals and positive rational windows.

    With integer_times, arrivals and lengths are whole numbers, which keeps
    every derived quantity on a coarse rational grid (used by the
    step-simulation oracle).
    """
    n = int(n_agents) if n_agents is not None else int(rng.integers(2, 9))
    denoms = (1, 2, 3, 4, 6, 12)
    arrivals: set[Fraction] = set()
    agents: list[AgentSpec] = []
    for k in range(n):
        while True:
            if integer_times:
                arrive = Fraction(int(rng.integers(0, horizon)))
            else:
                arrive = Fraction(
                    int(rng.integers(0, horizon * 4)), int(rng.choice(denoms))
                )
            if arrive not in arrivals:
                break
        arrivals.add(arrive)
        if integer_times:
            length = Fraction(int(rng.integers(1, horizon)))
        else:
            length = Fraction(
                int(rng.integers(1, horizon * 2)), int(rng.choice(denoms))
            )
        agents.append(AgentSpec(f"v{k}", arrive, arrive + length))
    return agents


@pytest.fixture
def s1() -> list[AgentSpec]:
    return list(S1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260817)


@pytest.fixture
def record_counts(monkeypatch) -> tuple[list, list]:
    """Two lists: every `ParticipationRecord` built, and the (agent, convoy,
    actual_lead, epps) of every row `socd.simulation` checks, as they come."""
    built: list = []
    checked: list = []
    post_init, check = ParticipationRecord.__post_init__, socd.simulation._check_record

    def building(self):
        built.append(self)
        post_init(self)

    def checking(*args):
        checked.append(args)
        check(*args)

    monkeypatch.setattr(ParticipationRecord, "__post_init__", building)
    monkeypatch.setattr(socd.simulation, "_check_record", checking)
    return built, checked
