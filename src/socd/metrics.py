"""Fairness and convergence metrics over experiment records.

Everything here works in floats: records arrive from the exact-arithmetic
core, but inequality statistics are reporting-layer quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "ParticipationRecord",
    "ConvergenceCurve",
    "EmptySample",
    "AllZeroSample",
    "ZeroEpps",
    "gini",
    "unsatisfied_fraction",
    "UNSATISFIED_THRESHOLD",
]

UNSATISFIED_THRESHOLD = 1.10


class EmptySample(ValueError):
    """No values to aggregate."""


class AllZeroSample(ValueError):
    """Gini is undefined when every value is zero."""


class ZeroEpps(ValueError):
    """A lead ratio needs a positive proportional share."""


def _check_record(agent: object, convoy: object, actual_lead: float, epps: float) -> None:
    """A record's own checks, also made on each experiment row where it is
    built: a positive epps, and a lead that is not negative (nor NaN)."""
    if not epps > 0:
        raise ZeroEpps(f"record ({convoy}, {agent}) has epps <= 0")
    if not actual_lead >= 0:
        raise ValueError("actual lead must be non-negative")


@dataclass(frozen=True, slots=True)
class ParticipationRecord:
    """One agent's outcome in one convoy: the unit every experiment emits.

    `ratio` is actual lead over the ex-post proportional share (computed
    when omitted).  `mechanism`, `rotations` and `net_utility` carry the
    reporting columns alongside.  Experiments keep each record as a plain
    tuple of these fields, in this order, and build the records on first
    read (`ExperimentResult.records`).
    """

    agent: str | int
    convoy: str | int
    actual_lead: float
    epps: float
    ratio: float | None = None
    mechanism: str = ""
    rotations: int = 0
    net_utility: float = 0.0

    def __post_init__(self) -> None:
        _check_record(self.agent, self.convoy, self.actual_lead, self.epps)
        if self.ratio is None:
            object.__setattr__(self, "ratio", self.actual_lead / self.epps)


@dataclass(frozen=True)
class ConvergenceCurve:
    """Unsatisfied-vehicle fraction as a function of mean participations.

    `points` pairs each checkpoint's mean participation count with the
    fraction; `band` gives the one-standard-deviation envelope (equal to the
    point value for single-run curves).
    """

    points: tuple[tuple[float, float], ...]
    band: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(map(tuple, self.points)))
        object.__setattr__(self, "band", tuple(map(tuple, self.band)))
        if len(self.points) != len(self.band):
            raise ValueError("band must have one entry per point")
        for _, y in self.points:
            if not 0.0 <= y <= 1.0:
                raise ValueError("fractions must lie in [0, 1]")


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of a non-negative population.

    Mean-absolute-difference form, computed in O(n log n) via the sorted
    identity sum((2i - n - 1) * x_(i)) / (n^2 * mean).  0 means perfect
    equality; the supremum for n values is (n - 1) / n.  A NaN or an
    infinite value raises a ValueError.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise EmptySample("gini of an empty population")
    if not np.isfinite(arr).all():
        raise ValueError("gini requires finite values")
    if np.any(arr < 0):
        raise ValueError("gini requires non-negative values")
    total = float(arr.sum())
    if total == 0.0:
        raise AllZeroSample("gini is undefined when all values are zero")
    srt = np.sort(arr)
    n = arr.size
    weights = 2.0 * np.arange(1, n + 1) - n - 1
    return float(np.dot(weights, srt) / (n * total))


def unsatisfied_fraction(ratios: Iterable[float]) -> float:
    """Fraction of ratios strictly above `UNSATISFIED_THRESHOLD` (1.10); a
    NaN or an infinite ratio raises a ValueError, as in `gini`."""
    values = list(ratios)
    if not values:
        raise EmptySample("unsatisfied fraction of an empty population")
    if not all(map(math.isfinite, values)):
        raise ValueError("unsatisfied fraction requires finite ratios")
    return sum(1 for r in values if r > UNSATISFIED_THRESHOLD) / len(values)

