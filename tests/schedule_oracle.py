"""Uncovered available time, written from its definition.

The reference `socd.validate_schedule`'s gap and idle-time violations are
checked against.  Time is cut at every window and period endpoint; a piece
between two cuts is uncovered when a window holds it and no period of
positive length does.  Adjacent uncovered pieces merge.  A merged piece is
a gap when it lies between the first period's start and the last period's
stop, periods sorted by (start, stop); otherwise it is idle time.  Every
piece rescans every window and period, so this costs O(n^2).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import pairwise
from typing import Sequence

from socd import AgentSpec, Schedule


def uncovered(schedule: Schedule, agents: Sequence[AgentSpec]) -> list[tuple]:
    """(kind, start, end) of each stretch of uncovered available time, in
    time order; kind is "gap" or "inactive_available_time"."""
    windows = [(a.t_arrive, a.t_leave) for a in agents]
    periods = sorted(schedule.periods, key=lambda p: (p.start, p.stop))
    busy = [(p.start, p.stop) for p in periods if p.stop > p.start]
    cuts = sorted({t for p in periods for t in (p.start, p.stop)}
                  | {t for window in windows for t in window})
    pieces: list[tuple[Fraction, Fraction]] = []
    for start, end in pairwise(cuts):
        available = any(a <= start and end <= b for a, b in windows)
        covered = any(a <= start and end <= b for a, b in busy)
        if available and not covered:
            if pieces and pieces[-1][1] == start:
                pieces[-1] = (pieces[-1][0], end)
            else:
                pieces.append((start, end))
    return [
        ("gap" if periods and periods[0].start <= start and end <= periods[-1].stop
         else "inactive_available_time", start, end)
        for start, end in pieces
    ]
