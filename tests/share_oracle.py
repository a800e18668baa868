"""Per-agent rescans: the reference the one-sweep share code is checked against.

These are the segmentations written straight from their definitions.  Every
call re-validates the stream and, for every cut, rescans every agent to find
the segment's members, so a whole stream's shares cost O(n^3).  They are
kept only as a test oracle for `socd.model.stream_shares` and its readers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import pairwise
from typing import Callable, Iterable, Sequence

from socd import AgentSpec, Segment, validate_stream


def _cut_segments(
    start: Fraction,
    end: Fraction,
    cuts: Iterable[Fraction],
    members_at: Callable[[Fraction, Fraction], frozenset],
) -> list[Segment]:
    bounds = [start, *sorted({t for t in cuts if start < t < end}), end]
    return [Segment(s, e, members_at(s, e)) for s, e in pairwise(bounds)]


def stream_segments(agents: Sequence[AgentSpec]) -> list[Segment]:
    """Every arrival or departure cuts; stretches nobody covers are skipped."""
    stream = validate_stream(agents)
    times = sorted({t for a in stream for t in (a.t_arrive, a.t_leave)})
    out: list[Segment] = []
    for s, e in pairwise(times):
        members = frozenset(a.id for a in stream if a.covers(s, e))
        if members:
            out.append(Segment(s, e, members))
    return out


def present_at_arrival(agent: AgentSpec, stream: Iterable[AgentSpec]) -> list[AgentSpec]:
    return [p for p in stream if p.available_at(agent.t_arrive)]


def eas_segments(agent: AgentSpec, present: Iterable[AgentSpec]) -> list[Segment]:
    """`agent`'s window cut only at the departures of the agents present."""
    members = list(present)

    def members_at(s: Fraction, e: Fraction) -> frozenset:
        return frozenset(p.id for p in members if p.t_leave >= e)

    return _cut_segments(
        agent.t_arrive, agent.t_leave, (p.t_leave for p in members), members_at
    )


def eps_segments(agent: AgentSpec, all_agents: Iterable[AgentSpec]) -> list[Segment]:
    """`agent`'s window cut at every arrival or departure inside it."""
    stream = validate_stream(all_agents)

    def members_at(s: Fraction, e: Fraction) -> frozenset:
        return frozenset(a.id for a in stream if a.covers(s, e))

    cuts = (t for a in stream for t in (a.t_arrive, a.t_leave))
    return _cut_segments(agent.t_arrive, agent.t_leave, cuts, members_at)


def segment_sum(segments: Iterable[Segment]) -> Fraction:
    """Sum of |seg|/n_seg: a proportional share without the c/u allowance."""
    return sum((seg.length / len(seg.members) for seg in segments), Fraction(0))
