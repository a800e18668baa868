"""Per-segment dynamic adjustment: the reference the one-pass code is checked against.

This is the sg-da rule written straight from its definition: for every
segment of the newcomer's ex-ante cut, rescan the unfinished members for the
ones still available, and cut each of them by the segment's share split
evenly among them, clamping at zero after every segment.  It costs
O(segments * pool) per arrival and is kept only as a test oracle for
`socd.mechanisms._relieve`, and as the adjustment of the old sg loop in
`mechanism_oracle.py`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from socd import AgentSpec, Segment


def sg_adjust_shares(new_agent: AgentSpec, state, eas: Sequence[Segment]) -> dict:
    """The remaining claims after `new_agent` arrives; `state` is left alone.

    `state` is a `mechanism_oracle.ConvoyState`; only its `unfinished`
    queue and its `remaining` map are read.
    """
    updated = dict(state.remaining)
    for seg in eas:
        share = seg.length / len(seg.members)
        pool = [
            m for m in state.unfinished
            if m.id != new_agent.id and m.t_leave > seg.start
        ]
        if not pool:
            continue
        cut = share / len(pool)
        for m in pool:
            updated[m.id] = max(Fraction(0), updated[m.id] - cut)
    return updated
