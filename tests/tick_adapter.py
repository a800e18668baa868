"""`mechanisms._relieve` spoken to in AgentSpecs and Fractions.

`_relieve` runs on stream positions and integer ticks.  The tests that call
it directly compare exact values per agent, so they go through `relieve`:
it takes `AgentSpec`s, claims by agent id and (start, end, n_seg) cuts in
Fractions, scales them to one tick under which every cut is a whole number,
runs `_relieve` and writes the claims back as Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

from socd.mechanisms import _relieve


def relieve(newcomer, queue, remaining, cuts) -> None:
    """`_relieve` on exact values; `remaining` is updated in place.  The
    newcomer may be in `queue`; `_relieve` is handed the other members."""
    members = list(queue)
    values = [m.t_leave for m in members] + [remaining[m.id] for m in members]
    values += [t for start, end, _ in cuts for t in (start, end)]
    widest = max([len(members), *(n_seg for _, _, n_seg in cuts)])
    scale = math.lcm(*(Fraction(v).denominator for v in values))
    scale *= math.lcm(*range(1, widest + 1)) ** 2

    def tick(value) -> int:
        return int(Fraction(value) * scale)

    claims = [tick(remaining[m.id]) for m in members]
    _relieve(
        [k for k, m in enumerate(members) if m.id != newcomer.id],
        [tick(m.t_leave) for m in members],
        claims,
        [(tick(start), tick(end), n_seg) for start, end, n_seg in cuts],
    )
    for m, claim in zip(members, claims):
        remaining[m.id] = Fraction(claim, scale)
