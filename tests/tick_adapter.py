"""`mechanisms._relieve` spoken to in AgentSpecs and Fractions.

`_relieve` runs on stream positions and integer ticks.  The tests that call
it directly, or stand the per-segment oracle in for it, compare exact
values per agent, so they go through these two adapters:

* `relieve(newcomer, queue, remaining, cuts)` takes `AgentSpec`s, claims by
  agent id and (start, end, n_seg) cuts in Fractions, scales them to one
  tick under which every cut is a whole number, runs `_relieve` and writes
  the claims back as Fractions;
* `on_ticks(adjust)` turns an adjustment with that signature into one that
  `_drive` can call in place of `_relieve`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from socd import AgentSpec
from socd.mechanisms import _relieve


def relieve(newcomer, queue, remaining, cuts) -> None:
    """`_relieve` on exact values; `remaining` is updated in place."""
    members = list(queue)
    values = [m.t_leave for m in members] + [remaining[m.id] for m in members]
    values += [t for start, end, _ in cuts for t in (start, end)]
    widest = max([len(members), *(n_seg for _, _, n_seg in cuts)])
    scale = math.lcm(*(Fraction(v).denominator for v in values))
    scale *= math.lcm(*range(1, widest + 1)) ** 2

    def tick(value) -> int:
        return int(Fraction(value) * scale)

    position = {m.id: k for k, m in enumerate(members)}
    claims = [tick(remaining[m.id]) for m in members]
    _relieve(
        position.get(newcomer.id, -1),
        range(len(members)),
        [tick(m.t_leave) for m in members],
        claims,
        [(tick(start), tick(end), n_seg) for start, end, n_seg in cuts],
    )
    for m, claim in zip(members, claims):
        remaining[m.id] = Fraction(claim, scale)


def on_ticks(adjust):
    """`adjust(newcomer, queue, remaining, cuts)` over AgentSpecs and
    Fractions, as a `_relieve` over positions and ticks.

    Each member becomes an `AgentSpec` whose id is its position and whose
    t_leave is its departure tick; an adjustment reads no arrival, so each
    arrives one tick before it leaves.  The claims must come back whole.
    """

    def relieve_ticks(newcomer, queue, leave, remaining, cuts) -> None:
        agents = {m: AgentSpec(m, leave[m] - 1, leave[m]) for m in {*queue, newcomer}}
        claims = {m: Fraction(remaining[m]) for m in queue}
        adjust(
            agents[newcomer],
            [agents[m] for m in queue],
            claims,
            [(Fraction(start), Fraction(end), n_seg) for start, end, n_seg in cuts],
        )
        for m, claim in claims.items():
            if claim.denominator != 1:
                raise ValueError(f"claim {claim} of member {m} is not whole ticks")
            remaining[m] = claim.numerator

    return relieve_ticks
