"""The two passes that re-derived what the sweep now records, kept as oracles.

`socd.model._sweep` records each realized segment's members and each
arrival's ex-ante cut as it walks.  Before, two derived passes found them
again from the sweep's ticks:

* `members(ticks)`: each realized segment's members, rebuilt with a bisect
  per agent over the segment starts;
* `recut(ticks)`: each arrival's ex-ante cut, re-walked over the sorted
  departures of the agents present, as the convoy loop did for sg-da.

Both read only `arrive`, `leave` and `bounds` of a `model._Ticks`.
"""

from __future__ import annotations

import bisect

from socd.model import _ante_cut


def members(ticks) -> list[list[int]]:
    """Each realized segment's members: stream positions, in arrival order."""
    starts = [start for start, _ in ticks.bounds]
    found: list[list[int]] = [[] for _ in starts]
    for k, (arrive, leave) in enumerate(zip(ticks.arrive, ticks.leave)):
        # every instant cuts: k is in the segments that start in [arrive, leave)
        for s in range(bisect.bisect_left(starts, arrive),
                       bisect.bisect_left(starts, leave)):
            found[s].append(k)
    return found


def recut(ticks) -> list[list[tuple[int, int, int]]]:
    """Each arrival's ex-ante cut, (start, end, n_seg) per segment.

    The departures of the agents present are kept sorted: those at or
    before an arrival are the earliest and go first, then the newcomer's is
    inserted and its window walked over them.
    """
    leaves: list[int] = []
    cuts = []
    for t, leave in zip(ticks.arrive, ticks.leave):
        while leaves and leaves[0] <= t:
            del leaves[0]
        bisect.insort(leaves, leave)
        cuts.append([(s, e, len(leaves) - i) for s, e, i in _ante_cut(t, leave, leaves)])
    return cuts
