"""Allocation mechanisms for convoy-style chore division.

Every mechanism is one convoy rule, run by one event loop (`_drive`):
members queue and the front one performs the shared chore.  Only the queue
order and the claim after which a member quits the front differ:

* payment transfer (`pt`): the first to depart leads and followers pay it
  per segment, so nobody ever rotates;
* repeated game (`rg`): the newest arrival takes the front and leads;
* single game (`sg`): every arrival claims a leading share and rotates to
  the back once it has led that long; `sg-da` also cuts the unfinished
  members' claims as newcomers arrive (`_relieve`).

`run_mechanism(kind, stream, params)` runs each of them.

The convoy's queue, finished members and remaining claims live only inside
`_drive`.  Mechanisms without a claim (pt, rg) take the departures and the
arrival at one instant as one step with one switch; sg and sg-da take two.
Nothing here segments the stream again: pt's ledger reads each realized
segment's members, and sg-da each arrival's ex-ante cut, as the sweep
recorded them.

Mechanisms take an agent stream or its `StreamShares` sweep and produce a
`MechanismOutcome`: schedule, share reports, any payment ledger and any
rotation charges, all exact.  A run has two layers.  Its tick core,
`_drive(kind, ticks, ids)`, is the same for every mechanism: the loop and
the claims, on the sweep's integer ticks, with no Fraction,
`ActivePeriod`, `SwitchEvent` or payment.  So a run depends only on the
mechanism and the sweep; u and c enter only in the outcome's values.
`MechanismOutcome(kind, shares, params)` runs the core once when it is
built and keeps its `_Run`.  Each face's exact values are kept as rows of
plain tuples, built from that run and the sweep's ticks on first read:
periods, switches, pt's ledger (one row per realized segment) and the
share reports.  The CLI writes those rows as they are; the public faces
(`schedule`, `ledger`, `reports`, `lead_shares`) are built from the same
rows on first read, so every value has one definition.  Net utilities
come from one tick formula (`_nets`): integer numerators over one
denominator, which `net_utilities` turns into Fractions.  The core and
`_nets` read only a sweep's ticks (`model._Ticks`) and the ids of its
stream positions, so callers that need no outcome, such as the highway
experiment, call them directly, with no `StreamShares`.

pt's ledger is kept per realized segment: one `Payment` holds the segment,
its leader (the payee), the followers who pay it and the one amount each
pays, so a game with n members in a segment stores one entry for it, not
n - 1.  A segment whose leader is alone has an entry with no payers.  The
payments settle each member at its ex-post sum: its net is u times its
lead less that sum, which is what `_nets` charges it under pt.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from numbers import Rational
from typing import Iterable, Mapping, NamedTuple, Sequence

from .model import (
    ActivePeriod,
    AgentId,
    AgentSpec,
    GameParams,
    Schedule,
    Segment,
    ShareReport,
    StreamShares,
    SwitchEvent,
    SwitchKind,
    _div,
    _Ticks,
    stream_shares,
)

__all__ = [
    "MechanismKind",
    "Payment",
    "Ledger",
    "MechanismOutcome",
    "run_mechanism",
    "net_utilities",
]


class MechanismKind(str, Enum):
    """The four mechanisms, by their CLI spelling; `run_mechanism` runs each.

    * `pt`: of two members departing together the earlier arrival leads; the
      leader changes only when it departs or a sooner-departing agent
      arrives, so switching is free.
    * `rg`: uneven shares within one game settle over repeated games, so
      nobody rotates and no payments change hands.
    * `sg`: each arrival claims its ex-ante sum (the agents present at an
      arrival are exactly those available then), and finished members ride
      behind unfinished ones.  At one instant the departures go first, then
      the arrival, then a rotation, so leavers never pay and an arrival in
      front of an exhausted leader pre-empts its rotation.
    * `sg-da`: as `sg`, and every arrival also cuts the unfinished members'
      remaining claims (`_relieve`).
    """

    PAYMENT_TRANSFER = "pt"
    REPEATED_GAME = "rg"
    SINGLE_GAME = "sg"
    SINGLE_GAME_DYNAMIC = "sg-da"


class Payment(NamedTuple):
    """One realized segment of a payment-transfer ledger: each of `payers`,
    in arrival order, pays `payee` the same `amount` for leading `segment`."""

    segment: Segment
    payee: AgentId
    payers: tuple[AgentId, ...]
    amount: Fraction


@dataclass(frozen=True)
class Ledger:
    """A payment-transfer game's ledger: one `Payment` per realized segment,
    in segment order, plus the per-agent net."""

    payments: tuple[Payment, ...]
    net: Mapping[AgentId, Fraction]


class _Run(NamedTuple):
    """A mechanism's outcome in the ticks of its sweep (`model._Ticks`).

    Members are stream positions.  `periods` holds (member, start, stop),
    `switches` (time, outgoing, incoming, kind, n_r), `led` each member's
    leading time and `rotated` the sum of n_r over its rotations, so a
    member rotated iff its entry is not 0.  Every mechanism's run has these
    four fields and nothing else: pt's payments are read off `periods` and
    the sweep by the outcome's ledger face.
    """

    periods: list[tuple[int, int, int]]
    switches: list[tuple[int, int, int, SwitchKind, int]]
    led: list[int]
    rotated: list[int]


# The cost of a switch that is not a rotation: a Fraction, as every cost is.
_FREE = Fraction(0)


@dataclass(frozen=True)
class MechanismOutcome:
    """What mechanism `kind` (or its CLI spelling) produces on a stream or
    its sweep (`shares`, resolved by `stream_shares`) at `params`.

    Building it runs the tick core once (`_drive`).  Its exact values are
    rows built from that run on first read, once each: `_period_rows`
    (agent, start, stop), `_switch_rows` (time, outgoing, incoming, kind
    value, n_r, cost; a rotation costs c * n_r), pt's `_payment_rows`
    (start, end, payee, payers, amount per realized segment; None
    otherwise) and `_report_rows` (agent, assigned, ex_ante, ex_post, the
    shares with the c/u allowance).  The faces are built from those rows on
    first read, once each: `schedule`, pt's `ledger` (None otherwise),
    `reports`, `lead_shares`, the realized leading times, and
    `rotation_costs`.  Two outcomes are equal when their kind, sweep and
    params are, and `dataclasses.replace` runs the mechanism again.
    """

    kind: MechanismKind
    shares: StreamShares
    params: GameParams = GameParams()
    _run: _Run = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kind, shares = MechanismKind(self.kind), stream_shares(self.shares)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "shares", shares)
        ids = [a.id for a in shares.stream]
        object.__setattr__(self, "_run", _drive(kind, shares._ticks, ids))

    @cached_property
    def _period_rows(self) -> list[tuple[AgentId, Fraction, Fraction]]:
        # arrival and departure instants reuse the stream's Fractions
        ids, time = [a.id for a in self.shares.stream], self.shares._time
        return [(ids[k], time(b), time(e)) for k, b, e in self._run.periods]

    @cached_property
    def _switch_rows(self) -> list[tuple[Fraction, AgentId, AgentId, str, int, Fraction]]:
        ids, time, c = [a.id for a in self.shares.stream], self.shares._time, self.params.c
        rotation = SwitchKind.ROTATION
        return [(time(at), ids[out], ids[into], switch.value, n_r,
                 c * n_r if switch is rotation else _FREE)
                for at, out, into, switch, n_r in self._run.switches]

    @cached_property
    def _payment_rows(
        self,
    ) -> list[tuple[Fraction, Fraction, AgentId, tuple[AgentId, ...], Fraction]] | None:
        # in every realized segment each follower pays the leader
        # |seg| * u / n_seg, so a member's net is u * (lead - ex-post sum)
        if self.kind is not MechanismKind.PAYMENT_TRANSFER:
            return None
        ticks, time, u = self.shares._ticks, self.shares._time, self.params.u
        ids = [a.id for a in self.shares.stream]
        money = ticks.scale * u.denominator  # ledger unit: 1/(scale * u.den)
        rows = []
        periods = iter(self._run.periods)
        leader, _, stop = next(periods)
        for (begin, end), members in zip(ticks.bounds, ticks.members):
            while stop <= begin:  # the leader changes only at a segment start
                leader, _, stop = next(periods)
            pay = _div((end - begin) * u.numerator, len(members))
            payers = tuple(ids[k] for k in members if k != leader)
            rows.append((time(begin), time(end), ids[leader], payers, Fraction(pay, money)))
        return rows

    @cached_property
    def _report_rows(self) -> list[tuple[AgentId, Fraction, Fraction, Fraction]]:
        # the allowance-shifted shares are the sweep's, shared by the
        # outcomes of one game
        scale = self.shares._ticks.scale
        ante, post = self.shares._plus(self.params.c / self.params.u)
        return [(a.id, Fraction(led, scale), x, y)
                for a, led, x, y in zip(self.shares.stream, self._run.led, ante, post)]

    @cached_property
    def _net_ticks(self) -> tuple[list[int], int]:
        """`_nets` of this run: numerators over one common denominator."""
        return _nets(self.kind, self.shares._ticks, self._run, self.params.u, self.params.c)

    @cached_property
    def schedule(self) -> Schedule:
        return Schedule(
            tuple(ActivePeriod(*row) for row in self._period_rows),
            tuple(SwitchEvent(at, out, into, SwitchKind(switch), n_r, cost)
                  for at, out, into, switch, n_r, cost in self._switch_rows),
        )

    @cached_property
    def ledger(self) -> Ledger | None:
        rows = self._payment_rows
        if rows is None:
            return None
        # each row is a segment of the sweep, whose own `Segment` it names
        payments = tuple(Payment(seg, payee, payers, amount)
                         for seg, (_, _, payee, payers, amount)
                         in zip(self.shares.segments, rows))
        ticks, u = self.shares._ticks, self.params.u
        money = ticks.scale * u.denominator
        net = {a.id: Fraction(u.numerator * (led - ex), money)
               for a, led, ex in zip(self.shares.stream, self._run.led, ticks.ex_post)}
        return Ledger(payments, net)

    @cached_property
    def lead_shares(self) -> Mapping[AgentId, Fraction]:
        return {agent: assigned for agent, assigned, _, _ in self._report_rows}

    @cached_property
    def rotation_costs(self) -> Mapping[AgentId, Fraction]:
        c = self.params.c
        return {a.id: c * r for a, r in zip(self.shares.stream, self._run.rotated) if r}

    @cached_property
    def reports(self) -> tuple[ShareReport, ...]:
        return tuple(ShareReport(*row) for row in self._report_rows)


_DEPART, _ARRIVE, _ROTATE = range(3)  # priority at equal instants


def _drive(kind: MechanismKind, ticks: _Ticks, ids: Sequence[AgentId]) -> _Run:
    """The tick core of every mechanism: run `kind`'s convoy over a
    sweep's events.

    At one instant the departures go first, then the arrival, then any due
    rotation.  The queue's front member leads; once every member has
    rotated, the first finished one leads on.  A rotation switch records
    n_r, the queued and finished members; other switches are free.  The
    next departure is a pointer into the stream sorted by departure: an
    agent that has not arrived yet is never next, because its arrival comes
    first.  Members are stream positions, named by `ids` in errors, and
    times are ticks.
    """
    # rg's arrivals take the front; the others queue by (t_leave, t_arrive).
    # sg and sg-da claim: a member rotates behind the queue once it has led
    # its ex-ante share.  Without a claim (pt, rg) nobody rotates, and the
    # departures and the arrival at one instant are one step with one
    # switch.  sg-da's arrivals also cut the unfinished members' claims.
    newest_first = kind is MechanismKind.REPEATED_GAME
    adjust = kind is MechanismKind.SINGLE_GAME_DYNAMIC
    claims = adjust or kind is MechanismKind.SINGLE_GAME
    arrive, leave, by_leave = ticks.arrive, ticks.leave, ticks.by_leave
    n = len(arrive)
    queue: list[int] = []  # unfinished members in the mechanism's order
    finished: list[int] = []  # members that rotated, in rotation order
    remaining = list(ticks.ex_ante)  # leading time each member still owes
    periods: list[tuple[int, int, int]] = []
    switches: list[tuple[int, int, int, SwitchKind, int]] = []
    led, rotated = [0] * n, [0] * n
    i = j = 0  # next arrival in `stream`, next departure in `by_leave`
    t = start = arrive[0]  # last event, start of the open period

    while j < n:
        t_next, action = leave[by_leave[j]], _DEPART
        if i < n and arrive[i] < t_next:
            t_next, action = arrive[i], _ARRIVE
        if claims and queue:
            front = queue[0]
            if t + remaining[front] < t_next:
                t_next, action = t + remaining[front], _ROTATE
            remaining[front] -= t_next - t
            if remaining[front] < 0:
                raise RuntimeError(
                    f"leader {ids[front]!r} led past its remaining share"
                )

        pre = queue[0] if queue else finished[0] if finished else None
        if action == _DEPART:
            first = j
            while j < n and leave[by_leave[j]] == t_next:
                j += 1
            gone = set(by_leave[first:j])
            queue[:] = [m for m in queue if m not in gone]
            finished[:] = [m for m in finished if m not in gone]
            # an emptied convoy re-forming at once is one handover either way
            merge = not claims or not (queue or finished)
            if merge and i < n and arrive[i] == t_next:
                action = _ARRIVE
        if action == _ARRIVE:
            joined = i
            i += 1
            if adjust:
                _relieve(queue, leave, remaining, ticks.cuts[joined])
            if newest_first:
                queue.insert(0, joined)
            else:  # by departure, then arrival
                bisect.insort(queue, joined, key=lambda m: (leave[m], m))
        elif action == _ROTATE:
            rotator = queue.pop(0)
            if remaining[rotator] != 0:
                raise RuntimeError(
                    f"{ids[rotator]!r} rotated with "
                    f"{Fraction(remaining[rotator], ticks.scale)} still to lead"
                )
            finished.append(rotator)

        post = queue[0] if queue else finished[0] if finished else None
        if post != pre:
            if pre is not None and t_next > start:
                periods.append((pre, start, t_next))
                led[pre] += t_next - start
            if pre is not None and post is not None:
                n_r = len(queue) + len(finished)
                if leave[pre] == t_next:
                    switch = SwitchKind.LEADER_LEAVE
                elif action == _ROTATE:
                    switch = SwitchKind.ROTATION
                    rotated[pre] += n_r  # each rotator pays for its rotations
                elif arrive[post] == t_next:
                    switch = SwitchKind.FRONT_JOIN
                else:
                    raise RuntimeError("leader changed without a matching event")
                switches.append((t_next, pre, post, switch, n_r))
            start = t_next
        t = t_next

    return _Run(periods, switches, led, rotated)


def _relieve(
    queue: Sequence[int],
    leave: Sequence[int],
    remaining: list[int],
    cuts: Sequence[tuple[int, int, int]],
) -> None:
    """Dynamic adjustment: cut the unfinished members' `remaining` in place.

    Members are stream positions, `leave` their departures and `remaining`
    their claims, all in ticks.  `queue` holds the unfinished members a
    newcomer finds, and `cuts` is the newcomer's ex-ante cut as the sweep
    recorded it at the arrival (`model._Ticks.cuts`).  The share the
    newcomer absorbs in each (start, end, n_seg) segment of it,
    (end - start) / n_seg, is split evenly among the `queue` members still
    available after `start`, clamped at zero.  The tick scale makes each
    split a whole number of ticks: n_seg and the pool size are both at most
    the peak number present.

    Clamps compose (max(0, max(0, x - a) - b) = max(0, x - a - b) for
    a, b >= 0), so each member is cut once by the sum of its pools' cuts.
    `queue` is ordered by departure, so each segment's pool is a suffix of
    it: the cut is added where that suffix starts and summed in one walk,
    O(segments + pool) instead of O(segments * pool).
    """
    departures = [leave[m] for m in queue]
    steps = [0] * len(queue)  # cut that starts at each queue index
    for start, end, n_seg in cuts:
        first = bisect.bisect_right(departures, start)  # departs after `start`
        if first < len(queue):
            steps[first] += _div(end - start, n_seg * (len(queue) - first))
    for m, cut in zip(queue, accumulate(steps)):
        if cut:
            remaining[m] = max(0, remaining[m] - cut)


def run_mechanism(
    kind: MechanismKind | str,
    agents: Iterable[AgentSpec] | StreamShares,
    params: GameParams = GameParams(),
) -> MechanismOutcome:
    """Run mechanism `kind` (accepts the CLI spellings) on a stream or its
    sweep: `MechanismOutcome(kind, agents, params)`."""
    return MechanismOutcome(kind, agents, params)


def _nets(
    kind: MechanismKind, ticks: _Ticks, run: _Run, u: Rational, c: Rational
) -> tuple[list[int], int]:
    """Each member's net utility as an integer numerator over one common
    denominator, returned with it: the tick scale times the denominators of
    u and of c.  A member gets u per tick of its window it does not bear,
    less c per unit of n_r.  It bears its lead, or under pt its ex-post
    sum, where pt's payments settle it.  Members are stream positions."""
    den = ticks.scale * u.denominator * c.denominator
    bear_w = u.numerator * c.denominator  # per tick of the window not borne
    rotated_w = c.numerator * ticks.scale * u.denominator  # per unit of n_r
    borne = ticks.ex_post if kind is MechanismKind.PAYMENT_TRANSFER else run.led
    return [
        bear_w * (leave - arrive - bear) - rotated_w * rotated
        for arrive, leave, bear, rotated in zip(
            ticks.arrive, ticks.leave, borne, run.rotated
        )
    ], den


def net_utilities(outcome: MechanismOutcome) -> dict[AgentId, Fraction]:
    """Per-agent net utility: u per unit of availability not spent leading,
    plus net payments received, minus rotation charges paid.

    Reads the outcome's own stream (`outcome.shares`) and `outcome.params`,
    and sums each utility in integers over one common denominator (`_nets`).
    """
    nets, den = outcome._net_ticks
    return {a.id: Fraction(net, den) for a, net in zip(outcome.shares.stream, nets)}
