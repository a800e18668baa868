"""Allocation mechanisms for convoy-style chore division.

Every mechanism is one convoy rule, run by one event loop (`_drive`):
members queue and the front one performs the shared chore.  Only the queue
order and the claim after which a member leaves the front differ:

* payment transfer (`pt_run`): the first to depart leads and followers pay
  it per segment, so nobody ever rotates;
* repeated game (`rg_run`): the newest arrival takes the front and leads;
* single game (`sg_run`): every arrival claims a leading share and rotates
  to the back once it has led that long, optionally with the unfinished
  members' claims cut as newcomers arrive (`_relieve`).

The convoy's queue, finished members and remaining claims live only inside
`_drive`.  Mechanisms without a claim (pt, rg) take the departures and the
arrival at one instant as one step with one switch; sg and sg-da take two.

Mechanisms take an agent stream or its `StreamShares` sweep and produce a
`MechanismOutcome`: schedule, share reports, any payment ledger and any
rotation charges, all exact.  A run has two layers.  Its tick core
(`_core`: the loop, the claims, pt's payments) works on the sweep's integer
ticks and builds no Fraction, `ActivePeriod` or `SwitchEvent`; `_outcome`
then builds the `MechanismOutcome` and its Fractions, once, from the core's
`_Run`.  Net utilities come from one tick formula (`_nets`): integer
numerators over one denominator, which `net_utilities` turns into Fractions.
Callers that need no outcome, such as the highway experiment, read `_core`
and `_nets` directly.

pt's ledger is kept per realized segment: one `Payment` holds the segment,
its leader (the payee), the followers who pay it and the one amount each
pays.  `Ledger.transfers`, one `Transfer` per payer, is built from those
entries on first read, so a game with n members in a segment stores one
entry for it, not n - 1 transfers.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from operator import attrgetter
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
    _ante_cut,
    _div,
    stream_shares,
)

__all__ = [
    "MechanismKind",
    "Transfer",
    "Payment",
    "Ledger",
    "MechanismOutcome",
    "pt_run",
    "rg_run",
    "sg_run",
    "run_mechanism",
    "net_utilities",
]


class MechanismKind(str, Enum):
    PAYMENT_TRANSFER = "pt"
    REPEATED_GAME = "rg"
    SINGLE_GAME = "sg"
    SINGLE_GAME_DYNAMIC = "sg-da"


@dataclass(frozen=True)
class Transfer:
    """One side payment: `payer` compensates `payee` for leading `segment`."""

    segment: Segment
    payer: AgentId
    payee: AgentId
    amount: Fraction


class Payment(NamedTuple):
    """One realized segment of a payment-transfer ledger: each of `payers`,
    in arrival order, pays `payee` the same `amount` for leading `segment`."""

    segment: Segment
    payee: AgentId
    payers: tuple[AgentId, ...]
    amount: Fraction


class Ledger:
    """All transfers of a payment-transfer game plus the per-agent net.

    pt keeps its ledger per realized segment, in segment order (`payments`,
    given as `Ledger(None, net, payments=...)`), and builds `transfers`, one
    per payer of each entry, on first read.  A ledger made from its
    transfers, `Ledger(transfers, net)`, groups each run of transfers with
    one segment, payee and amount into an entry when `payments` is first
    read.  Two ledgers are equal when their transfers, in order, and their
    nets are.
    """

    def __init__(
        self,
        transfers: Iterable[Transfer] | None,
        net: Mapping[AgentId, Fraction],
        *,
        payments: Iterable[Payment] | None = None,
    ) -> None:
        if (transfers is None) == (payments is None):
            raise TypeError("a ledger takes either its transfers or its payments")
        if payments is None:
            self.transfers = tuple(transfers)
        else:
            self.payments = tuple(payments)
        self.net = net

    @cached_property
    def transfers(self) -> tuple[Transfer, ...]:
        return tuple(Transfer(p.segment, payer, p.payee, p.amount)
                     for p in self.payments for payer in p.payers)

    @cached_property
    def payments(self) -> tuple[Payment, ...]:
        runs = groupby(self.transfers, attrgetter("segment", "payee", "amount"))
        return tuple(Payment(segment, payee, tuple(t.payer for t in run), amount)
                     for (segment, payee, amount), run in runs)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.transfers == other.transfers and self.net == other.net

    def __repr__(self) -> str:
        return f"Ledger(transfers={self.transfers!r}, net={self.net!r})"


class _Run(NamedTuple):
    """A mechanism's outcome in the ticks of its sweep (`model._Ticks`).

    Members are stream positions.  `periods` holds (member, start, stop),
    `switches` (time, outgoing, incoming, kind, n_r), `led` each member's
    leading time and `rotated` the sum of n_r over its rotations, so a
    member rotated iff its entry is not 0.  For pt, `payments` holds
    (payee, payers, pay) per realized segment, in order, each payer paying
    `pay`, and `paid` each member's net; both are in units of
    1/(scale * u.denominator), and None for the other mechanisms.
    """

    periods: list[tuple[int, int, int]]
    switches: list[tuple[int, int, int, SwitchKind, int]]
    led: list[int]
    rotated: list[int]
    payments: list[tuple[int, list[int], int]] | None = None
    paid: list[int] | None = None


@dataclass(frozen=True)
class MechanismOutcome:
    """What a mechanism produced: schedule, payments, rotation charges.

    `lead_shares` is the realized per-agent leading time; `reports` adds the
    ex-ante/ex-post comparison from the stream's sweep `shares` and is
    computed on first access, since the experiment pipelines only consume
    the raw shares.
    """

    kind: MechanismKind
    schedule: Schedule
    ledger: Ledger | None
    rotation_costs: Mapping[AgentId, Fraction]
    shares: StreamShares
    params: GameParams
    lead_shares: Mapping[AgentId, Fraction]
    _run: _Run | None = field(default=None, repr=False, compare=False)

    def assigned(self) -> dict[AgentId, Fraction]:
        return dict(self.lead_shares)

    @cached_property
    def reports(self) -> tuple[ShareReport, ...]:
        allowance = self.params.c / self.params.u
        return tuple(
            ShareReport(
                agent=a.id,
                assigned=self.lead_shares[a.id],
                ex_ante=self.shares.ex_ante[a.id] + allowance,
                ex_post=self.shares.ex_post[a.id] + allowance,
            )
            for a in self.shares.stream
        )


@dataclass(frozen=True)
class _Policy:
    """What sets one mechanism apart; `_drive` runs everything else.

    Arrivals join the queue in front (`newest_first`) or in
    (t_leave, t_arrive) order.  With `claims`, a member rotates behind the
    queue once it has led its ex-ante share; without, nobody rotates, and
    the departures and the arrival at one instant are one step with one
    switch.  `adjust` lets each arrival cut the unfinished members' claims.
    """

    newest_first: bool = False
    claims: bool = False
    adjust: bool = False


_POLICIES = {
    MechanismKind.PAYMENT_TRANSFER: _Policy(),
    MechanismKind.REPEATED_GAME: _Policy(newest_first=True),
    MechanismKind.SINGLE_GAME: _Policy(claims=True),
    MechanismKind.SINGLE_GAME_DYNAMIC: _Policy(claims=True, adjust=True),
}

_DEPART, _ARRIVE, _ROTATE = range(3)  # priority at equal instants


def _drive(shares: StreamShares, policy: _Policy) -> _Run:
    """Run the convoy over the stream's events; the run has no ledger.

    At one instant the departures go first, then the arrival, then any due
    rotation.  The queue's front member leads; once every member has
    rotated, the first finished one leads on.  A rotation switch records
    n_r, the queued and finished members; other switches are free.  The
    next departure is a pointer into the stream sorted by departure: an
    agent that has not arrived yet is never next, because its arrival comes
    first.  Members are stream positions and times are ticks.
    """
    ticks = shares._ticks
    arrive, leave, by_leave = ticks.arrive, ticks.leave, ticks.by_leave
    n = len(arrive)
    queue: list[int] = []  # unfinished members in the mechanism's order
    finished: list[int] = []  # members that rotated, in rotation order
    remaining = list(ticks.ex_ante)  # leading time each member still owes
    leaves: list[int] = []  # the members' departures, ascending; kept for `adjust`
    periods: list[tuple[int, int, int]] = []
    switches: list[tuple[int, int, int, SwitchKind, int]] = []
    led, rotated = [0] * n, [0] * n
    i = j = 0  # next arrival in `stream`, next departure in `by_leave`
    t = start = arrive[0]  # last event, start of the open period

    while j < n:
        t_next, action = leave[by_leave[j]], _DEPART
        if i < n and arrive[i] < t_next:
            t_next, action = arrive[i], _ARRIVE
        if policy.claims and queue:
            front = queue[0]
            if t + remaining[front] < t_next:
                t_next, action = t + remaining[front], _ROTATE
            remaining[front] -= t_next - t
            if remaining[front] < 0:
                raise RuntimeError(
                    f"leader {shares.stream[front].id!r} led past its remaining share"
                )

        pre = queue[0] if queue else finished[0] if finished else None
        if action == _DEPART:
            first = j
            while j < n and leave[by_leave[j]] == t_next:
                j += 1
            gone = set(by_leave[first:j])
            queue[:] = [m for m in queue if m not in gone]
            finished[:] = [m for m in finished if m not in gone]
            del leaves[: j - first]  # the earliest departures; a no-op unless `adjust`
            # an emptied convoy re-forming at once is one handover either way
            merge = not policy.claims or not (queue or finished)
            if merge and i < n and arrive[i] == t_next:
                action = _ARRIVE
        if action == _ARRIVE:
            joined = i
            i += 1
            if policy.newest_first:
                queue.insert(0, joined)
            else:  # by departure, then arrival
                bisect.insort(queue, joined, key=lambda m: (leave[m], m))
            if policy.adjust:
                bisect.insort(leaves, leave[joined])
                cuts = _ante_cut(t_next, leave[joined], leaves)
                _relieve(joined, queue, leave, remaining,
                         [(s, e, len(leaves) - k) for s, e, k in cuts])
        elif action == _ROTATE:
            rotator = queue.pop(0)
            if remaining[rotator] != 0:
                raise RuntimeError(
                    f"{shares.stream[rotator].id!r} rotated with "
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
                    kind = SwitchKind.LEADER_LEAVE
                elif action == _ROTATE:
                    kind = SwitchKind.ROTATION
                    rotated[pre] += n_r  # each rotator pays for its rotations
                elif arrive[post] == t_next:
                    kind = SwitchKind.FRONT_JOIN
                else:
                    raise RuntimeError("leader changed without a matching event")
                switches.append((t_next, pre, post, kind, n_r))
            start = t_next
        t = t_next

    return _Run(periods, switches, led, rotated)


def _settle(shares: StreamShares, run: _Run, u: Fraction) -> _Run:
    """pt's ledger on the run: in every realized segment each follower
    pays the leader |seg| * u / n_seg, in units of 1/(scale * u.denominator).
    Payers are listed in arrival order.  So a member's net is u times its
    lead less its ex-post sum: it is paid |seg| * u for each segment it
    leads and pays its share of each segment it is in."""
    payments = []
    periods = iter(run.periods)
    leader, _, stop = next(periods)
    for (begin, end), members in zip(shares._ticks.bounds, shares._members):
        while stop <= begin:  # the leader changes only at a segment start
            leader, _, stop = next(periods)
        pay = _div((end - begin) * u.numerator, len(members))
        payments.append((leader, [k for k in members if k != leader], pay))
    paid = [u.numerator * (led - ex) for led, ex in zip(run.led, shares._ticks.ex_post)]
    return run._replace(payments=payments, paid=paid)


def _core(kind: MechanismKind, shares: StreamShares, u: Fraction) -> _Run:
    """The tick core of mechanism `kind` on a sweep: its convoy run, with
    the ledger for pt."""
    run = _drive(shares, _POLICIES[kind])
    return _settle(shares, run, u) if kind is MechanismKind.PAYMENT_TRANSFER else run


def _outcome(
    kind: MechanismKind, shares: StreamShares, params: GameParams, run: _Run
) -> MechanismOutcome:
    """The exact outcome of a tick run: the only place a mechanism builds
    periods, switches, pt's per-segment ledger entries and their Fractions.
    A rotation costs c * n_r; arrival and departure instants reuse the
    stream's Fractions."""
    ticks, c = shares._ticks, params.c
    ids, time = [a.id for a in shares.stream], ticks.time
    schedule = Schedule(
        tuple(ActivePeriod(ids[k], time(b), time(e)) for k, b, e in run.periods),
        tuple(
            SwitchEvent(time(at), ids[out], ids[into], switch, n_r,
                        c * n_r if switch is SwitchKind.ROTATION else 0)
            for at, out, into, switch, n_r in run.switches
        ),
    )
    ledger = None
    if run.paid is not None:
        money = ticks.scale * params.u.denominator
        payments = tuple(
            Payment(seg, ids[payee], tuple(ids[k] for k in payers), Fraction(pay, money))
            for seg, (payee, payers, pay) in zip(shares.segments, run.payments)
        )
        net = {ids[k]: Fraction(p, money) for k, p in enumerate(run.paid)}
        ledger = Ledger(None, net, payments=payments)
    lead_shares = {ids[k]: Fraction(led, ticks.scale) for k, led in enumerate(run.led)}
    rotation_costs = {ids[k]: c * r for k, r in enumerate(run.rotated) if r}
    return MechanismOutcome(
        kind, schedule, ledger, rotation_costs, shares, params, lead_shares, run
    )


def pt_run(
    agents: Iterable[AgentSpec] | StreamShares, params: GameParams = GameParams()
) -> MechanismOutcome:
    """Payment-transfer mechanism.

    The available agent with the earliest departure time leads (ties broken
    by earlier arrival), and in every segment each follower pays the leader
    |seg| * u / n_seg.  The leader only changes when it departs or when a
    sooner-departing agent arrives, so the schedule contains no rotations
    and switching is free.
    """
    return run_mechanism(MechanismKind.PAYMENT_TRANSFER, agents, params)


def rg_run(
    agents: Iterable[AgentSpec] | StreamShares, params: GameParams = GameParams()
) -> MechanismOutcome:
    """Repeated-game load balancing.

    Every arrival joins at the front of the convoy and leads immediately;
    when the leader departs, the previous front agent resumes.  Uneven
    shares within one game are accepted and settle over repeated games, so
    no agent ever rotates and no payments change hands.
    """
    return run_mechanism(MechanismKind.REPEATED_GAME, agents, params)


def _relieve(
    newcomer: int,
    queue: Sequence[int],
    leave: Sequence[int],
    remaining: list[int],
    cuts: Sequence[tuple[int, int, int]],
) -> None:
    """Dynamic adjustment: cut the unfinished members' `remaining` in place.

    Members are stream positions, `leave` their departures and `remaining`
    their claims, all in ticks.  The share the newcomer absorbs in each
    (start, end, n_seg) cut of its ex-ante decomposition,
    (end - start) / n_seg, is split evenly among the other `queue` members
    still available after `start`, clamped at zero.  The tick scale makes
    each split a whole number of ticks: n_seg and the pool size are both at
    most the peak number present.

    Clamps compose (max(0, max(0, x - a) - b) = max(0, x - a - b) for
    a, b >= 0), so each member is cut once by the sum of its pools' cuts.
    `queue` is ordered by departure, so each segment's pool is a suffix of
    it: the cut is added where that suffix starts and summed in one walk,
    O(segments + pool) instead of O(segments * pool).
    """
    pool = [m for m in queue if m != newcomer]
    leaves = [leave[m] for m in pool]
    steps = [0] * len(pool)  # cut that starts at each pool index
    for start, end, n_seg in cuts:
        first = bisect.bisect_right(leaves, start)  # leaves after `start`
        if first < len(pool):
            steps[first] += _div(end - start, n_seg * (len(pool) - first))
    cut = 0
    for m, step in zip(pool, steps):
        cut += step
        if cut:
            remaining[m] = max(0, remaining[m] - cut)


def sg_run(
    agents: Iterable[AgentSpec] | StreamShares,
    params: GameParams = GameParams(),
    dynamic_adjust: bool = False,
) -> MechanismOutcome:
    """Single-game load balancing, optionally with dynamic adjustment.

    Each arrival claims a remaining leading share equal to its ex-ante
    proportional segment sum over the agents present, which are exactly
    those available then, so the claim is the sweep's ex-ante sum.
    Unfinished members ride in front of finished ones, ordered by departure
    time, and the front agent leads until it departs, until a
    sooner-departing agent arrives in front of it, or until its remaining
    share reaches zero, at which point it rotates to the back and pays
    c * n_r.  With `dynamic_adjust`, every arrival also cuts the unfinished
    members' remaining shares (`_relieve`).  Departures, an arrival and a
    rotation at one instant are three steps in that order, so leaving
    agents never pay and an arrival in front of an exhausted leader
    pre-empts its rotation.
    """
    return run_mechanism("sg-da" if dynamic_adjust else "sg", agents, params)


def run_mechanism(
    kind: MechanismKind | str,
    agents: Iterable[AgentSpec] | StreamShares,
    params: GameParams = GameParams(),
) -> MechanismOutcome:
    """Run mechanism `kind` (accepts the CLI spellings) on a stream or its sweep."""
    kind, shares = MechanismKind(kind), stream_shares(agents)
    return _outcome(kind, shares, params, _core(kind, shares, params.u))


def _nets(shares: StreamShares, run: _Run, params: GameParams) -> tuple[list[int], int]:
    """Each member's net utility as an integer numerator over one common
    denominator, returned with it: the tick scale times the denominators of
    u and of c.  Members are stream positions."""
    ticks, u, c = shares._ticks, params.u, params.c
    den = ticks.scale * u.denominator * c.denominator
    lead_w = u.numerator * c.denominator  # per tick not spent leading
    paid_w = c.denominator  # per ledger unit, 1/(scale * u.denominator)
    rotated_w = c.numerator * ticks.scale * u.denominator  # per unit of n_r
    paid = [0] * len(run.led) if run.paid is None else run.paid
    return [
        lead_w * (leave - arrive - led) + paid_w * net - rotated_w * rotated
        for arrive, leave, led, net, rotated in zip(
            ticks.arrive, ticks.leave, run.led, paid, run.rotated
        )
    ], den


def net_utilities(outcome: MechanismOutcome) -> dict[AgentId, Fraction]:
    """Per-agent net utility: u per unit of availability not spent leading,
    plus net transfers received, minus rotation charges paid.

    Reads the outcome's own stream (`outcome.shares`) and `outcome.params`,
    and sums each utility in integers over one common denominator (`_nets`).
    """
    nets, den = _nets(outcome.shares, outcome._run, outcome.params)
    return {a.id: Fraction(net, den) for a, net in zip(outcome.shares.stream, nets)}
