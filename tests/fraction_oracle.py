"""The exact core as it ran on Fractions, before integer ticks.

`stream_shares` sweeps a stream with every time, share and claim a
`Fraction`; `_drive`, `_relieve` and the mechanisms on top of it run the
convoy loop, the sg-da adjustment, the pt payments and the net utilities in
Fractions too.  `socd.model.stream_shares` and `socd.mechanisms` now run
the same rules on integer ticks and build Fractions only for their outputs.
This copy is kept only as the test oracle they are checked against.  Its
sweeps are `Sweep`s, which carry no tick view, so they are for this
module's functions only.  Its mechanisms return `mechanism_oracle.Outcome`
records, whose `shares` is such a `Sweep`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from socd import (
    ActivePeriod,
    AgentSpec,
    GameParams,
    Ledger,
    MechanismKind,
    Payment,
    Schedule,
    Segment,
    SwitchEvent,
    SwitchKind,
    validate_stream,
)
from socd.model import AgentId, Time, _ante_cut
from mechanism_oracle import Outcome


class Sweep(NamedTuple):
    """A Fraction sweep: the fields `socd.StreamShares` reads off its ticks."""

    stream: tuple[AgentSpec, ...]
    segments: tuple[Segment, ...]
    ex_ante: Mapping[AgentId, Fraction]
    ex_post: Mapping[AgentId, Fraction]


def stream_shares(agents: Iterable[AgentSpec] | Sweep) -> Sweep:
    """One event sweep: realized segments, ex-ante and ex-post segment sums.

    Validates the stream once and walks its arrival and departure instants
    in time order, departures first at equal instants.  A running prefix
    cum(t) of |seg|/n_seg gives each ex-post sum as
    cum(t_leave) - cum(t_arrive).  The departures of the present agents are
    kept sorted, so each ex-ante sum is one walk over them at the arrival.

    A `Sweep` is returned as it is, neither re-validated nor swept
    again.  Every function that takes an agent stream resolves it through
    here, so a caller that sweeps once can pass the sweep everywhere.
    """
    if isinstance(agents, Sweep):
        return agents
    stream = validate_stream(agents)
    by_leave = sorted(stream, key=lambda a: a.t_leave)
    times = sorted({t for a in stream for t in (a.t_arrive, a.t_leave)})

    present: set[AgentId] = set()
    leaves: list[Time] = []  # departures of the present agents, ascending
    segments: list[Segment] = []
    ex_ante: dict[AgentId, Fraction] = {}
    ex_post: dict[AgentId, Fraction] = {}
    cum = Fraction(0)  # sum of |seg|/n_seg over the segments ended so far
    cum_at_arrival: dict[AgentId, Fraction] = {}
    arriving = departing = 0  # next indices into stream and by_leave
    prev: Time | None = None
    for t in times:
        if present:
            segments.append(Segment(prev, t, frozenset(present)))
            cum += (t - prev) / len(present)
        gone = departing
        while departing < len(by_leave) and by_leave[departing].t_leave == t:
            a = by_leave[departing]
            present.remove(a.id)
            ex_post[a.id] = cum - cum_at_arrival[a.id]
            departing += 1
        del leaves[: departing - gone]  # they are the earliest departures
        if arriving < len(stream) and stream[arriving].t_arrive == t:
            a = stream[arriving]
            present.add(a.id)
            cum_at_arrival[a.id] = cum
            bisect.insort(leaves, a.t_leave)
            n = len(leaves)
            ex_ante[a.id] = sum(
                ((e - s) / (n - i) for s, e, i in _ante_cut(t, a.t_leave, leaves)),
                Fraction(0),
            )
            arriving += 1
        prev = t
    return Sweep(tuple(stream), tuple(segments), ex_ante, ex_post)


@dataclass(frozen=True)
class _Policy:
    """What sets one mechanism apart; `_drive` runs everything else.

    Arrivals join the queue in front (`newest_first`) or in
    (t_leave, t_arrive) order.  A member rotates behind the queue once it
    has led its `claim`; with no claim nobody rotates, and the departures
    and the arrival at one instant are one step with one switch.  `adjust`
    lets each arrival cut the unfinished members' claims.
    """

    kind: MechanismKind
    newest_first: bool = False
    claim: Callable[[AgentSpec], Fraction] | None = None
    adjust: bool = False


_DEPART, _ARRIVE, _ROTATE = range(3)  # priority at equal instants


def _drive(
    shares: Sweep, params: GameParams, policy: _Policy
) -> Outcome:
    """Run the convoy over the stream's events; the outcome has no ledger.

    At one instant the departures go first, then the arrival, then any due
    rotation.  The queue's front member leads; once every member has
    rotated, the first finished one leads on.  A rotation costs c * n_r,
    n_r counting queued and finished members; other switches are free.  The
    next departure is a pointer into the stream sorted by departure: an
    agent that has not arrived yet is never next, because its arrival comes
    first.
    """
    stream = shares.stream
    n = len(stream)
    by_leave = sorted(stream, key=lambda a: a.t_leave)
    queue: list[AgentSpec] = []  # unfinished members in the mechanism's order
    finished: list[AgentSpec] = []  # members that rotated, in rotation order
    remaining: dict[AgentId, Fraction] = {}  # leading time each member still owes
    leaves: list[Time] = []  # the members' departures, ascending; kept for `adjust`
    periods: list[ActivePeriod] = []
    switches: list[SwitchEvent] = []
    i = j = 0  # next arrival in `stream`, next departure in `by_leave`
    t = start = stream[0].t_arrive  # last event, start of the open period

    while j < n:
        t_next, action = by_leave[j].t_leave, _DEPART
        if i < n and stream[i].t_arrive < t_next:
            t_next, action = stream[i].t_arrive, _ARRIVE
        if policy.claim and queue:
            front = queue[0].id
            if t + remaining[front] < t_next:
                t_next, action = t + remaining[front], _ROTATE
            remaining[front] -= t_next - t
            if remaining[front] < 0:
                raise RuntimeError(f"leader {front!r} led past its remaining share")

        pre = queue[0] if queue else finished[0] if finished else None
        if action == _DEPART:
            first = j
            while j < n and by_leave[j].t_leave == t_next:
                j += 1
            gone = {a.id for a in by_leave[first:j]}
            queue[:] = [m for m in queue if m.id not in gone]
            finished[:] = [m for m in finished if m.id not in gone]
            del leaves[: j - first]  # the earliest departures; a no-op unless `adjust`
            # an emptied convoy re-forming at once is one handover either way
            merge = policy.claim is None or not (queue or finished)
            if merge and i < n and stream[i].t_arrive == t_next:
                action = _ARRIVE
        if action == _ARRIVE:
            joined = stream[i]
            i += 1
            if policy.newest_first:
                queue.insert(0, joined)
            else:
                bisect.insort(queue, joined, key=lambda m: (m.t_leave, m.t_arrive))
            if policy.claim:
                remaining[joined.id] = policy.claim(joined)
            if policy.adjust:
                bisect.insort(leaves, joined.t_leave)
                cuts = _ante_cut(t_next, joined.t_leave, leaves)
                _relieve(joined, queue, remaining,
                         [(s, e, len(leaves) - k) for s, e, k in cuts])
        elif action == _ROTATE:
            rotator = queue.pop(0)
            if remaining[rotator.id] != 0:
                raise RuntimeError(
                    f"{rotator.id!r} rotated with {remaining[rotator.id]} still to lead"
                )
            finished.append(rotator)

        post = queue[0] if queue else finished[0] if finished else None
        if post is not pre:
            if pre is not None and t_next > start:
                periods.append(ActivePeriod(pre.id, start, t_next))
            if pre is not None and post is not None:
                if pre.t_leave == t_next:
                    kind = SwitchKind.LEADER_LEAVE
                elif action == _ROTATE:
                    kind = SwitchKind.ROTATION
                elif post.t_arrive == t_next:
                    kind = SwitchKind.FRONT_JOIN
                else:
                    raise RuntimeError("leader changed without a matching event")
                n_r = len(queue) + len(finished)
                cost = params.c * n_r if kind is SwitchKind.ROTATION else Fraction(0)
                switches.append(SwitchEvent(t_next, pre.id, post.id, kind, n_r, cost))
            start = t_next
        t = t_next

    led = {a.id: Fraction(0) for a in stream}
    for p in periods:
        led[p.agent] += p.length
    charged: dict[AgentId, Fraction] = {}  # each rotator pays for its rotations
    for ev in switches:
        if ev.kind is SwitchKind.ROTATION:
            charged[ev.outgoing] = charged.get(ev.outgoing, Fraction(0)) + ev.cost
    rotation_costs = {a.id: charged[a.id] for a in stream if a.id in charged}
    schedule = Schedule(tuple(periods), tuple(switches))
    return Outcome(
        policy.kind, schedule, None, rotation_costs, shares, params, led
    )


def pt_run(
    agents: Iterable[AgentSpec] | Sweep, params: GameParams = GameParams()
) -> Outcome:
    """Payment-transfer mechanism.

    The available agent with the earliest departure time leads (ties broken
    by earlier arrival), and in every segment each follower pays the leader
    |seg| * u / n_seg.  The leader only changes when it departs or when a
    sooner-departing agent arrives, so the schedule contains no rotations
    and switching is free.
    """
    shares = stream_shares(agents)
    policy = _Policy(MechanismKind.PAYMENT_TRANSFER)
    outcome = _drive(shares, params, policy)
    by_id = {a.id: a for a in shares.stream}
    payments: list[Payment] = []
    net = {a.id: Fraction(0) for a in shares.stream}
    periods = iter(outcome.schedule.periods)
    period = next(periods)
    for seg in shares.segments:
        while period.stop <= seg.start:  # the leader changes only at a segment start
            period = next(periods)
        leader = period.agent
        pay = seg.length * params.u / len(seg.members)
        followers = sorted(seg.members - {leader}, key=lambda i: by_id[i].t_arrive)
        payments.append(Payment(seg, leader, tuple(followers), pay))
        for fid in followers:
            net[fid] -= pay
            net[leader] += pay
    return outcome._replace(ledger=Ledger(tuple(payments), net))


def rg_run(
    agents: Iterable[AgentSpec] | Sweep, params: GameParams = GameParams()
) -> Outcome:
    """Repeated-game load balancing.

    Every arrival joins at the front of the convoy and leads immediately;
    when the leader departs, the previous front agent resumes.  Uneven
    shares within one game are accepted and settle over repeated games, so
    no agent ever rotates and no payments change hands.
    """
    policy = _Policy(MechanismKind.REPEATED_GAME, newest_first=True)
    return _drive(stream_shares(agents), params, policy)


def _relieve(
    newcomer: AgentSpec,
    queue: Sequence[AgentSpec],
    remaining: dict[AgentId, Fraction],
    cuts: Sequence[tuple[Time, Time, int]],
) -> None:
    """Dynamic adjustment: cut the unfinished members' `remaining` in place.

    The share the newcomer absorbs in each (start, end, n_seg) cut of its
    ex-ante decomposition, (end - start) / n_seg, is split evenly among the
    other `queue` members still available after `start`, clamped at zero.

    Clamps compose (max(0, max(0, x - a) - b) = max(0, x - a - b) for
    a, b >= 0), so each member is cut once by the sum of its pools' cuts.
    `queue` is ordered by departure, so each segment's pool is a suffix of
    it: the cut is added where that suffix starts and summed in one walk,
    O(segments + pool) instead of O(segments * pool).
    """
    pool = [m for m in queue if m.id != newcomer.id]
    leaves = [m.t_leave for m in pool]
    steps = [Fraction(0)] * len(pool)  # cut that starts at each pool index
    for start, end, n_seg in cuts:
        first = bisect.bisect_right(leaves, start)  # leaves after `start`
        if first < len(pool):
            steps[first] += (end - start) / n_seg / (len(pool) - first)
    cut = Fraction(0)
    for m, step in zip(pool, steps):
        cut += step
        if cut:
            remaining[m.id] = max(Fraction(0), remaining[m.id] - cut)


def sg_run(
    agents: Iterable[AgentSpec] | Sweep,
    params: GameParams = GameParams(),
    dynamic_adjust: bool = False,
) -> Outcome:
    """Single-game load balancing, optionally with dynamic adjustment.

    Each arrival is allocated a remaining leading share equal to its
    ex-ante proportional segment sum over the agents present.  Unfinished
    members ride in front of finished ones, ordered by departure time, and
    the front agent leads until it departs, until a sooner-departing agent
    arrives in front of it, or until its remaining share reaches zero, at
    which point it rotates to the back and pays c * n_r.  With
    `dynamic_adjust`, every arrival also cuts the unfinished members'
    remaining shares (`_relieve`).  Departures, an arrival and a rotation at
    one instant are three steps in that order, so leaving agents never pay
    and an arrival in front of an exhausted leader pre-empts its rotation.
    """
    shares = stream_shares(agents)
    # the agents present at an arrival are exactly those available then, so
    # the claim is the sweep's ex-ante segment sum
    policy = _Policy(
        MechanismKind("sg-da" if dynamic_adjust else "sg"),
        claim=lambda a: shares.ex_ante[a.id],
        adjust=dynamic_adjust,
    )
    return _drive(shares, params, policy)


def run_mechanism(
    kind: MechanismKind | str,
    agents: Iterable[AgentSpec] | Sweep,
    params: GameParams = GameParams(),
) -> Outcome:
    """Dispatch by mechanism kind (accepts the CLI spellings)."""
    kind = MechanismKind(kind)
    if kind is MechanismKind.PAYMENT_TRANSFER:
        return pt_run(agents, params)
    if kind is MechanismKind.REPEATED_GAME:
        return rg_run(agents, params)
    return sg_run(agents, params,
                  dynamic_adjust=kind is MechanismKind.SINGLE_GAME_DYNAMIC)


def net_utilities(
    outcome: Outcome,
    agents: Iterable[AgentSpec] | Sweep,
    params: GameParams,
) -> dict[AgentId, Fraction]:
    """Per-agent net utility: u per unit of availability not spent leading,
    plus net transfers received, minus rotation charges paid."""
    assigned = outcome.lead_shares
    net: dict[AgentId, Fraction] = {}
    for a in stream_shares(agents).stream:
        value = params.u * (a.window - assigned[a.id])
        if outcome.ledger is not None:
            value += outcome.ledger.net.get(a.id, Fraction(0))
        value -= outcome.rotation_costs.get(a.id, Fraction(0))
        net[a.id] = value
    return net
