"""The three mechanism loops the shared convoy event loop replaced, verbatim.

`pt_run` walks the realized segments and picks each one's leader by a `min`
over its members, `rg_run` walks every arrival and departure instant with a
newest-first stack, and `sg_run` walks departure, arrival and rotation
events, finding the next departure by a `min` over the convoy.  They are
kept only as a test oracle for the one event loop in `socd.mechanisms`,
with the convoy state and pricing helpers they used.  The sg loop cuts
each arrival's window by the per-agent rescan in `share_oracle.py` and
adjusts claims through the per-segment reference in `adjust_oracle.py`, so
the sg-da reference shares no ex-ante walk with the code it checks.

Each loop returns an `Outcome`, its own record of the seven faces of a
`MechanismOutcome`; `faces` reads the same record off a real outcome, so
the two compare field by field.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from adjust_oracle import sg_adjust_shares
from share_oracle import eas_segments
from socd import (
    ActivePeriod,
    AgentSpec,
    GameParams,
    Ledger,
    MechanismKind,
    MechanismOutcome,
    Payment,
    Schedule,
    Segment,
    StreamShares,
    SwitchEvent,
    SwitchKind,
    stream_shares,
)
from socd.model import AgentId, Time


class Outcome(NamedTuple):
    """The seven faces of a `MechanismOutcome`, as a record."""

    kind: MechanismKind
    schedule: Schedule
    ledger: Ledger | None
    rotation_costs: Mapping[AgentId, Fraction]
    shares: StreamShares
    params: GameParams
    lead_shares: Mapping[AgentId, Fraction]


def faces(outcome: MechanismOutcome) -> Outcome:
    """Read the seven faces off a `MechanismOutcome`."""
    return Outcome(*(getattr(outcome, name) for name in Outcome._fields))


def convoy_switch_cost(kind: SwitchKind, n_r: int, params: GameParams) -> Fraction:
    """Cost of one switch: rotations cost c * n_r, the other kinds are free.

    A joining agent slots in at the front and a leaving leader simply exits,
    so neither forces the convoy to re-form around a rotating vehicle.
    """
    if kind is SwitchKind.ROTATION:
        return params.c * n_r
    return Fraction(0)


def pt_segment_payment(segment: Segment, params: GameParams) -> Fraction:
    """Per-follower payment to the segment's leader: |seg| * u / n_seg."""
    return segment.length * params.u / len(segment.members)


@dataclass
class ConvoyState:
    """Live convoy: unfinished members ride in front of finished ones.

    `unfinished` is the queue in the mechanism's order, its front member
    leading; `finished` holds agents that already rotated, in rotation
    order.  `remaining` maps each member to the leading time it still owes
    (single game only).
    """

    unfinished: list[AgentSpec] = field(default_factory=list)
    finished: list[AgentSpec] = field(default_factory=list)
    remaining: dict[AgentId, Fraction] = field(default_factory=dict)
    led: dict[AgentId, Fraction] = field(default_factory=dict)
    rotations: dict[AgentId, int] = field(default_factory=dict)

    @property
    def leader(self) -> AgentSpec | None:
        if self.unfinished:
            return self.unfinished[0]
        if self.finished:
            return self.finished[0]
        return None

    def __len__(self) -> int:
        return len(self.unfinished) + len(self.finished)


def pt_run(
    agents: Iterable[AgentSpec] | StreamShares, params: GameParams = GameParams()
) -> Outcome:
    """Payment-transfer mechanism.

    The available agent with the earliest departure time leads (ties broken
    by earlier arrival), and in every segment each follower pays the leader
    |seg| * u / n_seg.  The leader only changes when it departs or when a
    sooner-departing agent arrives, so the schedule contains no rotations
    and switching is free.
    """
    shares = stream_shares(agents)
    stream = shares.stream
    by_id = {a.id: a for a in stream}

    periods: list[ActivePeriod] = []
    switches: list[SwitchEvent] = []
    payments: list[Payment] = []
    net = {a.id: Fraction(0) for a in stream}
    assigned = {a.id: Fraction(0) for a in stream}

    cur: AgentId | None = None
    cur_start: Time | None = None
    prev_end: Time | None = None
    for seg in shares.segments:
        leader = min(
            seg.members, key=lambda i: (by_id[i].t_leave, by_id[i].t_arrive)
        )
        pay = pt_segment_payment(seg, params)
        followers = sorted(
            (i for i in seg.members if i != leader), key=lambda i: by_id[i].t_arrive
        )
        payments.append(Payment(seg, leader, tuple(followers), pay))
        for fid in followers:
            net[fid] -= pay
            net[leader] += pay

        if cur is None:
            cur, cur_start = leader, seg.start
        elif seg.start > prev_end:
            # hole in availability: close the period, restart without a switch
            periods.append(ActivePeriod(cur, cur_start, prev_end))
            cur, cur_start = leader, seg.start
        elif leader != cur:
            periods.append(ActivePeriod(cur, cur_start, seg.start))
            if by_id[cur].t_leave == seg.start:
                kind = SwitchKind.LEADER_LEAVE
            elif by_id[leader].t_arrive == seg.start:
                kind = SwitchKind.FRONT_JOIN
            else:
                raise RuntimeError("leader changed without an arrival or departure")
            n_r = len(seg.members)
            switches.append(
                SwitchEvent(seg.start, cur, leader, kind, n_r,
                            convoy_switch_cost(kind, n_r, params))
            )
            cur, cur_start = leader, seg.start
        prev_end = seg.end
    if cur is not None:
        periods.append(ActivePeriod(cur, cur_start, prev_end))

    for p in periods:
        assigned[p.agent] += p.length

    return Outcome(
        kind=MechanismKind.PAYMENT_TRANSFER,
        schedule=Schedule(tuple(periods), tuple(switches)),
        ledger=Ledger(tuple(payments), net),
        rotation_costs={},
        shares=shares,
        params=params,
        lead_shares=assigned,
    )


def rg_run(
    agents: Iterable[AgentSpec] | StreamShares, params: GameParams = GameParams()
) -> Outcome:
    """Repeated-game load balancing.

    Every arrival joins at the front of the convoy and leads immediately;
    when the leader departs, the previous front agent resumes.  Uneven
    shares within one game are accepted and settle over repeated games, so
    no agent ever rotates and no payments change hands.
    """
    shares = stream_shares(agents)
    stream = shares.stream
    times = sorted({t for a in stream for t in (a.t_arrive, a.t_leave)})
    arriving = {a.t_arrive: a for a in stream}

    stack: list[AgentSpec] = []  # stack[-1] is the front of the convoy
    periods: list[ActivePeriod] = []
    switches: list[SwitchEvent] = []
    cur_start: Time | None = None

    for t in times:
        pre = stack[-1] if stack else None
        leader_departed = pre is not None and pre.t_leave == t
        if any(m.t_leave == t for m in stack):
            stack = [m for m in stack if m.t_leave > t]
        newcomer = arriving.get(t)
        if newcomer is not None:
            stack.append(newcomer)
        post = stack[-1] if stack else None
        if post is pre:
            continue
        if pre is not None:
            periods.append(ActivePeriod(pre.id, cur_start, t))
        if post is not None:
            cur_start = t
            if pre is not None:
                kind = (
                    SwitchKind.LEADER_LEAVE if leader_departed else SwitchKind.FRONT_JOIN
                )
                n_r = len(stack)
                switches.append(
                    SwitchEvent(t, pre.id, post.id, kind, n_r,
                                convoy_switch_cost(kind, n_r, params))
                )

    assigned = {a.id: Fraction(0) for a in stream}
    for p in periods:
        assigned[p.agent] += p.length

    return Outcome(
        kind=MechanismKind.REPEATED_GAME,
        schedule=Schedule(tuple(periods), tuple(switches)),
        ledger=None,
        rotation_costs={},
        shares=shares,
        params=params,
        lead_shares=assigned,
    )


def sg_run(
    agents: Iterable[AgentSpec] | StreamShares,
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
    `dynamic_adjust`, every arrival also reduces the unfinished members'
    remaining shares via the per-segment `sg_adjust_shares`.

    At one instant, departures are processed first, then the arrival, then
    any rotation, so leaving agents never pay and an arrival in front of an
    exhausted leader pre-empts its rotation.  If every member has finished
    but the convoy is not empty, the front finished agent leads on; the
    overshoot is visible in its report.
    """
    shares = stream_shares(agents)
    stream = shares.stream
    n = len(stream)

    state = ConvoyState(
        led={a.id: Fraction(0) for a in stream},
        rotations={a.id: 0 for a in stream},
    )
    unfinished, finished = state.unfinished, state.finished
    remaining, led, rotations = state.remaining, state.led, state.rotations
    rotation_costs = {a.id: Fraction(0) for a in stream}

    periods: list[ActivePeriod] = []
    switches: list[SwitchEvent] = []

    i = 0  # next arrival index
    t: Time | None = None
    cur: AgentSpec | None = None  # leader of the currently open period
    cur_start: Time | None = None

    DEPART, ARRIVE, ROTATE = 0, 1, 2  # priority at equal instants

    while i < n or len(state):
        if len(state):
            t_next, action = min(m.t_leave for m in unfinished + finished), DEPART
            if i < n and (stream[i].t_arrive, ARRIVE) < (t_next, action):
                t_next, action = stream[i].t_arrive, ARRIVE
            if unfinished:
                t_rot = t + remaining[unfinished[0].id]
                if (t_rot, ROTATE) < (t_next, action):
                    t_next, action = t_rot, ROTATE
        else:
            t_next, action = stream[i].t_arrive, ARRIVE

        # accrue the lead since the previous event
        if cur is not None and t_next > t:
            delta = t_next - t
            led[cur.id] += delta
            if unfinished and unfinished[0] is cur:
                remaining[cur.id] -= delta
                if remaining[cur.id] < 0:
                    raise RuntimeError(
                        f"leader {cur.id!r} led past its remaining share"
                    )

        pre = state.leader
        pre_departed = False
        joined: AgentSpec | None = None

        if action == DEPART:
            pre_departed = pre is not None and pre.t_leave == t_next
            unfinished[:] = [m for m in unfinished if m.t_leave > t_next]
            finished[:] = [m for m in finished if m.t_leave > t_next]
        elif action == ARRIVE:
            a = stream[i]
            i += 1
            # the agents present now are exactly those available at the
            # arrival, so the claim is the sweep's ex-ante segment sum
            remaining[a.id] = shares.ex_ante[a.id]
            bisect.insort(unfinished, a, key=lambda m: (m.t_leave, m.t_arrive))
            if dynamic_adjust:
                eas = eas_segments(a, unfinished + finished)
                updated = sg_adjust_shares(a, state, eas)
                remaining.clear()
                remaining.update(updated)
            joined = a
        else:  # ROTATE: the front agent has exhausted its share
            rotator = unfinished.pop(0)
            if remaining[rotator.id] != 0:
                raise RuntimeError(
                    f"{rotator.id!r} rotated with {remaining[rotator.id]} still to lead"
                )
            finished.append(rotator)
            # Alone in the convoy there is nothing to rotate behind: the agent
            # simply continues leading (overshoot), with no maneuver to pay for.
            if state.leader is not rotator:
                rotations[rotator.id] += 1
                rotation_costs[rotator.id] += convoy_switch_cost(
                    SwitchKind.ROTATION, len(state), params
                )

        post = state.leader
        if post is not pre:
            if pre is not None and cur_start is not None and t_next > cur_start:
                periods.append(ActivePeriod(pre.id, cur_start, t_next))
            if post is not None and pre is not None:
                if action == DEPART and pre_departed:
                    kind = SwitchKind.LEADER_LEAVE
                elif action == ARRIVE and joined is post:
                    kind = SwitchKind.FRONT_JOIN
                elif action == ROTATE:
                    kind = SwitchKind.ROTATION
                else:
                    raise RuntimeError("leader changed without a matching event")
                n_r = len(state)
                switches.append(
                    SwitchEvent(t_next, pre.id, post.id, kind, n_r,
                                convoy_switch_cost(kind, n_r, params))
                )
            elif post is not None and periods and periods[-1].stop == t_next:
                # the convoy emptied and re-formed at the same instant: the
                # departing leader hands straight over to the newcomer
                kind = SwitchKind.LEADER_LEAVE
                n_r = len(state)
                switches.append(
                    SwitchEvent(t_next, periods[-1].agent, post.id, kind, n_r,
                                convoy_switch_cost(kind, n_r, params))
                )
            cur = post
            cur_start = t_next if post is not None else None

        t = t_next

    kind = (
        MechanismKind.SINGLE_GAME_DYNAMIC if dynamic_adjust else MechanismKind.SINGLE_GAME
    )
    return Outcome(
        kind=kind,
        schedule=Schedule(tuple(periods), tuple(switches)),
        ledger=None,
        rotation_costs={k: v for k, v in rotation_costs.items() if v or rotations[k]},
        shares=shares,
        params=params,
        lead_shares=led,
    )


def run_mechanism(
    kind: MechanismKind | str,
    agents: Iterable[AgentSpec] | StreamShares,
    params: GameParams = GameParams(),
) -> Outcome:
    kind = MechanismKind(kind)
    if kind is MechanismKind.PAYMENT_TRANSFER:
        return pt_run(agents, params)
    if kind is MechanismKind.REPEATED_GAME:
        return rg_run(agents, params)
    return sg_run(agents, params,
                  dynamic_adjust=kind is MechanismKind.SINGLE_GAME_DYNAMIC)
