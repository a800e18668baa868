"""Core model for sequential online chore division games.

A game is an online stream of agents, each available over one time window,
with exactly one available agent performing a shared chore at any instant.
This module holds the value types (agents, parameters, segments, schedules),
the segment decompositions behind ex-ante and ex-post proportional shares,
and the schedule validity and efficiency accounting shared by every
mechanism.  One event sweep per stream (`StreamShares`, built from the
stream alone) reads off every decomposition: as it walks, it records each
realized segment's members and each arrival's ex-ante cut, which
`segments`, pt's ledger and sg-da read.

Every public time and share is an exact `fractions.Fraction`; floats
belong to the metrics and reporting layers.  Inside, the sweep and the
mechanisms run on integer ticks: `StreamShares` picks one tick scale per
stream under which every time and every division the core makes is a
whole number of ticks, and stores only those ticks.  Its integer half,
`_sweep`, also takes ticks straight from the highway's draw, with no
`AgentSpec` in between.  Fractions are built once, at the outputs: a
sweep's segments and sums on first read.  All intervals are half-open
``[start, end)`` so adjacent segments and active periods tile without
overlap.  When a departure and an arrival coincide, the departure is
processed first.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import pairwise
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

__all__ = [
    "AgentId",
    "Time",
    "as_time",
    "AgentSpec",
    "GameParams",
    "Segment",
    "ActivePeriod",
    "SwitchKind",
    "SwitchEvent",
    "Schedule",
    "ShareReport",
    "StreamShares",
    "Violation",
    "EmptyStream",
    "EmptyWindow",
    "DuplicateArrival",
    "InvalidPresentSet",
    "UnknownAgent",
    "validate_stream",
    "game_duration",
    "stream_shares",
    "stream_segments",
    "eas_segments",
    "eps_segments",
    "ex_ante_share",
    "ex_post_share",
    "efficiency",
    "validate_schedule",
]

AgentId = Union[str, int]
Time = Fraction


# Fraction("1e999999999") would build 10**999999999, so a string's exponent
# is bounded first, by CPython's default int digit limit, which already
# refuses a longer run of digits anywhere else in the string.
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)
_MAX_EXPONENT = 4300


def as_time(value: int | str | Fraction) -> Fraction:
    """Coerce an exact value (a time, u, c or a switch cost) to a Fraction.

    Accepts ints, Fractions and strings ("7", "0.25", "16/3", "1e-3").
    Floats and bools are rejected: a float's binary value is rarely the
    decimal the caller meant, and the model is exact by contract.  A string
    whose exponent exceeds 4300 in absolute value raises a ValueError before
    any power is built.  The result's parts are Python ints, also for a
    numpy integer, which keeps its C-long type inside a Fraction, so its
    products with a tick scale would overflow.
    """
    if type(value) is not Fraction:
        if isinstance(value, bool) or isinstance(value, float):
            raise TypeError(f"exact values must be an int, str or Fraction, "
                            f"not {type(value).__name__}")
        if isinstance(value, str):
            exponent = _EXPONENT.search(value)
            if exponent and abs(int(exponent[1])) > _MAX_EXPONENT:
                raise ValueError(f"exponent beyond ±{_MAX_EXPONENT}: {value!r}")
        value = Fraction(value)
    if type(value.numerator) is int and type(value.denominator) is int:
        return value  # the common case, without a call
    return Fraction(int(value.numerator), int(value.denominator))


class EmptyStream(ValueError):
    """The agent stream is empty."""


class EmptyWindow(ValueError):
    """An agent's availability window has zero or negative length."""

    def __init__(self, agent: AgentId):
        self.agent = agent
        super().__init__(f"agent {agent!r} has an empty availability window")


class DuplicateArrival(ValueError):
    """Two agents share an arrival time; arrivals must be distinct."""

    def __init__(self, first: AgentId, second: AgentId):
        self.agents = (first, second)
        super().__init__(f"agents {first!r} and {second!r} arrive at the same instant")


class InvalidPresentSet(ValueError):
    """A listed agent is not actually available at the reference instant."""


class UnknownAgent(ValueError):
    """The referenced agent is not part of the game."""

    def __init__(self, agent: AgentId):
        self.agent = agent
        super().__init__(f"unknown agent {agent!r}")


@dataclass(frozen=True)
class AgentSpec:
    """One agent of the stream: an identifier and its availability window.

    Availability is the half-open interval [t_arrive, t_leave).
    """

    id: AgentId
    t_arrive: Time
    t_leave: Time

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_arrive", as_time(self.t_arrive))
        object.__setattr__(self, "t_leave", as_time(self.t_leave))
        if self.t_leave <= self.t_arrive:
            raise EmptyWindow(self.id)

    @property
    def window(self) -> Fraction:
        return self.t_leave - self.t_arrive

    def available_at(self, t: Time) -> bool:
        return self.t_arrive <= t < self.t_leave

    def covers(self, start: Time, end: Time) -> bool:
        """Available throughout [start, end)."""
        return self.t_arrive <= start and self.t_leave >= end


@dataclass(frozen=True)
class GameParams:
    """Game constants: per-unit-time utility u, switch cost c.

    Leading costs exactly the utility it forgoes; there is no separate
    active-time cost.
    """

    u: Fraction = Fraction(1)
    c: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", as_time(self.u))
        object.__setattr__(self, "c", as_time(self.c))
        if self.u <= 0:
            raise ValueError("u must be positive")
        if self.c < 0:
            raise ValueError("c must be non-negative")


@dataclass(frozen=True)
class Segment:
    """A maximal interval over which the set of available agents is constant."""

    start: Time
    end: Time
    members: frozenset[AgentId]

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", as_time(self.start))
        object.__setattr__(self, "end", as_time(self.end))
        object.__setattr__(self, "members", frozenset(self.members))
        if self.end <= self.start:
            raise ValueError("segment must have positive length")
        if not self.members:
            raise ValueError("segment must have at least one member")

    @property
    def length(self) -> Fraction:
        return self.end - self.start


@dataclass(frozen=True)
class ActivePeriod:
    """A stretch [start, stop) during which one agent performs the chore."""

    agent: AgentId
    start: Time
    stop: Time

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", as_time(self.start))
        object.__setattr__(self, "stop", as_time(self.stop))
        if self.stop < self.start:
            raise ValueError("active period must not end before it starts")

    @property
    def length(self) -> Fraction:
        return self.stop - self.start


class SwitchKind(str, Enum):
    FRONT_JOIN = "front_join"
    LEADER_LEAVE = "leader_leave"
    ROTATION = "rotation"


@dataclass(frozen=True)
class SwitchEvent:
    """A change of active agent.

    Only rotations bear a cost (c times the convoy size n_r at the switch);
    a new agent joining at the front and a leader leaving are free.
    """

    time: Time
    outgoing: AgentId | None
    incoming: AgentId | None
    kind: SwitchKind
    n_r: int
    cost: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "time", as_time(self.time))
        object.__setattr__(self, "cost", as_time(self.cost))
        if self.n_r < 0:
            raise ValueError("n_r must be non-negative")
        if self.cost < 0:
            raise ValueError("switch cost must be non-negative")


@dataclass(frozen=True)
class Schedule:
    """A complete allocation: active periods plus the switch events between them."""

    periods: tuple[ActivePeriod, ...]
    switches: tuple[SwitchEvent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "periods", tuple(self.periods))
        object.__setattr__(self, "switches", tuple(self.switches))


@dataclass(frozen=True)
class ShareReport:
    """Per-agent outcome: assigned share next to both proportional benchmarks."""

    agent: AgentId
    assigned: Fraction
    ex_ante: Fraction
    ex_post: Fraction


class _Ticks(NamedTuple):
    """A stream's instants and segment sums as whole numbers of ticks.

    A tick is 1/`scale` of a time unit.  The lists are indexed by position
    in the stream (arrival order) and are never mutated.  `by_leave` lists
    those positions by departure, ties in arrival order.  `bounds` holds
    each realized segment's (start, end) and `members` its members, stream
    positions in arrival order.  `cuts` holds each arrival's ex-ante cut,
    one (start, end, n_seg) per segment of its window.  The sweep
    (`_sweep`) records them all as it walks.
    """

    scale: int
    arrive: list[int]
    leave: list[int]
    by_leave: list[int]
    ex_ante: list[int]
    ex_post: list[int]
    bounds: list[tuple[int, int]]
    members: list[list[int]]
    cuts: list[list[tuple[int, int, int]]]


def _div(numerator: int, divisor: int) -> int:
    """numerator / divisor, which the tick scale makes a whole number."""
    quotient, rest = divmod(numerator, divisor)
    if rest:
        raise RuntimeError(f"a division by {divisor} left a fraction of a tick")
    return quotient


@dataclass(frozen=True)
class StreamShares:
    """Everything one event sweep reads off a stream.

    Building it validates the stream once, puts every time on the grid of
    1/B, B the lcm of the stream's time denominators, and sweeps those
    integers (`_sweep`).  `stream` is the validated stream in arrival order
    and `segments` its realized segmentation.  `ex_ante` and `ex_post` map
    every agent to the sum of |seg|/n_seg over its ex-ante or ex-post
    segments, without the c/u allowance.  Only the integer view is stored;
    the three are built from it on first read.  Two sweeps are equal when
    their streams are, and `dataclasses.replace` sweeps the new stream.
    """

    stream: tuple[AgentSpec, ...]
    _ticks: _Ticks = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        stream = validate_stream(self.stream)
        base = math.lcm(*(t.denominator for a in stream for t in (a.t_arrive, a.t_leave)))
        arrive = [a.t_arrive.numerator * _div(base, a.t_arrive.denominator) for a in stream]
        leave = [a.t_leave.numerator * _div(base, a.t_leave.denominator) for a in stream]
        object.__setattr__(self, "stream", tuple(stream))
        object.__setattr__(self, "_ticks", _sweep(arrive, leave, base))

    @cached_property
    def _instants(self) -> dict[int, Fraction]:
        """Every arrival and departure tick, mapped to the stream's own Fraction."""
        ticks, instants = self._ticks, {}
        for a, t_arrive, t_leave in zip(self.stream, ticks.arrive, ticks.leave):
            instants[t_arrive] = a.t_arrive
            instants[t_leave] = a.t_leave
        return instants

    def _time(self, tick: int) -> Fraction:
        """The exact time at `tick`, reusing the stream's Fraction there."""
        known = self._instants.get(tick)
        return Fraction(tick, self._ticks.scale) if known is None else known

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        ids, time = [a.id for a in self.stream], self._time
        return tuple(Segment(time(b), time(e), frozenset(ids[k] for k in members))
                     for (b, e), members in zip(self._ticks.bounds, self._ticks.members))

    @cached_property
    def ex_ante(self) -> Mapping[AgentId, Fraction]:
        scale, sums = self._ticks.scale, self._ticks.ex_ante
        return {a.id: Fraction(t, scale) for a, t in zip(self.stream, sums)}

    @cached_property
    def ex_post(self) -> Mapping[AgentId, Fraction]:
        ticks = self._ticks  # in departure order, as the sweep meets them
        return {self.stream[k].id: Fraction(ticks.ex_post[k], ticks.scale)
                for k in ticks.by_leave}

    @cached_property
    def _allowed(self) -> dict[Fraction, tuple[list[Fraction], list[Fraction]]]:
        """`_plus`'s last allowance and its sums."""
        return {}

    def _plus(self, allowance: Fraction) -> tuple[list[Fraction], list[Fraction]]:
        """Every agent's ex-ante and ex-post sum plus `allowance` (a share
        report's c/u), in stream order, each one Fraction from its ticks.
        The sums of the last allowance asked are kept, so the outcomes of
        one game build them once."""
        memo = self._allowed
        if allowance not in memo:
            ticks, p, q = self._ticks, allowance.numerator, allowance.denominator
            den, extra = ticks.scale * q, p * ticks.scale
            memo.clear()
            memo[allowance] = ([Fraction(t * q + extra, den) for t in ticks.ex_ante],
                               [Fraction(t * q + extra, den) for t in ticks.ex_post])
        return memo[allowance]


@dataclass(frozen=True)
class Violation:
    """One defect found by validate_schedule."""

    kind: str
    start: Time | None = None
    end: Time | None = None
    agent: AgentId | None = None
    message: str = ""


# validate_schedule violation kinds
GAP = "gap"
OVERLAP = "overlap"
INACTIVE_AVAILABLE_TIME = "inactive_available_time"
ACTIVE_WHILE_ABSENT = "active_while_absent"
SWITCH_MISMATCH = "switch_mismatch"


def validate_stream(agents: Iterable[AgentSpec]) -> list[AgentSpec]:
    """Check a stream and return it sorted by arrival time.

    Rejects empty streams, empty windows, duplicate arrival instants (the
    model assumes agents arrive one at a time) and ids that are not a str or
    an int or that print alike (1 and "1"), since reports and artifacts
    name agents by their printed id.
    """
    stream = list(agents)
    if not stream:
        raise EmptyStream("agent stream is empty")
    seen_ids: dict[str, AgentId] = {}
    for a in stream:
        if isinstance(a.id, bool) or not isinstance(a.id, (str, int)):
            raise ValueError(f"agent id {a.id!r} must be a str or an int")
        key = str(a.id)
        if key in seen_ids:
            first = seen_ids[key]
            if first == a.id:
                raise ValueError(f"duplicate agent id {a.id!r}")
            raise ValueError(f"agent ids {first!r} and {a.id!r} print alike")
        seen_ids[key] = a.id
        if a.t_leave <= a.t_arrive:  # defensive; AgentSpec already rejects this
            raise EmptyWindow(a.id)
    stream.sort(key=lambda a: a.t_arrive)
    for prev, nxt in pairwise(stream):
        if prev.t_arrive == nxt.t_arrive:
            raise DuplicateArrival(prev.id, nxt.id)
    return stream


def _union(intervals: Iterable[tuple[Time, Time]]) -> list[tuple[Time, Time]]:
    """The intervals sorted, with those that overlap or touch merged."""
    merged: list[tuple[Time, Time]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _stream(agents: Iterable[AgentSpec] | StreamShares) -> Sequence[AgentSpec]:
    """A sweep's own stream, else `agents` validated, without a sweep."""
    return agents.stream if isinstance(agents, StreamShares) else validate_stream(agents)


def game_duration(agents: Iterable[AgentSpec] | StreamShares) -> Fraction:
    """Total time with at least one available agent."""
    windows = _union((a.t_arrive, a.t_leave) for a in _stream(agents))
    return sum((end - start for start, end in windows), Fraction(0))


def _ante_cut(
    start: Time, end: Time, leaves: Sequence[Time]
) -> Iterator[tuple[Time, Time, int]]:
    """Walk the ex-ante cut of the window [start, end).

    `leaves` holds the departures of the agents present at `start`, in
    ascending order; all lie after `start` and one of them is `end`.  Each
    known departure inside the window cuts, so this yields (s, e, i) per
    segment, whose members are the present agents at positions i: of
    `leaves` (those leaving at e or later).  Times may be Fractions or the
    sweep's integer ticks.
    """
    i = 0
    while leaves[i] < end:
        cut = leaves[i]
        yield start, cut, i
        start = cut
        while leaves[i] == cut:
            i += 1
    yield start, end, i


def stream_shares(agents: Iterable[AgentSpec] | StreamShares) -> StreamShares:
    """`StreamShares(agents)`, or `agents` itself, neither re-validated nor
    swept again, if it is a sweep.  Every function that takes an agent
    stream resolves it here, so one sweep can be passed everywhere."""
    return agents if isinstance(agents, StreamShares) else StreamShares(agents)


def _sweep(arrive: list[int], leave: list[int], base: int) -> _Ticks:
    """The event sweep of a stream given in units of 1/`base`.

    `arrive` and `leave` hold each agent's arrival and departure, in
    arrival order; arrivals are distinct and every agent leaves after it
    arrives.  The sweep walks the instants in time order, departures first
    at equal instants.  A running prefix cum(t) of |seg|/n_seg gives each
    ex-post sum as cum(t_leave) - cum(t_arrive).  The present agents are
    kept in arrival order, so each segment's members are a copy of them.
    Their departures are kept sorted, so each arrival's ex-ante cut is one
    walk over them; the sweep stores the cut and sums the ex-ante sum from
    it.

    The tick scale is `base` times lcm(1..N)**2, N the peak number of agents
    present: every segment length is then divisible by any member count
    (the shares) and by any product of two of them (sg-da's cuts, see
    `mechanisms._relieve`).
    """
    n = len(arrive)
    by_leave = sorted(range(n), key=leave.__getitem__)
    peak = gone = 0
    for k, t in enumerate(arrive):  # departures go first at equal instants
        while leave[by_leave[gone]] <= t:
            gone += 1
        peak = max(peak, k + 1 - gone)
    wide = math.lcm(*range(1, peak + 1)) ** 2
    arrive = [t * wide for t in arrive]
    leave = [t * wide for t in leave]

    present: dict[int, None] = {}  # the present agents, in arrival order
    leaves: list[int] = []  # their departures, ascending
    bounds: list[tuple[int, int]] = []
    members: list[list[int]] = []
    cuts: list[list[tuple[int, int, int]]] = []
    ante, post = [0] * n, [0] * n
    cum = 0  # sum of |seg|/n_seg over the segments ended so far
    cum_at_arrival = [0] * n
    arriving = departing = 0  # next indices into arrive and by_leave
    prev = 0
    for t in sorted({*arrive, *leave}):
        if present:
            bounds.append((prev, t))
            members.append(list(present))
            cum += _div(t - prev, len(present))
        gone = departing
        while departing < n and leave[by_leave[departing]] == t:
            k = by_leave[departing]
            post[k] = cum - cum_at_arrival[k]
            del present[k]
            departing += 1
        del leaves[: departing - gone]  # they are the earliest departures
        if arriving < n and arrive[arriving] == t:
            k = arriving
            cum_at_arrival[k] = cum
            present[k] = None
            bisect.insort(leaves, leave[k])
            cuts.append([(s, e, len(leaves) - i)
                         for s, e, i in _ante_cut(t, leave[k], leaves)])
            ante[k] = sum(_div(e - s, n_seg) for s, e, n_seg in cuts[k])
            arriving += 1
        prev = t
    return _Ticks(base * wide, arrive, leave, by_leave, ante, post, bounds, members, cuts)


def stream_segments(agents: Sequence[AgentSpec]) -> list[Segment]:
    """Segment the whole realized game: every arrival or departure cuts.

    Stretches with no available agent are skipped, so consecutive segments
    may be non-adjacent when availability has a hole.  A raw stream is
    validated and swept again on every call; pass `stream_shares(stream)`
    to read it more than once.
    """
    return list(stream_shares(agents).segments)


def eas_segments(agent: AgentSpec, present: Iterable[AgentSpec]) -> list[Segment]:
    """Ex-ante segmentation of `agent`'s window, as known at its arrival.

    `present` is the set of agents available at agent.t_arrive, including
    the agent itself.  Within the window, only the departures of present
    agents are known in advance, so those are the only cut points; the
    member count is non-increasing across the returned segments.
    """
    members = sorted(present, key=lambda p: p.t_leave)
    if not any(p.id == agent.id for p in members):
        raise InvalidPresentSet(f"present set must include agent {agent.id!r}")
    for p in members:
        if not p.available_at(agent.t_arrive):
            raise InvalidPresentSet(
                f"agent {p.id!r} is not available at t={agent.t_arrive}"
            )
    leaves = [p.t_leave for p in members]
    return [
        Segment(s, e, frozenset(p.id for p in members[i:]))
        for s, e, i in _ante_cut(agent.t_arrive, agent.t_leave, leaves)
    ]


def eps_segments(agent: AgentSpec, all_agents: Iterable[AgentSpec]) -> list[Segment]:
    """Ex-post segmentation of `agent`'s window over the realized stream.

    Every arrival or departure that falls strictly inside the window starts
    a new segment, so unlike the ex-ante view the member count can grow.
    `agent` must be in the stream, window and all (else `UnknownAgent`).
    A raw stream is validated and swept again on every call; a caller that
    reads many agents passes `stream_shares(all_agents)` instead.
    """
    shares = stream_shares(all_agents)
    if agent not in shares.stream:
        raise UnknownAgent(agent.id)
    return [
        seg for seg in shares.segments
        if agent.t_arrive <= seg.start and seg.end <= agent.t_leave
    ]


def ex_ante_share(
    agent: AgentSpec,
    present: Iterable[AgentSpec],
    params: GameParams = GameParams(),
) -> Fraction:
    """Proportional share promised at arrival: sum of |seg|/n_seg plus c/u."""
    total = sum(
        (seg.length / len(seg.members) for seg in eas_segments(agent, present)),
        Fraction(0),
    )
    return total + params.c / params.u


def ex_post_share(
    agent: AgentSpec,
    all_agents: Iterable[AgentSpec],
    params: GameParams = GameParams(),
) -> Fraction:
    """Proportional share judged on the realized stream: |seg|/n_seg plus
    c/u.  `agent` must be in the stream, window and all (else `UnknownAgent`).
    A raw stream is validated and swept again on every call; a caller that
    reads many agents passes `stream_shares(all_agents)` instead."""
    shares = stream_shares(all_agents)
    if agent not in shares.stream:
        raise UnknownAgent(agent.id)
    return shares.ex_post[agent.id] + params.c / params.u


def efficiency(
    schedule: Schedule,
    agents: Iterable[AgentSpec] | StreamShares,
    params: GameParams,
) -> Fraction:
    """Social welfare of a schedule.

    Each agent earns u per unit of availability spent not leading, and the
    costed switches are subtracted.  Equals the segment-wise form
    sum((n_seg - 1) * |seg| * u) minus total switch costs.  Active time is
    summed per agent in one pass over the periods.
    """
    stream = _stream(agents)
    led: dict[AgentId, Fraction] = {}
    for p in schedule.periods:
        led[p.agent] = led.get(p.agent, Fraction(0)) + p.length
    gained = sum(
        (params.u * (a.window - led.get(a.id, Fraction(0))) for a in stream),
        Fraction(0),
    )
    return gained - sum((ev.cost for ev in schedule.switches), Fraction(0))


def _chain_consistent(
    events: Sequence[SwitchEvent], outgoing: AgentId, incoming: AgentId
) -> bool:
    """Events at one boundary must link outgoing -> ... -> incoming."""
    if not events:
        return False
    if events[0].outgoing != outgoing or events[-1].incoming != incoming:
        return False
    return all(a.incoming == b.outgoing for a, b in pairwise(events))


def validate_schedule(
    schedule: Schedule, agents: Iterable[AgentSpec] | StreamShares
) -> list[Violation]:
    """Audit a schedule against its stream; an empty list means valid.

    Checked: periods tile the availability union exactly (no gap, no
    overlap, no available time left idle), agents are only active while
    available, and every boundary between different agents carries a
    consistent chain of switch events (exactly one in the common case).
    """
    stream = _stream(agents)
    roster = {a.id: a for a in stream}
    violations: list[Violation] = []

    periods = sorted(schedule.periods, key=lambda p: (p.start, p.stop))
    for p in periods:
        spec = roster.get(p.agent)
        if spec is None:
            violations.append(
                Violation(ACTIVE_WHILE_ABSENT, p.start, p.stop, p.agent,
                          f"unknown agent {p.agent!r} active")
            )
        elif not spec.covers(p.start, p.stop):
            violations.append(
                Violation(ACTIVE_WHILE_ABSENT, p.start, p.stop, p.agent,
                          f"agent {p.agent!r} active outside its window")
            )

    for prev, nxt in pairwise(periods):
        if nxt.start < prev.stop:
            violations.append(
                Violation(OVERLAP, nxt.start, min(prev.stop, nxt.stop), nxt.agent,
                          f"periods of {prev.agent!r} and {nxt.agent!r} overlap")
            )

    # Uncovered availability: holes strictly between periods are gaps,
    # anything at the edges (or with no periods at all) is idle time.  It is
    # the windows' union minus the periods' union; merged into the windows,
    # each period lies inside one stretch, so one pointer walks them all.
    busy = _union((p.start, p.stop) for p in periods if p.stop > p.start)
    uncovered: list[tuple[Time, Time]] = []
    j = 0
    for start, end in _union([*((a.t_arrive, a.t_leave) for a in stream), *busy]):
        while j < len(busy) and busy[j][0] < end:
            if start < busy[j][0]:
                uncovered.append((start, busy[j][0]))
            start = busy[j][1]
            j += 1
        if start < end:
            uncovered.append((start, end))
    first_start = periods[0].start if periods else None
    last_stop = periods[-1].stop if periods else None
    for start, end in uncovered:
        between = (
            first_start is not None and start >= first_start and end <= last_stop
        )
        kind = GAP if between else INACTIVE_AVAILABLE_TIME
        violations.append(
            Violation(kind, start, end, None, "available time with no active agent")
        )

    # A schedule without switch events is a plain tiling; chains are only
    # audited once the schedule claims to describe the handovers too.
    by_time: dict[Time, list[SwitchEvent]] = {}
    for ev in schedule.switches:
        by_time.setdefault(ev.time, []).append(ev)
    boundary_times: set[Time] = set()
    for prev, nxt in pairwise(periods):
        if prev.stop != nxt.start or prev.agent == nxt.agent:
            continue
        boundary_times.add(nxt.start)
        if not schedule.switches:
            continue
        chain = by_time.get(nxt.start, [])
        if not _chain_consistent(chain, prev.agent, nxt.agent):
            violations.append(
                Violation(SWITCH_MISMATCH, nxt.start, nxt.start, nxt.agent,
                          f"boundary {prev.agent!r}->{nxt.agent!r} lacks a "
                          f"consistent switch chain")
            )
    for t, events in sorted(by_time.items()):
        if t not in boundary_times:
            violations.append(
                Violation(SWITCH_MISMATCH, t, t, None,
                          "switch event at a non-boundary instant")
            )

    return violations
