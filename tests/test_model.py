"""Value types, segment decompositions and share accounting."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schedule_oracle
import socd

from socd import (
    ActivePeriod,
    AgentSpec,
    DuplicateArrival,
    EmptyStream,
    EmptyWindow,
    GameParams,
    InvalidPresentSet,
    MechanismKind,
    Schedule,
    Segment,
    SwitchEvent,
    StreamShares,
    SwitchKind,
    UnknownAgent,
    Violation,
    as_time,
    eas_segments,
    efficiency,
    eps_segments,
    ex_ante_share,
    ex_post_share,
    game_duration,
    net_utilities,
    run_mechanism,
    stream_segments,
    stream_shares,
    validate_schedule,
    validate_stream,
)
from socd.model import _union
from conftest import S1, random_stream
from test_shares import streams


def seg(start, end, members) -> Segment:
    return Segment(F(start), F(end), frozenset(members))


# ---------------------------------------------------------------- value types


def test_as_time_accepts_exact_forms():
    assert as_time(7) == F(7)
    assert as_time("7") == F(7)
    assert as_time("0.25") == F(1, 4)
    assert as_time("16/3") == F(16, 3)
    assert as_time(F(5, 2)) == F(5, 2)


@pytest.mark.parametrize("make", [lambda: as_time("1e4301"), lambda: as_time("-1E-4301"),
                                  lambda: GameParams(u="1e-4301")],
                         ids=["1e4301", "-1E-4301", "GameParams"])
def test_as_time_refuses_an_exponent_beyond_4300_before_building_it(make):
    # Fraction("1e999999999") would build 10**999999999 first
    with pytest.raises(ValueError, match="exponent beyond"):
        make()


def test_as_time_builds_an_exponent_of_4300():
    assert as_time("1e4300") == 10**4300


@pytest.mark.parametrize("bad", [0.25, 1.0, True, False])
def test_as_time_rejects_floats_and_bools(bad):
    with pytest.raises(TypeError):
        as_time(bad)


@pytest.mark.parametrize("bad", [0.1, 1.0, np.float64(0.5), True, False])
def test_game_params_and_switch_costs_reject_floats_and_bools(bad):
    # GameParams(u=0.1) kept 0.1's binary value and GameParams(u=True) made u 1
    for make in (lambda: GameParams(u=bad), lambda: GameParams(c=bad),
                 lambda: SwitchEvent(F(1), "a", "b", SwitchKind.ROTATION, 2, bad)):
        with pytest.raises(TypeError, match="^exact values must be an int, str or "
                                            f"Fraction, not {type(bad).__name__}$"):
            make()


@pytest.mark.parametrize("np_int", [np.int64, np.int32])
def test_as_time_and_game_params_hold_python_ints(np_int):
    for value in (np_int(3), F(np_int(3), 2)):
        for exact in (as_time(value), GameParams(u=value, c=value).u):
            assert exact == value
            assert type(exact.numerator) is int and type(exact.denominator) is int
    exact = F(5, 2)
    assert as_time(exact) is exact


@pytest.mark.parametrize("np_int", [np.int64, np.int32])
def test_numpy_integer_games_run_like_python_ints(np_int):
    # 30 agents overlap, so the tick scale is far beyond a C long
    plain = [AgentSpec(i, i, 40 + i) for i in range(30)]
    numpy = [AgentSpec(i, np_int(i), np_int(40 + i)) for i in range(30)]
    params = GameParams(u=2, c=1)
    for kind in MechanismKind:
        want = run_mechanism(kind, plain, params)
        for got in (run_mechanism(kind, numpy, params),
                    run_mechanism(kind, plain, GameParams(u=np_int(2), c=np_int(1)))):
            assert got == want, kind
            assert net_utilities(got) == net_utilities(want), kind


def test_agent_spec_window_is_half_open():
    a = AgentSpec("a", 2, 5)
    assert a.window == F(3)
    assert a.available_at(F(2))
    assert a.available_at(F(4))
    assert not a.available_at(F(5))
    assert not a.available_at(F(1))


def test_agent_spec_rejects_empty_window():
    with pytest.raises(EmptyWindow):
        AgentSpec("a", 5, 5)
    with pytest.raises(EmptyWindow):
        AgentSpec("a", 5, 3)


def test_agent_spec_coerces_times():
    a = AgentSpec("a", "1/2", "7/2")
    assert a.t_arrive == F(1, 2)
    assert a.t_leave == F(7, 2)
    with pytest.raises(TypeError):
        AgentSpec("a", 0.5, 2)


def test_game_params_validation():
    p = GameParams(u=2, c="1/2")
    assert p.u == F(2)
    assert p.c == F(1, 2)
    with pytest.raises(ValueError):
        GameParams(u=0)
    with pytest.raises(ValueError):
        GameParams(c=-1)
    assert [f.name for f in dataclasses.fields(GameParams)] == ["u", "c"]


def test_segment_requires_length_and_members():
    s = seg(0, 4, {"a"})
    assert s.length == F(4)
    with pytest.raises(ValueError):
        Segment(F(4), F(4), frozenset({"a"}))
    with pytest.raises(ValueError):
        Segment(F(0), F(4), frozenset())


def test_active_period_rejects_negative_length():
    assert ActivePeriod("a", 0, 4).length == F(4)
    with pytest.raises(ValueError):
        ActivePeriod("a", 4, 0)


# ----------------------------------------------------------- stream validity


def test_validate_stream_singleton():
    a = AgentSpec("a", 0, 10)
    assert validate_stream([a]) == [a]


def test_validate_stream_sorts_by_arrival():
    ordered = validate_stream(
        [AgentSpec("b", 4, 16), AgentSpec("a", 0, 10), AgentSpec("c", 8, 20)]
    )
    assert [a.id for a in ordered] == ["a", "b", "c"]


def test_validate_stream_rejects_duplicate_arrivals():
    with pytest.raises(DuplicateArrival):
        validate_stream([AgentSpec("a", 0, 10), AgentSpec("b", 0, 5)])


def test_validate_stream_rejects_empty_and_duplicate_ids():
    with pytest.raises(EmptyStream):
        validate_stream([])
    with pytest.raises(ValueError, match="duplicate agent id"):
        validate_stream([AgentSpec("a", 0, 10), AgentSpec("a", 1, 5)])


@pytest.mark.parametrize("bad", [[1], {"x": 1}, (1, 2), True, 1.0, None])
def test_validate_stream_rejects_ids_that_are_not_str_or_int(bad):
    with pytest.raises(ValueError, match="must be a str or an int"):
        validate_stream([AgentSpec("a", 0, 10), AgentSpec(bad, 1, 5)])


def test_validate_stream_rejects_ids_that_print_alike():
    with pytest.raises(ValueError, match="agent ids 1 and '1' print alike"):
        validate_stream([AgentSpec(1, 0, 10), AgentSpec("1", 1, 5)])
    mixed = [AgentSpec(1, 0, 10), AgentSpec("a", 1, 5), AgentSpec(2, 2, 6)]
    assert validate_stream(mixed) == mixed


def test_availability_union_and_duration():
    assert _union((a.t_arrive, a.t_leave) for a in S1) == [(F(0), F(20))]
    assert game_duration(S1) == F(20)
    gap = [AgentSpec("a", 0, 4), AgentSpec("b", 6, 9)]
    assert _union((a.t_arrive, a.t_leave) for a in gap) == [(F(0), F(4)), (F(6), F(9))]
    assert game_duration(gap) == F(7)
    assert _union([(F(4), F(5)), (F(0), F(2)), (F(2), F(3))]) == [(F(0), F(3)), (F(4), F(5))]


def test_game_duration_validates_a_raw_stream():
    with pytest.raises(EmptyStream):
        game_duration([])
    with pytest.raises(ValueError, match="^duplicate agent id 'a'$"):
        game_duration([AgentSpec("a", 0, 1), AgentSpec("a", 0, 2)])


def test_stream_segments_cut_at_every_event():
    assert stream_segments(list(S1)) == [
        seg(0, 4, {"a1"}),
        seg(4, 8, {"a1", "a2"}),
        seg(8, 10, {"a1", "a2", "a3"}),
        seg(10, 16, {"a2", "a3"}),
        seg(16, 20, {"a3"}),
    ]


def test_stream_segments_skip_availability_holes():
    stream = [AgentSpec("a", 0, 4), AgentSpec("b", 6, 9)]
    assert stream_segments(stream) == [seg(0, 4, {"a"}), seg(6, 9, {"b"})]


# ------------------------------------------------------ segment decomposition


def test_eas_segments_alone_is_one_segment(s1):
    a1 = s1[0]
    assert eas_segments(a1, [a1]) == [seg(0, 10, {"a1"})]


def test_eas_segments_cut_only_at_known_departures(s1):
    a1, a2, a3 = s1
    assert eas_segments(a2, [a1, a2]) == [
        seg(4, 10, {"a1", "a2"}),
        seg(10, 16, {"a2"}),
    ]
    assert eas_segments(a3, s1) == [
        seg(8, 10, {"a1", "a2", "a3"}),
        seg(10, 16, {"a2", "a3"}),
        seg(16, 20, {"a3"}),
    ]


def test_eas_segments_reject_bad_present_set(s1):
    a1, a2, a3 = s1
    with pytest.raises(InvalidPresentSet):
        eas_segments(a2, [a1])  # the agent itself is missing
    with pytest.raises(InvalidPresentSet):
        eas_segments(a2, [a1, a2, a3])  # a3 has not arrived at t=4


def test_eps_segments_include_later_arrivals(s1):
    a1, a2, a3 = s1
    assert eps_segments(a1, s1) == [
        seg(0, 4, {"a1"}),
        seg(4, 8, {"a1", "a2"}),
        seg(8, 10, {"a1", "a2", "a3"}),
    ]
    assert eps_segments(a2, s1) == [
        seg(4, 8, {"a1", "a2"}),
        seg(8, 10, {"a1", "a2", "a3"}),
        seg(10, 16, {"a2", "a3"}),
    ]
    # nobody arrives after a3, so its two views coincide
    assert eps_segments(a3, s1) == eas_segments(a3, s1)


def test_eps_segments_reject_unknown_agent(s1):
    with pytest.raises(UnknownAgent):
        eps_segments(AgentSpec("zz", 1, 2), s1)


@pytest.mark.parametrize("read", [eps_segments, ex_post_share])
@pytest.mark.parametrize("window", [(0, 100), (5, 6), (0, 9), (1, 10)])
def test_ex_post_readers_reject_a_known_id_with_another_window(s1, read, window):
    # a1's id with a window the stream does not hold: [0, 100) once got all
    # 5 segments, [5, 6) a1's share 20/3
    with pytest.raises(UnknownAgent, match="'a1'"):
        read(AgentSpec("a1", *window), s1)
    assert read(AgentSpec("a1", 0, 10), s1) == read(s1[0], stream_shares(s1))


def test_duration_and_schedule_audit_take_a_sweep(s1):
    sweep = stream_shares(s1)
    gap = [AgentSpec("a", 0, 4), AgentSpec("b", 6, 9)]
    assert game_duration(sweep) == game_duration(s1) == F(20)
    assert game_duration(stream_shares(gap)) == F(7)
    schedule = run_mechanism("sg", s1).schedule
    assert validate_schedule(schedule, sweep) == validate_schedule(schedule, s1) == []
    idle = Schedule(schedule.periods[1:], ())
    assert validate_schedule(idle, sweep) == validate_schedule(idle, s1) != []


def test_a_sweep_is_built_from_its_stream(s1):
    shares = StreamShares(reversed(s1))
    assert shares.stream == tuple(s1) and shares == stream_shares(s1)
    assert shares.ex_post == {"a1": F(20, 3), "a2": F(17, 3), "a3": F(23, 3)}
    with pytest.raises(EmptyStream):
        StreamShares(())


def test_a_replaced_sweep_sweeps_its_new_stream(s1):
    # the old tick view gave an IndexError for the shorter stream and a1's
    # old shares for the one of the same length
    shares = stream_shares(s1)
    for other in (s1[:2], (s1[0], AgentSpec("a2", 4, 12), s1[2])):
        moved = dataclasses.replace(shares, stream=other)
        assert moved == stream_shares(other) != shares
        assert moved.ex_post == stream_shares(other).ex_post
        assert moved.ex_ante == stream_shares(other).ex_ante
        assert moved.segments == stream_shares(other).segments


# ------------------------------------------------------------------- shares


def test_ex_ante_share_fixtures(s1):
    a1, a2, _ = s1
    assert ex_ante_share(a1, [a1]) == F(10)
    assert ex_ante_share(a2, [a1, a2]) == F(9)  # 6/2 + 6
    assert ex_ante_share(a2, [a1, a2], GameParams(c=2)) == F(11)  # + c/u


def test_ex_post_share_fixtures(s1):
    a1, a2, a3 = s1
    assert ex_post_share(a1, s1) == F(20, 3)  # 4 + 2 + 2/3
    assert ex_post_share(a2, s1) == F(17, 3)  # 2 + 2/3 + 3
    assert ex_post_share(a3, s1) == F(23, 3)  # 2/3 + 3 + 4


# --------------------------------------------------------------- efficiency

RG_S1_PERIODS = (
    ActivePeriod("a1", 0, 4),
    ActivePeriod("a2", 4, 8),
    ActivePeriod("a3", 8, 20),
)


def test_efficiency_single_agent_is_zero():
    a = AgentSpec("a", 0, 10)
    sched = Schedule(periods=(ActivePeriod("a", 0, 10),), switches=())
    assert efficiency(sched, [a], GameParams()) == F(0)


def test_efficiency_counts_availability_not_spent_leading(s1):
    sched = Schedule(periods=RG_S1_PERIODS, switches=())
    # (10-4) + (12-4) + (12-12)
    assert efficiency(sched, s1, GameParams()) == F(14)


def test_efficiency_subtracts_rotation_costs(s1):
    rot = SwitchEvent(8, "a2", "a3", SwitchKind.ROTATION, n_r=3, cost=F(3))
    sched = Schedule(periods=RG_S1_PERIODS, switches=(rot,))
    assert efficiency(sched, s1, GameParams(c=1)) == F(11)


def test_efficiency_sweeps_no_raw_stream(rng, monkeypatch):
    """A raw stream is validated, not swept: same value, same errors."""
    params = GameParams(c=1)
    cases = []
    for _ in range(20):
        stream = random_stream(rng)
        outcome = run_mechanism(MechanismKind.SINGLE_GAME, stream, params)
        cases.append((outcome.schedule, stream,
                      efficiency(outcome.schedule, outcome.shares, params)))

    def no_sweep(*args):
        raise AssertionError("efficiency swept a stream")

    monkeypatch.setattr("socd.model._sweep", no_sweep)
    for schedule, stream, swept in cases:
        assert efficiency(schedule, stream, params) == swept
    schedule = cases[0][0]
    with pytest.raises(EmptyStream):
        efficiency(schedule, [], params)
    with pytest.raises(DuplicateArrival):
        efficiency(schedule, [AgentSpec("a", 0, 4), AgentSpec("b", 0, 5)], params)


# --------------------------------------------------------- schedule auditing


def kinds(violations) -> set[str]:
    return {v.kind for v in violations}


def test_validate_schedule_accepts_exact_tiling(s1):
    sched = Schedule(periods=RG_S1_PERIODS, switches=())
    assert validate_schedule(sched, s1) == []


def test_validate_schedule_flags_agent_active_while_absent(s1):
    sched = Schedule(
        periods=(ActivePeriod("a1", 0, 4), ActivePeriod("a3", 4, 20)),
        switches=(),
    )
    flagged = validate_schedule(sched, s1)
    assert any(v.kind == "active_while_absent" and v.agent == "a3" for v in flagged)


def test_validate_schedule_flags_unknown_agent(s1):
    sched = Schedule(
        periods=RG_S1_PERIODS + (ActivePeriod("zz", 18, 20),), switches=()
    )
    assert any(
        v.kind == "active_while_absent" and v.agent == "zz"
        for v in validate_schedule(sched, s1)
    )


def test_validate_schedule_flags_gap(s1):
    sched = Schedule(
        periods=(ActivePeriod("a1", 0, 4), ActivePeriod("a2", 6, 16),
                 ActivePeriod("a3", 16, 20)),
        switches=(),
    )
    flagged = validate_schedule(sched, s1)
    assert any(v.kind == "gap" and v.start == F(4) and v.end == F(6) for v in flagged)


def test_validate_schedule_flags_overlap(s1):
    sched = Schedule(
        periods=(ActivePeriod("a1", 0, 6), ActivePeriod("a2", 4, 16),
                 ActivePeriod("a3", 16, 20)),
        switches=(),
    )
    assert "overlap" in kinds(validate_schedule(sched, s1))


def test_validate_schedule_flags_idle_available_time(s1):
    # nobody covers [0, 2) although a1 is available there
    sched = Schedule(
        periods=(ActivePeriod("a1", 2, 8), ActivePeriod("a3", 8, 20)),
        switches=(),
    )
    flagged = validate_schedule(sched, s1)
    assert any(
        v.kind == "inactive_available_time" and v.start == F(0) and v.end == F(2)
        for v in flagged
    )


def test_validate_schedule_flags_trailing_idle_time(s1):
    def idle(start, end):
        return Violation("inactive_available_time", F(start), F(end), None,
                         "available time with no active agent")

    assert validate_schedule(Schedule((), ()), s1) == [idle(0, 20)]
    short = Schedule((ActivePeriod("a1", 0, 4), ActivePeriod("a2", 4, 16)), ())
    assert validate_schedule(short, s1) == [idle(16, 20)]


@st.composite
def audits(draw):
    """A stream with holes and a schedule whose periods may name unknown
    agents, lie outside every window, overlap or have zero length."""
    stream = draw(streams(max_agents=7))
    instants = sorted({t for a in stream for t in (a.t_arrive, a.t_leave)})
    time = st.sampled_from(instants) | st.integers(-4, 104).map(lambda k: F(k, 2))
    agent = st.sampled_from([a.id for a in stream] + ["zz"])
    periods = []
    for _ in range(draw(st.integers(0, 8))):
        start, stop = sorted((draw(time), draw(time)))
        periods.append(ActivePeriod(draw(agent), start, stop))
    return stream, Schedule(tuple(periods), ())


# b leads across the hole [4, 6), zz outside every window, a for no time
HOLEY_AUDIT = (
    [AgentSpec("a", 0, 4), AgentSpec("b", 6, 9)],
    Schedule((ActivePeriod("b", 3, 7), ActivePeriod("zz", 10, 12),
              ActivePeriod("a", 1, 1)), ()),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(audits())
@example(HOLEY_AUDIT)
@example(([AgentSpec("a", 0, 4), AgentSpec("b", 6, 9)], Schedule((), ())))
def test_uncovered_time_matches_its_definition(case):
    stream, schedule = case
    found = [(v.kind, v.start, v.end) for v in validate_schedule(schedule, stream)
             if v.kind in ("gap", "inactive_available_time")]
    assert found == schedule_oracle.uncovered(schedule, stream)


def test_fixed_audit_example_is_the_case_it_names():
    stream, schedule = HOLEY_AUDIT
    # a's empty period covers nothing but starts the schedule at 1
    assert schedule_oracle.uncovered(schedule, stream) == [
        ("inactive_available_time", F(0), F(3)), ("gap", F(7), F(9)),
    ]


def test_a_long_schedule_audits_in_time():
    # 10**5 one-agent windows [2i, 2i + 1), each led by its agent: an audit
    # that rescanned every period for every stretch was quadratic.  In a
    # subprocess, so a regression fails on the timeout instead of hanging
    # the suite.
    code = (
        "from socd import ActivePeriod, AgentSpec, Schedule, validate_schedule\n"
        "stream = [AgentSpec(i, 2 * i, 2 * i + 1) for i in range(100_000)]\n"
        "periods = [ActivePeriod(i, 2 * i, 2 * i + 1) for i in range(100_000)]\n"
        "print(validate_schedule(Schedule(periods, ()), stream))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(socd.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_validate_schedule_audits_switch_chains_when_present(s1):
    join = SwitchEvent(4, "a1", "a2", SwitchKind.FRONT_JOIN, n_r=2, cost=F(0))
    # one boundary documented, the other (at t=8) missing
    sched = Schedule(periods=RG_S1_PERIODS, switches=(join,))
    flagged = validate_schedule(sched, s1)
    assert kinds(flagged) == {"switch_mismatch"}
    assert flagged[0].start == F(8)

    complete = Schedule(
        periods=RG_S1_PERIODS,
        switches=(join, SwitchEvent(8, "a2", "a3", SwitchKind.FRONT_JOIN, 3, F(0))),
    )
    assert validate_schedule(complete, s1) == []


def test_validate_schedule_flags_wrong_chain_endpoints(s1):
    sched = Schedule(
        periods=RG_S1_PERIODS,
        switches=(
            SwitchEvent(4, "a1", "a2", SwitchKind.FRONT_JOIN, 2, F(0)),
            SwitchEvent(8, "a3", "a2", SwitchKind.FRONT_JOIN, 3, F(0)),  # reversed
        ),
    )
    assert "switch_mismatch" in kinds(validate_schedule(sched, s1))


def test_validate_schedule_flags_switch_at_non_boundary(s1):
    sched = Schedule(
        periods=RG_S1_PERIODS,
        switches=(
            SwitchEvent(4, "a1", "a2", SwitchKind.FRONT_JOIN, 2, F(0)),
            SwitchEvent(8, "a2", "a3", SwitchKind.FRONT_JOIN, 3, F(0)),
            SwitchEvent(9, "a3", "a3", SwitchKind.FRONT_JOIN, 3, F(0)),
        ),
    )
    flagged = validate_schedule(sched, s1)
    assert any(v.kind == "switch_mismatch" and v.start == F(9) for v in flagged)


# ------------------------------------------------------ randomized invariants


def per_segment_schedule(stream) -> Schedule:
    """A trivially valid allocation: each realized segment goes to one member."""
    periods = tuple(
        ActivePeriod(min(s.members, key=str), s.start, s.end)
        for s in stream_segments(stream)
    )
    return Schedule(periods=periods, switches=())


def test_share_identities_on_random_streams():
    rng = np.random.default_rng(7)
    for _ in range(300):
        stream = random_stream(rng)
        params = GameParams(c=F(int(rng.integers(0, 3)), int(rng.choice([1, 2]))))
        total = game_duration(stream)

        # realized shares partition the whole game once the c/u term is removed
        shares = [ex_post_share(a, stream, params) for a in stream]
        assert sum(shares) - len(stream) * params.c / params.u == total

        for a in stream:
            present = [p for p in stream if p.available_at(a.t_arrive)]
            eas = eas_segments(a, present)
            # the known member count can only shrink along the window
            counts = [len(s.members) for s in eas]
            assert counts == sorted(counts, reverse=True)
            # with no later arrival strictly inside the window, both views agree
            if not any(
                a.t_arrive < b.t_arrive < a.t_leave for b in stream if b.id != a.id
            ):
                assert ex_ante_share(a, present, params) == ex_post_share(
                    a, stream, params
                )


def test_schedule_accounting_on_random_streams():
    rng = np.random.default_rng(8)
    for _ in range(200):
        stream = random_stream(rng)
        sched = per_segment_schedule(stream)
        assert validate_schedule(sched, stream) == []

        total = game_duration(stream)
        assert sum((p.length for p in sched.periods), F(0)) == total

        # agent-wise efficiency equals the segment-wise closed form
        params = GameParams(u=F(int(rng.integers(1, 4))))
        segwise = sum(
            (len(s.members) - 1) * s.length * params.u
            for s in stream_segments(stream)
        )
        assert efficiency(sched, stream, params) == segwise
