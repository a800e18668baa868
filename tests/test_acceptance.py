"""Acceptance gate: ten checks, each printing one PASS/FAIL line.

The lines bypass pytest's capture so they show up in any run.  Checks that
sweep random streams share one session-scoped corpus; checks with a time
budget measure their own wall clock and fail when they overrun it.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from socd import (
    AgentSpec,
    GameParams,
    HighwayParams,
    MechanismKind,
    RingRoadParams,
    SwitchKind,
    aggregate_curves,
    eas_segments,
    eps_segments,
    ex_ante_share,
    ex_post_share,
    game_duration,
    gini,
    highway_experiment,
    net_utilities,
    ring_road_experiment,
    run_mechanism,
    validate_stream,
)
from socd.cli import main as cli_main
from conftest import S1, random_stream
from test_mechanisms import sg_oracle


def _report(capsys, criterion: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


def _notes(capsys, lines: list[str]) -> None:
    with capsys.disabled():
        print("\n" + "\n".join("  " + line for line in lines))


@pytest.fixture(scope="session")
def corpus():
    rng = np.random.default_rng(77)
    return [validate_stream(random_stream(rng)) for _ in range(1000)]


def _initial_allocation(agent: AgentSpec, stream, params: GameParams) -> F:
    present = [b for b in stream if b.available_at(agent.t_arrive)]
    return ex_ante_share(agent, present, params)


def test_criterion_01_payment_transfer_equitability(corpus, capsys):
    # every follower's payments must leave it with exactly the utility of
    # leading its realized proportional share itself
    params = GameParams()
    t0 = time.perf_counter()
    bad = 0
    agents_checked = 0
    for stream in corpus:
        outcome = run_mechanism("pt", stream, params)
        nets = net_utilities(outcome)
        if sum(outcome.ledger.net.values(), F(0)) != 0:
            bad += 1
        for a in stream:
            expected = params.u * (a.window - ex_post_share(a, stream, params))
            if nets[a.id] != expected:
                bad += 1
            agents_checked += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 10.0
    _report(
        capsys, 1, ok,
        f"net utility equals u*(window - ex-post share) exactly for "
        f"{agents_checked} agents over {len(corpus)} streams; ledgers "
        f"zero-sum; {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_02_shares_partition_the_game(corpus, capsys):
    bad = 0
    for i, stream in enumerate(corpus):
        for params in ((GameParams(), GameParams(u=F(2), c=F(3, 2)))
                       if i < 100 else (GameParams(),)):
            total = sum(
                (ex_post_share(a, stream, params) - params.c / params.u
                 for a in stream),
                F(0),
            )
            if total != game_duration(stream):
                bad += 1
    _report(
        capsys, 2, bad == 0,
        f"ex-post shares minus the switch allowance sum exactly to the "
        f"availability-union duration on {len(corpus)} streams",
    )


def test_criterion_03_ante_equals_post_without_later_arrivals(corpus, capsys):
    bad = 0
    compared = 0
    for stream in corpus:
        for a in stream:
            if any(a.t_arrive < b.t_arrive < a.t_leave for b in stream):
                continue
            present = [b for b in stream if b.available_at(a.t_arrive)]
            if eas_segments(a, present) != eps_segments(a, stream):
                bad += 1
            compared += 1
    ok = bad == 0 and compared >= len(corpus)
    _report(
        capsys, 3, ok,
        f"arrival-time and realized segmentations agree exactly for all "
        f"{compared} agents whose window sees no later arrival",
    )


def test_criterion_04_rotation_and_lead_bounds(corpus, capsys):
    params = GameParams()
    repeat_rotations = 0
    lead_overruns = 0
    stray_rotations = 0
    for stream in corpus:
        for kind in (MechanismKind.SINGLE_GAME,
                     MechanismKind.SINGLE_GAME_DYNAMIC):
            outcome = run_mechanism(kind, stream, params)
            per_agent = Counter(
                ev.outgoing for ev in outcome.schedule.switches
                if ev.kind is SwitchKind.ROTATION
            )
            if per_agent and max(per_agent.values()) > 1:
                repeat_rotations += 1
            assigned = outcome.lead_shares
            for a in stream:
                if assigned[a.id] > _initial_allocation(a, stream, params):
                    lead_overruns += 1
        for kind in (MechanismKind.PAYMENT_TRANSFER,
                     MechanismKind.REPEATED_GAME):
            outcome = run_mechanism(kind, stream, params)
            if outcome.rotation_costs or any(
                ev.kind is SwitchKind.ROTATION
                for ev in outcome.schedule.switches
            ):
                stray_rotations += 1
    ok = repeat_rotations == 0 and lead_overruns == 0 and stray_rotations == 0
    _report(
        capsys, 4, ok,
        f"on {len(corpus)} streams no agent rotates twice, no lead exceeds "
        f"the allocation fixed at arrival (both single-game variants), and "
        f"payment/repeated mechanisms never rotate "
        f"(violations: {repeat_rotations}/{lead_overruns}/{stray_rotations})",
    )


def test_criterion_05_equal_division_witness(capsys):
    # b arrives at t=9, inside the last stretch of a's window [0, 10); a has
    # led 9 units by then, so no continuation can reach the equal split of
    # 11/2 each.  Frozen outcomes: plain keeps a in front to its full claim
    # (10, 1); the adjusting variant rotates a out at 19/2 for (19/2, 3/2).
    stream = [AgentSpec("a", 0, 10), AgentSpec("b", 9, 11)]
    equal_split = game_duration(stream) / 2
    plain = run_mechanism(MechanismKind.SINGLE_GAME, stream).lead_shares
    adjusted = run_mechanism(MechanismKind.SINGLE_GAME_DYNAMIC, stream).lead_shares
    ok = (
        plain == {"a": F(10), "b": F(1)}
        and adjusted == {"a": F(19, 2), "b": F(3, 2)}
        and plain["a"] != plain["b"]
        and adjusted["a"] != adjusted["b"]
        and equal_split not in (plain["a"], adjusted["a"])
    )
    _report(
        capsys, 5, ok,
        "a late arrival during the final leader's last stretch leaves both "
        f"single-game variants short of the equal split {equal_split}: "
        f"plain {dict(plain)}, adjusted {dict(adjusted)}",
    )


def test_criterion_06_reference_game_exact(capsys):
    # Windows a1=[0,10) a2=[4,16) a3=[8,20), u=1, c=0.  Hand traces:
    #
    # repeated game: each newcomer takes the front, the previous front
    #   resumes on its exit.  a1 leads [0,4), a2 [4,8), a3 [8,20)
    #   -> (4, 4, 12).
    # single game: leaders serve in exit order, each up to the claim fixed
    #   at its arrival.  a1 claims its whole window 10 and leads [0,10);
    #   a2 claims (10-4)/2 + (16-10)/1 = 9 but exits at 16, leading
    #   [10,16) = 6; a3 leads the rest [16,20) = 4 -> (10, 6, 4).
    # single game, dynamic: a2's arrival at 4 cuts a1's claim by the shared
    #   half of [4,10): 10 - 3 = 7, so a1 rotates out at t=7 and a2 leads.
    #   a3's arrival at 8 claims (10-8)/3 + (16-10)/2 + (20-16)/1 = 23/3
    #   and cuts a2 (the only unfinished co-rider) by 2/3 + 3: a2's
    #   remaining 8 - 11/3 = 13/3 runs out at t = 8 + 13/3 = 37/3, then
    #   a3 leads [37/3, 20) -> (7, 16/3, 23/3).
    # payment transfer: the earliest-exit rider leads, followers pay
    #   |seg|*u/n each.  a1 leads [0,10) collecting 2 + 2/3 + 2/3 = 10/3;
    #   a2 leads [10,16) paying 2 + 2/3, collecting 3; a3 leads [16,20)
    #   paying 2/3 + 3 -> leads (10, 6, 4), transfers (10/3, 1/3, -11/3).
    #
    # realized proportional shares: a1 = 4/3+4/3+4 = 20/3,
    # a2 = 4/3+4/3+3... = 17/3 by the same per-segment split, a3 = 23/3.
    stream = list(S1)
    params = GameParams()
    checks: list[bool] = []

    rg = run_mechanism("rg", stream, params)
    checks.append(rg.lead_shares == {"a1": F(4), "a2": F(4), "a3": F(12)})
    checks.append(
        [(p.agent, p.start, p.stop) for p in rg.schedule.periods]
        == [("a1", 0, 4), ("a2", 4, 8), ("a3", 8, 20)]
    )

    sg = run_mechanism(MechanismKind.SINGLE_GAME, stream, params)
    checks.append(sg.lead_shares == {"a1": F(10), "a2": F(6), "a3": F(4)})
    oracle_led, oracle_rots, _ = sg_oracle(stream)
    checks.append(oracle_led == sg.lead_shares
                  and sum(oracle_rots.values()) == 0)

    da = run_mechanism(MechanismKind.SINGLE_GAME_DYNAMIC, stream, params)
    checks.append(da.lead_shares == {"a1": F(7), "a2": F(16, 3), "a3": F(23, 3)})
    oracle_led, oracle_rots, oracle_log = sg_oracle(stream, dynamic_adjust=True)
    checks.append(oracle_led == da.lead_shares
                  and sum(oracle_rots.values()) == 2)
    checks.append([(t, who) for t, who, _ in oracle_log]
                  == [(F(7), "a1"), (F(37, 3), "a2")])

    pt = run_mechanism("pt", stream, params)
    checks.append(pt.lead_shares == {"a1": F(10), "a2": F(6), "a3": F(4)})
    checks.append(pt.ledger.net == {"a1": F(10, 3), "a2": F(1, 3),
                                    "a3": F(-11, 3)})
    nets = net_utilities(pt)
    checks.append(nets == {"a1": F(10, 3), "a2": F(19, 3), "a3": F(13, 3)})

    epps = {a.id: ex_post_share(a, stream, params) for a in stream}
    checks.append(epps == {"a1": F(20, 3), "a2": F(17, 3), "a3": F(23, 3)})

    _report(
        capsys, 6, all(checks),
        "three-agent reference game reproduced exactly by all four "
        "mechanisms and the independent step-by-step oracle "
        f"({sum(checks)}/{len(checks)} checks)",
    )


TABLE_TARGETS = {
    ("rg", "uniform"): 0.55,
    ("sg", "uniform"): 0.44,
    ("sg-da", "uniform"): 0.06,
    ("rg", "bimodal"): 0.80,
    ("sg", "bimodal"): 0.69,
    ("sg-da", "bimodal"): 0.02,
}


def test_criterion_07_gini_comparison_table(capsys):
    n_seeds = 20
    tolerance = 0.10
    t0 = time.perf_counter()
    means: dict[tuple[str, str], float] = {}
    for config in ("uniform", "bimodal"):
        cells: dict[str, list[float]] = {}
        for seed in range(n_seeds):
            result = highway_experiment(
                HighwayParams(configuration=config, seed=seed)
            )
            for kind, value in result.gini_cells.items():
                cells.setdefault(kind, []).append(value)
        for kind, values in cells.items():
            means[(kind, config)] = sum(values) / len(values)
    elapsed = time.perf_counter() - t0

    failing: list[str] = []
    cell_lines: list[str] = []
    for (kind, config), target in TABLE_TARGETS.items():
        got = means[(kind, config)]
        delta = got - target
        cell_ok = abs(delta) <= tolerance
        cell_lines.append(f"{kind}/{config}: mean gini {got:.3f}, target "
                          f"{target:.2f} +-{tolerance:.2f}, delta {delta:+.3f} "
                          f"{'ok' if cell_ok else 'FAIL'}")
        if not cell_ok:
            failing.append(f"{kind}/{config} {delta:+.3f}")
    _notes(capsys, cell_lines)
    ordered = all(
        means[("sg-da", c)] < means[("sg", c)] < means[("rg", c)]
        for c in ("uniform", "bimodal")
    )
    if not ordered:
        failing.append("mechanism ordering broken")
    if elapsed >= 60.0:
        failing.append(f"overran budget: {elapsed:.0f}s")

    detail = (f"gini table over {n_seeds} seeds, {elapsed:.0f}s (budget 60s)")
    if failing:
        detail += ("; failing cells: " + ", ".join(failing)
                   + "; cause open, see docs/criterion7.md")
    else:
        detail += "; all six cells within tolerance, ordering strict"
    _report(capsys, 7, not failing, detail)


def test_criterion_08_ring_road_convergence(capsys):
    n_seeds = 5
    t0 = time.perf_counter()
    curves = [
        ring_road_experiment(RingRoadParams(seed=seed)).curve
        for seed in range(n_seeds)
    ]
    merged = aggregate_curves(curves)
    elapsed = time.perf_counter() - t0

    xs = [x for x, _ in merged.points]
    ys = [y for _, y in merged.points]
    crossing = next((x for x, y in merged.points if y < 0.10), None)
    final_x, final_y = merged.points[-1]

    window = 5
    smooth = np.convolve(ys, np.ones(window) / window, mode="valid")
    smooth_x = xs[window // 2: window // 2 + len(smooth)]
    running_min = np.minimum.accumulate(smooth)
    rebound = max(
        (float(s - m) for x, s, m in zip(smooth_x, smooth, running_min)
         if x > 100),
        default=0.0,
    )

    ok = (
        crossing is not None
        and 100 <= crossing <= 500
        and final_x == 1000.0
        and final_y <= 0.01
        and rebound <= 0.005
        and elapsed < 300.0
    )
    _report(
        capsys, 8, ok,
        f"mean unsatisfied fraction over {n_seeds} seeds drops below 0.10 "
        f"at {crossing:g} participations, ends at {final_y:.4f} by "
        f"{final_x:g}, max smoothed rebound {rebound:.4f}; "
        f"{elapsed:.0f}s (budget 300s)",
    )


def test_criterion_09_gini_against_brute_force(capsys):
    def brute(values: np.ndarray) -> float:
        diffs = np.abs(values[:, None] - values[None, :]).sum()
        return float(diffs / (2 * values.size**2 * values.mean()))

    rng = np.random.default_rng(99)
    worst = 0.0
    vectors = 0
    while vectors < 1000:
        n = int(rng.integers(2, 101))
        values = rng.uniform(0.0, 10.0, size=n)
        values[rng.random(n) < 0.1] = 0.0
        if values.sum() == 0.0:
            continue
        worst = max(worst, abs(gini(values) - brute(values)))
        vectors += 1

    fixtures = (
        gini([1, 1, 1, 1]) == 0.0
        and gini([0, 1]) == 0.5
        and gini([1, 3]) == 0.25
    )
    sample = rng.uniform(0.0, 5.0, size=40)
    scale = (
        gini(sample * 2.0) == gini(sample)
        and abs(gini(sample * 3.7) - gini(sample)) <= 1e-12
    )
    ok = worst <= 1e-12 and fixtures and scale
    _report(
        capsys, 9, ok,
        f"sorted-form gini within {worst:.1e} of the pairwise definition "
        f"on {vectors} vectors; fixtures exact; scale invariance holds",
    )


def test_criterion_10_reruns_are_byte_identical(tmp_path, capsys):
    scenarios = {
        "highway": {"experiment": "highway", "params": {"n_convoys": 30}},
        "ring": {
            "experiment": "ring",
            "params": {"n_vehicles": 50, "target_mean_participations": 100},
        },
    }
    identical = True
    compared = 0
    for name, doc in scenarios.items():
        scenario = tmp_path / f"{name}.json"
        scenario.write_text(json.dumps(doc))
        outputs = []
        for attempt in ("first", "second"):
            out_dir = tmp_path / f"{name}_{attempt}"
            if cli_main(["--scenario", str(scenario), "--seed", "1",
                         "--out", str(out_dir)]) != 0:
                identical = False
            outputs.append(
                {p.name: p.read_bytes() for p in out_dir.iterdir()}
            )
        if not outputs[0] or outputs[0] != outputs[1]:
            identical = False
        compared += len(outputs[0])
    capsys.readouterr()  # drop the CLI summary lines from the test output
    _report(
        capsys, 10, identical,
        f"both experiments re-emit {compared} artifact files byte-identical "
        f"across repeated runs",
    )
