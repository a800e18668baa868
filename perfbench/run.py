"""Run one socd benchmark workload and print its metrics.

    python3 perfbench/run.py --workload games --seed 1 --seconds 30 --trace 0

Run from the root of a socd checkout; socd is imported from its `src/`.
Tasks from the workload (see README.md) run one after another, in this
process, until their summed wall time reaches `--seconds`.  Every task's
artifacts are checked after its timed interval.  With `--trace 0` the last
line of output holds the end-to-end metrics; with `--trace 1` each task runs
once untraced and once with every public socd function wrapped, and the
last line holds the per-layer metrics.  Earlier lines are for people: the
machine and commit, failed_frac (failed tasks over tasks attempted, the
warm-up included), every metric with its unit and sample count, and the
`wall.` (uncalibrated) and `cpu.` (process CPU time) twins of the
calibrated times (see probe.py).  `--details FILE` writes all of these as
JSON as well, for baseline.py.
Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402

SETUP_REPEATS = 15
SHOWN_FAILURES = 5


def end_to_end(results: list[bench.TaskResult], setup: list[tuple[float, float]]
               ) -> dict[str, tuple[float, str, int]]:
    """End-to-end metrics as (value, unit, sample count), over passing tasks.

    Times are calibrated (see probe.py).  The `wall.` twins are uncalibrated
    and the `cpu.` twins are process CPU time; they are not BENCHMARK.json
    metrics and only show what the calibration removes.
    """
    ok = [r for r in results if r.ok]
    metrics = {}
    for prefix, task_s, setup_s in (
        ("", lambda r: r.seconds, [cal for _, cal in setup]),
        ("wall.", lambda r: r.wall_s, [wall for wall, _ in setup]),
        ("cpu.", lambda r: r.cpu_s, None),
    ):
        metrics[prefix + "participations_per_s"] = (
            statistics.median(r.outcomes / task_s(r) for r in ok) if ok else 0.0,
            "1/s", len(ok))
        metrics[prefix + "task_p50_s"] = (
            statistics.median(task_s(r) for r in ok) if ok else 0.0, "s", len(ok))
        if setup_s is not None:
            metrics[prefix + "setup_s"] = (statistics.median(setup_s), "s", len(setup_s))
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    return metrics


def per_layer(calls: dict[str, int], self_s: dict[str, float],
              traced: list[bench.TaskResult], untraced: list[bench.TaskResult]
              ) -> dict[str, tuple[float, str, int]]:
    n = len(traced)
    metrics = {}
    for name in bench.span_names():
        metrics[f"{name}.calls"] = (calls[name] / n, "count", n)
        metrics[f"{name}.self_s"] = (self_s[name] / n, "s", n)
    metrics["cli.emit.bytes"] = (sum(r.emitted_bytes for r in traced) / n, "bytes", n)
    traced_s = sum(r.seconds for r in traced)
    overhead = 1 - sum(r.seconds for r in untraced) / traced_s if traced_s else 0.0
    metrics["trace.overhead_frac"] = (overhead, "fraction", n)
    return metrics


def measure(cli, workload: str, seed: int, seconds: float, trace: bool,
            digests: dict[str, str], work: Path):
    """Run tasks until their wall time reaches `seconds`.

    Returns the untraced results, the traced results, the warm-up result, and
    per-span call counts and calibrated self times summed over traced tasks.
    """
    warm = bench.run_task(cli, bench.Task(workload, 0, tiny=True), work, None)
    results: list[bench.TaskResult] = []
    traced: list[bench.TaskResult] = []
    calls = dict.fromkeys(bench.span_names(), 0)
    self_s = dict.fromkeys(bench.span_names(), 0.0)
    spent = 0.0
    for task in bench.draw_tasks(workload, seed):
        if spent >= seconds:
            break
        expected = digests[task.key]
        result = bench.run_task(cli, task, work, expected)
        results.append(result)
        # A failed task uses up all the time it took, so that a run in which
        # every call fails at once still ends.
        spent += result.wall_s if result.ok else result.elapsed_s
        if trace:
            tracer = bench.Tracer()
            tracer.install()
            try:
                again = bench.run_task(cli, task, work, expected)
            finally:
                tracer.uninstall()
            traced.append(again)
            spent += again.wall_s if again.ok else again.elapsed_s
            scale = again.seconds / again.wall_s if again.wall_s else 0.0
            for name in calls:
                calls[name] += tracer.calls[name]
                self_s[name] += tracer.self_s[name] * scale
    return results, traced, warm, calls, self_s


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--details", type=Path,
                        help="also write every metric, twins included, as JSON here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    work = bench.ROOT / ".perfbench_work" / str(os.getpid())
    try:
        cli = bench.load_cli()
        digests = bench.load_digests()
        setup = [bench.import_seconds() for _ in range(SETUP_REPEATS)]
        work.mkdir(parents=True, exist_ok=True)
        results, traced, warm, calls, self_s = measure(
            cli, args.workload, args.seed, args.seconds, bool(args.trace), digests, work)
    except bench.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    everything = [warm, *results, *traced]
    failures = [r for r in everything if not r.ok]
    for r in failures[:SHOWN_FAILURES]:
        print(f"# FAILED {r.task.key}: {r.error}", file=sys.stderr)
    if len(failures) > SHOWN_FAILURES:
        print(f"# ... and {len(failures) - SHOWN_FAILURES} more failed tasks",
              file=sys.stderr)
    failed = len(failures)
    if args.trace:
        shown = per_layer(calls, self_s, traced, results)
    else:
        shown = end_to_end(results, setup)
    metrics = {k: v for k, v in shown.items() if not k.startswith(("wall.", "cpu."))}
    env = bench.environment_stamp()
    failed_frac = failed / len(everything)
    print(f"# socd perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# failed_frac {failed_frac!r} fraction (n={len(everything)})")
    for name, (value, unit, n) in shown.items():
        print(f"# {name} {value!r} {unit} (n={n})")
    if args.details:
        args.details.parent.mkdir(parents=True, exist_ok=True)
        args.details.write_text(json.dumps({
            "env": env, "failed_frac": failed_frac,
            "metrics": {name: {"value": value, "unit": unit, "n": n}
                        for name, (value, unit, n) in shown.items()},
        }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
