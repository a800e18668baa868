"""Self-test of the benchmark at tiny sizes; takes seconds.

    python3 perfbench/selftest.py

Checks that the output checks bite (an altered artifact fails its task),
that tiny tasks of every workload are deterministic and pass, that the
checks' memory does not count toward the peak RSS, that the traced run
records every named span where it should, that calibrated times rise with
added work as wall times do, that run.py prints a well-formed result line,
that it ends with correct:false when every call fails (exit 1, a raise, a
SystemExit), and that it refuses to run without socd's source.  Exits 1 if
any check fails.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
from probe import SpeedProbe  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        failures.append(what)


def flip_last_byte(out: Path) -> None:
    path = sorted(out.iterdir())[0]
    data = path.read_bytes()
    path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))


def edit_result(edit: Callable[[dict], None]) -> Callable[[Path], None]:
    def tamper(out: Path) -> None:
        path = out / "result.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc["mechanisms"]["sg"])
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
    return tamper


def shift_share(mechanism: dict) -> None:
    report = mechanism["share_reports"][0]
    report["ex_post"] = str(Fraction(report["ex_post"]) + Fraction(1, 12))


def drop_period(mechanism: dict) -> None:
    del mechanism["schedule"][1]


def checks_bite(cli, work: Path) -> None:
    for workload in bench.WORKLOADS:
        task = bench.Task(workload, 1, tiny=True)
        out = work / "digest"
        shutil.rmtree(out, ignore_errors=True)
        bench.execute(cli, task, work, out, bench.TaskResult(task))
        digest = bench.artifacts_digest(out)
        shutil.rmtree(out)
        again = bench.run_task(cli, task, work, digest)
        check(again.ok and again.outcomes > 0,
              f"{workload}: tiny task reproduces its digest ({again.error})")
        altered = bench.run_task(cli, task, work, digest, tamper=flip_last_byte)
        check(not altered.ok, f"{workload}: one altered byte fails the task "
                              f"({altered.error})")
    task = bench.Task("games", 2, tiny=True)
    for edit in (shift_share, drop_period):
        altered = bench.run_task(cli, task, work, None, tamper=edit_result(edit))
        check(not altered.ok, f"games: {edit.__name__} fails the content check "
                              f"without a digest ({altered.error})")


def checks_memory_apart(cli, work: Path) -> None:
    """A check that takes 64 MB must leave this process's peak RSS alone."""
    task = bench.Task("games", 4, tiny=True)
    original = bench.check_outputs

    def greedy_check(*args):
        ballast = b"x" * (64 << 20)
        return original(*args) + len(ballast) - len(ballast)

    bench.check_outputs = greedy_check
    try:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = bench.run_task(cli, task, work, None)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        bench.check_outputs = original
    check(result.ok and after - before < 32 << 10,
          f"checks run apart: peak RSS grew {(after - before) >> 10} MB "
          f"for a 64 MB check ({result.error})")


def extra_work(units: int) -> int:
    """CPU work unlike the probe's reference loop: float and string churn."""
    total = 0
    for i in range(units * 1000):
        total += len(f"{i * 1.5:.3f}")
    return total


def calibrated_seconds(fn: Callable[[], object]) -> float:
    with SpeedProbe(bench.PROBE_INTERVAL_S) as probe:
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
    return probe.calibrate(wall)


def calibration_follows_work(cli, work: Path) -> None:
    """Add fixed work worth ~half a highway task to one span: the calibrated
    task time must rise by the calibrated time of that work alone, rather
    than have the rise cancelled by the calibration.  Single tasks vary by
    about a tenth here, hence the large step and the loose tolerance."""
    task = bench.Task("highway", 0)
    base = bench.run_task(cli, task, work, None)
    units = max(1, round(0.5 * base.seconds * 100 / calibrated_seconds(lambda: extra_work(100))))
    original = sys.modules["socd.simulation"].highway_experiment

    def slowed(*args, **kwargs):
        extra_work(units)
        return original(*args, **kwargs)

    rise, alone, results = [], [], []
    for _ in range(4):
        plain = bench.run_task(cli, task, work, None)
        patched = bench.rebind(original, slowed)
        try:
            padded = bench.run_task(cli, task, work, None)
        finally:
            bench.unbind(patched)
        results += [plain, padded]
        rise.append(padded.seconds / plain.seconds - 1)
        alone.append(calibrated_seconds(lambda: extra_work(units)) / plain.seconds)
    rise_p50, alone_p50 = statistics.median(rise), statistics.median(alone)
    check(all(r.ok for r in results) and abs(rise_p50 - alone_p50) < 0.15,
          f"added work raises calibrated task time by {rise_p50:.3f}; "
          f"the work alone takes {alone_p50:.3f} of a task")


def traced_spans(cli, work: Path) -> None:
    calls: dict[str, dict[str, int]] = {}
    self_s: dict[str, dict[str, float]] = {}
    for workload in bench.WORKLOADS:
        tracer = bench.Tracer()
        tracer.install()
        try:
            result = bench.run_task(cli, bench.Task(workload, 3, tiny=True), work, None)
        finally:
            tracer.uninstall()
        check(result.ok, f"{workload}: traced tiny task passes ({result.error})")
        calls[workload], self_s[workload] = tracer.calls, tracer.self_s
    for name in bench.span_names():
        seen = [w for w in bench.WORKLOADS if calls[w][name] > 0]
        check(bool(seen), f"span {name} is recorded (on {', '.join(seen) or 'none'})")
    layered = [n for n in bench.span_names()
               if n.startswith(("model.", "mechanisms."))]
    check(all(calls["ring"][n] == 0 for n in layered),
          "ring: no model.* or mechanisms.* calls")
    check(all(v >= 0 for w in self_s.values() for v in w.values()),
          "self times are non-negative")
    sys_modules = [m for n, m in sys.modules.items() if n.startswith("socd")]
    check(not any(getattr(f, "__wrapped__", None) for m in sys_modules
                  for f in vars(m).values() if callable(f)),
          "uninstall restores every wrapped binding")


def run_py(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False,
    )


def result_line() -> None:
    expected = {0: {"participations_per_s", "task_p50_s", "setup_s", "peak_rss_mb"},
                1: {f"{n}.{k}" for n in bench.span_names() for k in ("calls", "self_s")}
                | {"cli.emit.bytes", "trace.overhead_frac"}}
    for trace, names in expected.items():
        proc = run_py(bench.ROOT, "--workload", "highway", "--seed", "5",
                      "--seconds", "0.1", "--trace", str(trace))
        try:
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            doc = {}
        check(proc.returncode == 0 and doc.get("correct") is True
              and doc.get("failed") == 0 and set(doc.get("metrics", {})) == names,
              f"run.py --trace {trace} prints a correct result line "
              f"(exit {proc.returncode}) {proc.stderr.strip()[-200:]}")


def bare_checkout(root: Path) -> Path:
    """A directory holding only BENCHMARK.json and the benchmark's files."""
    shutil.copytree(bench.BENCH_DIR, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(bench.ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def refuses_bare(work: Path) -> None:
    proc = run_py(bare_checkout(work / "bare"), "--workload", "highway", "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"run.py without socd source exits {proc.returncode} with no result")


FAILING_MAINS = {
    "exit 1": "    return 1\n",
    "ValueError": "    raise ValueError('broken')\n",
    "SystemExit": "    raise SystemExit(2)\n",
}


def failing_cli(work: Path) -> None:
    """A socd whose every call fails must end the run with every task failed."""
    for name, body in FAILING_MAINS.items():
        root = bare_checkout(work / "failing")
        package = root / "src" / "socd"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "cli.py").write_text(f"def main(argv=None):\n{body}", encoding="utf-8")
        proc = run_py(root, "--workload", "highway", "--seed", "0", "--seconds", "1",
                      "--trace", "0")
        try:
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            doc = {}
        check(proc.returncode == 0 and doc.get("correct") is False
              and doc.get("attempted", 0) > 0 and doc.get("failed") == doc.get("attempted"),
              f"main that fails by {name}: run.py ends, every task failed "
              f"(exit {proc.returncode}, {doc.get('failed')}/{doc.get('attempted')})")
        shutil.rmtree(root)


def main() -> int:
    cli = bench.load_cli()
    work = bench.ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        checks_bite(cli, work)
        checks_memory_apart(cli, work)
        traced_spans(cli, work)
        calibration_follows_work(cli, work)
        result_line()
        failing_cli(work)
        refuses_bare(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(f"{len(failures)} failed" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
