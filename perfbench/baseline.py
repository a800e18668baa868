"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/baseline.py --runs 10 --first-seed 1 --out perfbench/baseline.json

For each workload this makes `--runs` untraced runs, one per seed, and one
traced run, each a separate `run.py` process of BENCHMARK.json's
`run_seconds`, run one after another.  It prints each end-to-end metric's
median, quartiles and spread (quartile distance over median), and those of
its uncalibrated `wall.` and CPU-time `cpu.` twins, plus failed_frac over
all tasks, and the per-layer self-time shares of the traced run.  With
`--out` the whole result set, stamped with the machine and commit, is
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py process; its result line, with the metrics (and their
    `wall.` and `cpu.` twins) taken from its --details file."""
    details = bench.ROOT / ".perfbench_work" / f"details-{os.getpid()}.json"
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--details", str(details)],
            cwd=bench.ROOT, capture_output=True, text=True, timeout=600, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"run.py {workload} seed {seed} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["metrics"] = json.loads(details.read_text(encoding="utf-8"))["metrics"]
    finally:
        details.unlink(missing_ok=True)
        if details.parent.is_dir() and not any(details.parent.iterdir()):
            details.parent.rmdir()
    return doc


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "n": len(values), "values": values}


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=bench.WORKLOADS)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    seconds = spec["run_seconds"]
    report: dict = {"env": bench.environment_stamp(), "run_seconds": seconds,
                    "seeds": seeds, "workloads": {}}
    for workload in args.workload or bench.WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry: dict = {"failed_frac": failed / attempted, "attempted": attempted,
                       "end_to_end": {}}
        print(f"{workload}: failed_frac {failed}/{attempted}")
        twins = sorted(n for n in runs[0]["metrics"] if n.startswith(("wall.", "cpu.")))
        for name in [*bounds, *twins]:
            bound = bounds.get(name)
            summary = summarise([r["metrics"][name]["value"] for r in runs])
            summary["unit"] = runs[0]["metrics"][name]["unit"]
            summary["bound"] = bound
            entry["end_to_end"][name] = summary
            print(f"  {name:22s} median {summary['median']:.6g} {summary['unit']}"
                  f"  [q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g}]"
                  f"  spread {summary['spread']:.3f} (bound {bound}, n={summary['n']})",
                  flush=True)
        traced = run_once(workload, seeds[0], seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        shares = {k[:-len(".self_s")]: v / total for k, v in layers.items()
                  if k.endswith(".self_s") and total}
        entry["per_layer"] = layers
        entry["self_time_share"] = shares
        for span, share in sorted(shares.items(), key=lambda kv: -kv[1])[:6]:
            print(f"  self time {span:34s} {share:6.1%}  "
                  f"calls/task {layers[span + '.calls']:g}")
        print(f"  trace.overhead_frac {layers['trace.overhead_frac']:.3f}")
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
