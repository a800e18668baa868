"""Record the artifact digest of every pool task into digests.json.

    python3 perfbench/record_digests.py

Run once, at the commit whose artifacts are the reference; the benchmark
then fails any task whose artifacts differ.  Re-record only in a change
that says which artifacts changed and why.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402


def main() -> int:
    cli = bench.load_cli()
    work = bench.ROOT / ".perfbench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    digests: dict[str, str] = {}
    try:
        for workload in bench.WORKLOADS:
            for task in bench.pool_tasks(workload):
                out = work / "out"
                shutil.rmtree(out, ignore_errors=True)
                bench.execute(cli, task, work, out, bench.TaskResult(task))
                digests[task.key] = bench.artifacts_digest(out)
                print(task.key, digests[task.key], flush=True)
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    doc = {"env": bench.environment_stamp(), "tasks": digests}
    bench.DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
