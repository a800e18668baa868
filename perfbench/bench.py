"""Shared pieces of the socd benchmark: workloads, task execution, checks, tracing.

A task is one in-process call of `socd.cli.main` on inputs made from a
workload's task index.  Each workload has a fixed pool of task indices, so
that every task's artifacts can be checked against a SHA-256 digest
recorded at the commit that defined the benchmark (`digests.json`).  A
benchmark run takes its tasks from the pool in an order set by the run seed.

Nothing here imports socd at module level: `load_cli` puts the checkout's
`src/` first on the import path and refuses to run without it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator

from probe import SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
PROBE_INTERVAL_S = 0.05

WORKLOADS = ("highway", "games", "ring")
# About one run's worth of tasks each (see draw_tasks).
POOL_SIZE = {"highway": 32, "games": 8, "ring": 6}

# games: 100 agents, exact times on a 1/12 grid.  Every game shuffles the
# same arrival gaps (mean ~4.9) and the same window lengths (85-166), so
# games differ in arrangement but not in size: 20-35 agents overlap away
# from the ends, and tasks cost about the same.
GAME_AGENTS = 100
GAME_PARAMS = {"u": 1, "c": 1}
DENOMS = (1, 2, 3, 4, 6, 12)


class SetupError(Exception):
    """The checkout cannot run the benchmark (no socd source, bad digests)."""


def load_cli():
    """Import `socd.cli` from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "socd" / "cli.py").is_file():
        raise SetupError(f"no socd source at {SRC / 'socd'}")
    sys.path.insert(0, str(SRC))
    import socd.cli

    if Path(socd.cli.__file__).resolve().parent != (SRC / "socd").resolve():
        raise SetupError(f"socd was imported from {socd.cli.__file__}, not {SRC}")
    return socd.cli


def import_seconds() -> tuple[float, float]:
    """Time `import socd.cli` in a fresh interpreter: (wall, calibrated) seconds."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), str(SRC)],
        capture_output=True, text=True, timeout=120, env=env, check=False,
    )
    if proc.returncode != 0:
        raise SetupError(f"import socd.cli failed: {proc.stderr.strip()}")
    wall, calibrated = proc.stdout.split()
    return float(wall), float(calibrated)


# ------------------------------------------------------------------ inputs


def game_doc(index: int, n_agents: int = GAME_AGENTS) -> dict[str, Any]:
    """A game scenario with distinct arrivals and small-denominator times."""
    rng = random.Random(f"socd-perfbench-game-{index}-{n_agents}")
    gaps = [Fraction(1 + (7 * j) % 24, DENOMS[j % len(DENOMS)]) for j in range(n_agents)]
    lengths = [85 + (37 * j) % 81 + Fraction((5 * j) % 12, 12) for j in range(n_agents)]
    rng.shuffle(gaps)
    rng.shuffle(lengths)
    agents = []
    t = Fraction(0)
    for k, (gap, length) in enumerate(zip(gaps, lengths)):
        t += gap
        agents.append({"id": f"v{k}", "arrive": str(t), "leave": str(t + length)})
    return {"agents": agents, "params": dict(GAME_PARAMS)}


@dataclass(frozen=True)
class Task:
    """One CLI call: a workload and a pool index; `tiny` shrinks it for self-tests."""

    workload: str
    index: int
    tiny: bool = False

    @property
    def key(self) -> str:
        return f"{self.workload}/{self.index}" + ("/tiny" if self.tiny else "")

    def game(self) -> dict[str, Any]:
        return game_doc(self.index, 12 if self.tiny else GAME_AGENTS)

    def prepare(self, work: Path) -> list[str]:
        """Write any input file under `work`; return argv without `--out`."""
        if self.workload == "games":
            return self._scenario(work, self.game(), ["--format", "json"])
        flags = ["--seed", str(self.index)]
        if self.workload == "highway":
            flags += ["--config", "uniform" if self.index % 2 == 0 else "bimodal"]
            tiny_params = {"n_convoys": 4}
        elif self.workload == "ring":
            tiny_params = {"n_vehicles": 10, "target_mean_participations": 20}
        else:
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.tiny:
            doc = {"experiment": self.workload, "params": tiny_params}
            return self._scenario(work, doc, flags)
        return ["--experiment", self.workload, *flags]

    def _scenario(self, work: Path, doc: dict[str, Any], extra: list[str]) -> list[str]:
        path = work / "inputs" / (self.key.replace("/", "_") + ".json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        return ["--scenario", str(path), *extra]


def draw_tasks(workload: str, seed: int) -> Iterator[Task]:
    """The run's endless task sequence: the whole pool, pass after pass, each
    pass in an order shuffled with the run seed.  Tasks of one workload
    differ in cost by up to a fifth, so a run that covers (nearly) the whole
    pool has a median that depends little on which tasks the seed drew."""
    rng = random.Random(seed)
    pool = pool_tasks(workload)
    while True:
        rng.shuffle(pool)
        yield from pool


# ------------------------------------------------------------------ checks


class CheckFailed(Exception):
    pass


def artifacts_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _csv_rows(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh) - 1


def _union(windows: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """Merged availability, computed here rather than by socd so that a socd
    bug cannot hide from the check."""
    merged: list[tuple[Fraction, Fraction]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _check_tiling(periods: list[tuple[Fraction, Fraction]],
                  union: list[tuple[Fraction, Fraction]], where: str) -> None:
    """Periods must cover each union interval end to end, with no gap or overlap."""
    todo = sorted(periods)
    i = 0
    for start, end in union:
        cursor = start
        while cursor < end:
            if i == len(todo) or todo[i][0] != cursor or todo[i][1] <= cursor:
                raise CheckFailed(f"{where}: schedule does not tile availability at {cursor}")
            cursor = todo[i][1]
            i += 1
        if cursor != end:
            raise CheckFailed(f"{where}: schedule overruns availability at {end}")
    if i != len(todo):
        raise CheckFailed(f"{where}: schedule has periods outside availability")


def _check_game(task: Task, out: Path) -> int:
    doc = json.loads((out / "result.json").read_text(encoding="utf-8"))
    game = task.game()
    union = _union([(Fraction(a["arrive"]), Fraction(a["leave"]))
                    for a in game["agents"]])
    duration = sum((e - s for s, e in union), Fraction(0))
    allowance = Fraction(game["params"]["c"]) / Fraction(game["params"]["u"])
    mechanisms = doc["mechanisms"]
    if sorted(mechanisms) != ["pt", "rg", "sg", "sg-da"]:
        raise CheckFailed(f"mechanisms emitted: {sorted(mechanisms)}")
    outcomes = 0
    for kind, result in mechanisms.items():
        reports = result["share_reports"]
        total = sum((Fraction(r["ex_post"]) - allowance for r in reports), Fraction(0))
        if total != duration:
            raise CheckFailed(f"{kind}: ex-post shares sum to {total}, game lasts {duration}")
        _check_tiling([(Fraction(p["start"]), Fraction(p["stop"]))
                       for p in result["schedule"]], union, kind)
        outcomes += len(reports)
    return outcomes


def check_outputs(task: Task, out: Path, expected: str | None) -> int:
    """Check a task's artifacts; return its outcome count or raise CheckFailed.

    Outcomes are agent results under one mechanism (highway, games) or
    completed ring participations, counted from the artifacts themselves.
    """
    if not out.is_dir() or not any(out.iterdir()):
        raise CheckFailed("no artifacts emitted")
    digest = artifacts_digest(out)
    if expected is not None and digest != expected:
        raise CheckFailed(f"artifact digest {digest[:12]} != recorded {expected[:12]}")
    if task.workload == "games":
        return _check_game(task, out)
    if task.workload == "highway":
        return sum(_csv_rows(p) for p in out.glob("records_*.csv"))
    return _csv_rows(out / "records.csv")


# ------------------------------------------------------------------ execution


@dataclass
class TaskResult:
    task: Task
    wall_s: float = 0.0  # the CLI call alone, failed calls included
    seconds: float = 0.0  # the same, calibrated (see probe.py)
    cpu_s: float = 0.0  # the same, in process CPU time
    elapsed_s: float = 0.0  # the whole task: inputs, call, checks, clean-up
    outcomes: int = 0
    emitted_bytes: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def execute(cli, task: Task, work: Path, out: Path, result: TaskResult) -> None:
    """Run the task's CLI call into `out`, recording its times in `result`.

    The times are recorded also when the call exits non-zero or raises; then
    CheckFailed is raised.
    """
    argv = task.prepare(work) + ["--out", str(out)]
    sink = io.StringIO()
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
            SpeedProbe(PROBE_INTERVAL_S) as probe:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            code, error = None, f"{type(exc).__name__}: {exc}"
        result.wall_s = time.perf_counter() - t0
        result.cpu_s = time.process_time() - c0
    result.cpu_s = max(result.cpu_s - probe.inside_s, 0.0)
    result.seconds = probe.calibrate(result.wall_s)
    if error is None and code != 0:
        error = f"exit code {code}: {sink.getvalue().strip()[-300:]}"
    if error is not None:
        raise CheckFailed(error)


def check_in_child(task: Task, out: Path, expected: str | None) -> int:
    """check_outputs in a forked child; return its outcome count.

    The checks read whole artifacts and parse JSON into Fractions.  In a
    child their memory never counts toward this process's peak RSS, which
    is socd's own.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns, whatever happens
        try:
            os.close(read_fd)
            try:
                reply = {"outcomes": check_outputs(task, out, expected)}
            except CheckFailed as exc:
                reply = {"error": str(exc)}
            except BaseException as exc:
                reply = {"error": f"check crashed: {type(exc).__name__}: {exc}"}
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(reply))
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    reply = json.loads(data) if data else {"error": "checker process died"}
    if "error" in reply:
        raise CheckFailed(reply["error"])
    return reply["outcomes"]


def run_task(cli, task: Task, work: Path, expected: str | None,
             tamper: Callable[[Path], None] | None = None) -> TaskResult:
    """Execute, then check outside the timed interval; failures are recorded."""
    started = time.perf_counter()
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    result = TaskResult(task)
    try:
        execute(cli, task, work, out, result)
        if tamper is not None:
            tamper(out)
        result.emitted_bytes = sum(p.stat().st_size for p in out.iterdir())
        result.outcomes = check_in_child(task, out, expected)
    except CheckFailed as exc:
        result.error = str(exc)
    except Exception as exc:  # a crashing task is a failed task, not a crashed run
        result.error = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(out, ignore_errors=True)
        result.elapsed_s = time.perf_counter() - started
    return result


def pool_tasks(workload: str) -> list[Task]:
    return [Task(workload, i) for i in range(POOL_SIZE[workload])]


def load_digests() -> dict[str, str]:
    """The recorded artifact digest of every pool task, keyed by `Task.key`."""
    try:
        digests = json.loads(DIGESTS.read_text(encoding="utf-8"))["tasks"]
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"cannot read recorded digests {DIGESTS}: {exc}") from None
    missing = [t.key for w in WORKLOADS for t in pool_tasks(w) if t.key not in digests]
    if missing:
        raise SetupError(f"{DIGESTS} has no digest for {missing[0]}")
    return digests


# ------------------------------------------------------------------ tracing

# (span name, module defining the function, attribute).  run_mechanism is
# split into one span per mechanism kind, named from its first argument.
SPANS = (
    ("model.validate_stream", "socd.model", "validate_stream"),
    ("model.stream_segments", "socd.model", "stream_segments"),
    ("model.eas_segments", "socd.model", "eas_segments"),
    ("model.ex_ante_share", "socd.model", "ex_ante_share"),
    ("model.ex_post_share", "socd.model", "ex_post_share"),
    ("model.efficiency", "socd.model", "efficiency"),
    ("mechanisms.run_mechanism", "socd.mechanisms", "run_mechanism"),
    ("mechanisms.net_utilities", "socd.mechanisms", "net_utilities"),
    ("metrics.gini", "socd.metrics", "gini"),
    ("metrics.aggregate_curves", "socd.simulation", "aggregate_curves"),
    ("simulation.sample_stream", "socd.simulation", "sample_stream"),
    ("simulation.highway_experiment", "socd.simulation", "highway_experiment"),
    ("simulation.ring_road_experiment", "socd.simulation", "ring_road_experiment"),
    ("cli.run", "socd.cli", "run"),
    ("cli.emit", "socd.cli", "emit"),
)
MECHANISM_KINDS = ("pt", "rg", "sg", "sg-da")


def span_names() -> list[str]:
    names = []
    for name, _, _ in SPANS:
        if name == "mechanisms.run_mechanism":
            names.extend(f"{name}.{k}" for k in MECHANISM_KINDS)
        else:
            names.append(name)
    return names


@dataclass
class Tracer:
    """Wraps socd's public functions wherever a socd module looks them up.

    Each wrapper counts calls and accumulates self time: its duration minus
    the durations of wrapped calls made inside it.
    """

    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    _stack: list[float] = field(default_factory=list)
    _patched: list[tuple[Any, str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name in span_names():
            self.calls[name] = 0
            self.self_s[name] = 0.0

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        calls, self_s, stack = self.calls, self.self_s, self._stack
        per_kind = name == "mechanisms.run_mechanism"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if per_kind:
                kind = args[0] if args else kwargs["kind"]
                span = f"{name}.{getattr(kind, 'value', kind)}"
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                calls[span] += 1
                self_s[span] += dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def install(self) -> None:
        for name, module_name, attr in SPANS:
            original = getattr(sys.modules[module_name], attr)
            self._patched += rebind(original, self._wrap(name, original))

    def uninstall(self) -> None:
        unbind(self._patched)


def rebind(original: Any, replacement: Any) -> list[tuple[Any, str, Any]]:
    """Bind `replacement` wherever a socd module binds `original`; return
    the (module, name, original) bindings replaced, for `unbind`."""
    patched = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not (module_name == "socd" or module_name.startswith("socd.")):
            continue
        for binding, value in list(vars(module).items()):
            if value is original:
                patched.append((module, binding, original))
                setattr(module, binding, replacement)
    return patched


def unbind(patched: list[tuple[Any, str, Any]]) -> None:
    """Undo `rebind`, last binding first."""
    while patched:
        module, binding, original = patched.pop()
        setattr(module, binding, original)


# ------------------------------------------------------------------ stamp


def _git(*args: str) -> str | None:
    """Output of a git command in the checkout; None if it is no git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment_stamp() -> dict[str, Any]:
    """Machine and source identity for a result set."""
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    status = _git("status", "--porcelain")
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
    }
