"""Games run without numpy: socd imports it only where an experiment,
`gini` or `aggregate_curves` first needs it.  Each check runs in a fresh
interpreter in which `import numpy` fails, as in a Python without numpy
installed."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from socd.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# `import numpy` raises ModuleNotFoundError once its sys.modules entry is None
BLOCK = 'import sys; sys.modules["numpy"] = None\n'

GAME = {
    "agents": [
        {"id": "a1", "arrive": 0, "leave": 10},
        {"id": "a2", "arrive": 4, "leave": "33/2"},
        {"id": 3, "arrive": "17/2", "leave": 20},
    ],
    "params": {"u": 1, "c": "1/2"},
}


def _fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, timeout=60, env=env,
                          check=False)


def _without_numpy(code: str) -> subprocess.CompletedProcess:
    return _fresh(BLOCK + code)


def _artifacts(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_importing_socd_does_not_load_numpy():
    proc = _fresh("import sys, socd, socd.cli; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_socd_imports_without_numpy():
    proc = _without_numpy("import socd, socd.cli")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_game_runs_without_numpy(tmp_path, capsys, fmt):
    scenario = tmp_path / "game.json"
    scenario.write_text(json.dumps(GAME))
    args = ["--scenario", str(scenario), "--format", fmt]
    proc = _without_numpy(f"from socd.cli import main; "
                          f"sys.exit(main({args + ['--out', str(tmp_path / 'blocked')]!r}))")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert main(args + ["--out", str(tmp_path / "plain")]) == 0
    assert proc.stdout == capsys.readouterr().out
    blocked = _artifacts(tmp_path / "blocked")
    assert blocked == _artifacts(tmp_path / "plain")
    assert blocked  # the run wrote its artifacts


def test_an_experiment_needs_numpy():
    proc = _without_numpy(
        "from socd import HighwayParams, highway_experiment\n"
        "try:\n"
        "    highway_experiment(HighwayParams(n_stations=4, n_convoys=1,"
        " agents_per_convoy=2))\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "numpy\n", "")
