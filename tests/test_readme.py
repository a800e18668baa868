"""The README's library example runs and prints what its comments state,
its CLI commands run and write the artifacts it lists, its "How it is
checked" table names test files that exist, and its prose names every
public name."""

from __future__ import annotations

import json
import re
import shlex
from collections.abc import Mapping
from fractions import Fraction as F
from pathlib import Path

import pytest

import socd
from socd import ShareReport
from socd.cli import main

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"

# the comment on each commented `print` line, and the value it states
STATED = {
    "a1 -> 10, a2 -> 9, a3 -> 23/3": {"a1": F(10), "a2": F(9), "a3": F(23, 3)},
    "a1 -> 20/3, a2 -> 17/3, a3 -> 23/3":
        {"a1": F(20, 3), "a2": F(17, 3), "a3": F(23, 3)},
    "5 realized segments": 5,
    "Fraction(20, 3)": F(20, 3),
    "a1 -> 7, a2 -> 16/3, a3 -> 23/3": {"a1": F(7), "a2": F(16, 3), "a3": F(23, 3)},
    "a1: assigned 7, ex_ante 10, ex_post 20/3":
        ShareReport("a1", F(7), F(10), F(20, 3)),
}


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_prints_what_its_comments_state():
    block = _library_example()
    printed: list[object] = []
    exec(block, {"print": printed.append})
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    stated = {
        line.split("#", 1)[1].strip():
            dict(value) if isinstance(value, Mapping) else value
        for line, value in zip(prints, printed)
        if "#" in line
    }
    assert stated == STATED


def test_the_checks_table_names_files_under_tests():
    section = README.read_text(encoding="utf-8").split("## How it is checked", 1)[1]
    rows = [line for line in section.split("\n## ", 1)[0].splitlines()
            if line.startswith("|")]
    named = set(re.findall(r"`([\w.]+\.py)`", "\n".join(rows)))
    assert {"test_cli.py", "ring_oracle.py"} <= named
    assert sorted(name for name in named if not (TESTS / name).is_file()) == []


def test_every_public_name_is_in_the_readme():
    text = README.read_text(encoding="utf-8")
    prose = re.sub(r"^```.*?^```", "", text, flags=re.MULTILINE | re.DOTALL)
    spans = re.findall(r"`([^`\n]+)`", prose)
    named = {word for span in spans for word in re.findall(r"\w+", span)}
    public = set(socd.__all__) - {"__version__"}
    assert sorted(public - named) == []


def _cli_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def _blocks(section: str, language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", section, re.MULTILINE | re.DOTALL)


def _game_files(kinds) -> set[str]:
    return ({f"{name}_{kind}.csv" for kind in kinds
             for name in ("schedule", "switches", "share_reports")}
            | ({"ledger_pt.csv"} if "pt" in kinds else set()))


# What the CLI section's "CSV artifacts" and "JSON artifacts" paragraphs
# list under `results/` for each of its `socd` commands, in order, and for
# its highway scenario run as `highway.json`.  A run without `--out`
# writes no file.
LISTED = {
    "--scenario game.json --out results/": _game_files(("pt", "rg", "sg", "sg-da")),
    "--scenario game.json --mechanism rg,sg-da": set(),
    "--experiment highway --config bimodal --seeds 20 --out results/":
        {"gini.csv"} | {f"records_{kind}_seed{seed}.csv"
                        for kind in ("rg", "sg", "sg-da") for seed in range(20)},
    "--experiment ring --out results/ --format json": {"result.json"},
    "--scenario highway.json --out results/":
        {"gini.csv", "records_rg.csv", "records_sg.csv", "records_sg-da.csv"},
}


def test_the_cli_section_has_the_listed_commands():
    commands = [shlex.split(line.split("#", 1)[0])
                for line in _blocks(_cli_section(), "sh")[0].splitlines()]
    assert {command[0] for command in commands} == {"socd"}
    assert [" ".join(command[1:]) for command in commands] == list(LISTED)[:-1]


@pytest.mark.parametrize("command", list(LISTED))
def test_each_readme_command_runs_and_writes_what_the_readme_lists(
        tmp_path, monkeypatch, capsys, command):
    game, highway = (json.loads(block) for block in _blocks(_cli_section(), "json"))
    assert "agents" in game and highway["experiment"] == "highway"
    (tmp_path / "game.json").write_text(json.dumps(game))
    (tmp_path / "highway.json").write_text(json.dumps(highway))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SOCD_SEED", raising=False)
    assert main(shlex.split(command)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    written = {p.name for p in (tmp_path / "results").glob("*")}
    assert written == LISTED[command]
    if not written:  # the summary only: one line per mechanism
        assert [line.split(":")[0] for line in out.splitlines()] == ["rg", "sg-da"]
