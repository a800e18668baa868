"""The README's library example runs and prints what its comments state,
its "How it is checked" table names test files that exist, and its prose
names every public name."""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction as F
from pathlib import Path

import socd
from socd import ShareReport

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
