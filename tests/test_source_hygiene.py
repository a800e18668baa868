"""Static checks on the library source, from its syntax tree alone, on the
library functions the benchmark traces (read from `perfbench/bench.py`'s
syntax tree, without importing it), and on what the test oracles import."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "socd"
MODULES = sorted(SRC.glob("*.py"))
ORACLES = sorted(Path(__file__).resolve().parent.glob("*_oracle.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _literal(tree: ast.Module, name: str, default: object = None) -> object:
    """The literal value a module assigns to `name` at its top level."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return default


def _exported(tree: ast.Module) -> set[str]:
    return set(_literal(tree, "__all__", ()))


def test_library_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "model.py"}
    assert {p.name for p in ORACLES} >= {"share_oracle.py", "mechanism_oracle.py"}


def _requires_python() -> tuple[int, int]:
    """The oldest Python that `pyproject.toml`'s `requires-python` admits."""
    text = (SRC.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"', text,
                             re.MULTILINE).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_syntax_is_that_of_the_oldest_python_required(path):
    """Best-effort: the parser checks syntax only (no `match` before 3.10,
    no `except*` before 3.11 and the like), not whether each stdlib name
    the module uses exists in that Python."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=_requires_python())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # invariants must raise: `python -O` strips asserts
    lines = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert lines == [], f"{path.name}: assert at line(s) {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert unused == [], f"{path.name}: unused imports {unused}"


def test_every_benchmark_span_resolves():
    # the benchmark wraps each (module, attr) it traces, read here from its
    # syntax tree; a renamed or deleted function would break every run
    spans = _literal(_tree(SRC.parent.parent / "perfbench" / "bench.py"), "SPANS")
    assert spans, "perfbench/bench.py defines no SPANS"
    missing = [
        (module, attr)
        for _, module, attr in spans
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == [], f"benchmark spans that no longer resolve: {missing}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    # a name left in `__all__` after its definition is deleted breaks
    # `from socd import *`
    name = "socd" if path.stem == "__init__" else f"socd.{path.stem}"
    module = importlib.import_module(name)
    missing = [n for n in _exported(_tree(path)) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"


def _public_functions(tree: ast.Module):
    """Top-level functions and the methods of top-level classes, public by name."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not f.name.startswith("_"))
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")):
            yield node.name, node


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_public_function_takes_a_bool_mode_switch(path):
    # a mode is a `MechanismKind` (or another enum), not a True/False flag
    flagged = [
        name
        for name, func in _public_functions(_tree(path))
        for default in func.args.defaults + func.args.kw_defaults
        if isinstance(default, ast.Constant) and isinstance(default.value, bool)
    ]
    assert flagged == [], f"{path.name}: bool defaults in {flagged}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_frozen_fields_are_set_only_in_post_init(path):
    # a frozen dataclass is set only while it is built: an
    # `object.__setattr__` anywhere else changes a value after the fact
    def stray(node: ast.AST, inside: bool):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = node.name == "__post_init__"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object" and not inside):
            yield node.lineno
        for child in ast.iter_child_nodes(node):
            yield from stray(child, inside)

    lines = list(stray(_tree(path), False))
    assert lines == [], f"{path.name}: object.__setattr__ outside __post_init__ at {lines}"


@pytest.mark.parametrize("path", ORACLES, ids=lambda p: p.name)
def test_no_oracle_imports_a_private_name_from_socd(path):
    # an oracle built on a helper of the code it checks agrees with that
    # code whether the helper is right or wrong
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "socd"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"{path.name} imports {private}"


def _top_level_names(tree: ast.Module):
    """The functions, classes and assigned names at a module's top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def test_every_top_level_name_is_read():
    # a definition nothing reads is dead code: it is read by name or as an
    # attribute somewhere in the library, exported in an `__all__`, or
    # traced by the benchmark (its SPANS, read from the syntax tree)
    trees = {path.name: _tree(path) for path in MODULES}
    read = set().union(*(_exported(tree) for tree in trees.values()))
    read |= {attr for _, _, attr in
             _literal(_tree(SRC.parent.parent / "perfbench" / "bench.py"), "SPANS")}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(
        f"{file}:{line} {name}"
        for file, tree in trees.items()
        for name, line in _top_level_names(tree)
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    )
    assert unread == [], f"top-level names nothing reads: {unread}"
