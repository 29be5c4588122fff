"""Checks on the repository itself: the demos run and print their golden
output, the source stays within its line width and holds no dead names,
and every test README names exists."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import progtariff

from test_golden import DEMOS, demo_golden, run_demo

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "progtariff").glob("*.py"))
MAX_LINE = 100


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly_in_a_fresh_process(demo):
    done = run_demo(demo)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == demo_golden(demo).read_text(encoding="utf-8")


def test_no_source_line_is_over_the_width():
    # Keeps the source line count honest: it cannot fall through denser lines.
    long_lines = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
        for path in SOURCES
        for number, line in enumerate(path.read_text(encoding="utf-8").split("\n"), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def test_every_test_named_in_the_readme_is_defined():
    # README cites tests as evidence for its claims; a renamed or deleted
    # one would leave a claim that no test checks.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`(test_\w+)`", readme))
    defined = {
        name
        for path in (ROOT / "tests").rglob("*.py")
        for name in re.findall(r"^\s*def (test_\w+)", path.read_text(encoding="utf-8"), re.M)
    }
    assert named
    assert sorted(named - defined) == []


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _loaded(tree: ast.AST) -> Counter:
    """How often *tree* reads each name: as a bare name, an attribute or
    an imported name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_imported_name_is_used():
    unused = []
    for name, tree in _trees().items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if name == "__init__.py":
            used.update(progtariff.__all__)  # the package's re-exports
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{name}:{node.lineno}: {alias.asname or alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.partition(".")[0]) not in used
                ]
    assert unused == []


def test_every_private_module_name_is_referenced():
    # A reference inside the name's own definition, such as a recursive
    # call, does not count.
    trees = _trees()
    loaded = sum(map(_loaded, trees.values()), Counter())
    unreferenced = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            own = _loaded(node)
            unreferenced += [
                f"{name}:{node.lineno}: {private}"
                for private in defined
                if private.startswith("_") and not private.startswith("__")
                and loaded[private] == own[private]
            ]
    assert unreferenced == []
