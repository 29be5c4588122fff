"""Checks on the repository itself: the demos run, the source stays
within its line width, and every test README names exists."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MAX_LINE = 100


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly_in_a_fresh_process(demo):
    done = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout


def test_no_source_line_is_over_the_width():
    # Keeps the source line count honest: it cannot fall through denser lines.
    long_lines = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
        for path in sorted((ROOT / "src" / "progtariff").glob("*.py"))
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
