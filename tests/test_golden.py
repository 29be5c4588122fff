"""Byte-for-byte CLI outputs on the bundled fixtures, and the demos' output.

Every subcommand runs on every bundled fixture it accepts, in text and
``--json`` form, under both allocation policies where the command takes
one. The expected stdout of each case is a file in ``tests/golden/``, as
is each demo's, ``demo-<stem>.txt``, which
``test_demo_runs_cleanly_in_a_fresh_process`` checks. Regenerate the
files only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from progtariff.cli import run_cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SCHEDULE = "fixtures/kepco_residential.json"
TRACES = [
    "three_consumer_intervals",
    "three_consumer_slot",
    "three_consumer_slot_exact",
    "two_consumer_month",
]
SCHEMES = ["monthly-individual", "slotted-individual", "slotted-group"]
POLICIES = ["exact-sum", "independent"]
# Usages that stop inside the first tier, on a bound, deep in the open
# tier, and on a non-terminating value.
USAGES = ["0", "50/3", "100", "350", "1234.567"]
# consumer, from slot, to slot, amount
SHIFTS = {
    "three_consumer_intervals": ("c1", "1", "9", "1/2"),
    "three_consumer_slot": ("c1", "0", "1", "1/2"),
    "three_consumer_slot_exact": ("c3", "0", "7", "5/6"),
    "two_consumer_month": ("c2", "1", "2", "1.2"),
}
# Shift edge cases: trace, extra flags, consumer, from slot, to slot,
# amount. A shift back into its own slot, a zero amount, and a shift on
# the 8 h grid into a slot where nobody uses energy.
SHIFT_EDGES = {
    "same-slot": ("two_consumer_month", [], "c1", "4", "4", "0.6"),
    "zero": ("three_consumer_slot", [], "c2", "0", "1", "0"),
    "two_consumer_month-8h": ("two_consumer_month", ["--slot-hours", "8"], "c2", "3", "4", "5/3"),
}
ALLOCATIONS = {
    "published": ["--group", "466.50", "--individual", "312.08,155.50,50.58"],
    "ties": ["--group", "10", "--individual", "1,1,1"],
    "zero": ["--group", "0", "--individual", "0,0"],
}
# Grids other than the default 6 h: 12 h slots (factor 1/60) and 8 h
# slots (factor 1/90, whose scaled bounds do not terminate).
GRIDS = {"12h": ["--slot-hours", "12"], "8h": ["--slot-hours", "8"]}


def _cases():
    cases = {"validate": ["validate", "--schedule", SCHEDULE]}
    for index, usage in enumerate(USAGES):
        cases[f"bill-{index}"] = ["bill", "--schedule", SCHEDULE, "--usage", usage]
    for name, argv in ALLOCATIONS.items():
        for policy in POLICIES:
            cases[f"allocate-{name}-{policy}"] = ["allocate", *argv, "--policy", policy]
    for trace in TRACES:
        base = ["--schedule", SCHEDULE, "--trace", f"fixtures/{trace}.csv"]
        for policy in POLICIES:
            for scheme in SCHEMES:
                cases[f"simulate-{trace}-{scheme}-{policy}"] = [
                    "simulate", *base, "--scheme", scheme, "--policy", policy,
                ]
            cases[f"compare-{trace}-{policy}"] = ["compare", *base, "--policy", policy]
            consumer, source, target, amount = SHIFTS[trace]
            cases[f"shift-{trace}-{policy}"] = [
                "shift", *base, "--consumer", consumer, "--from-slot", source,
                "--to-slot", target, "--amount", amount, "--policy", policy,
            ]
    for name, (trace, flags, consumer, source, target, amount) in SHIFT_EDGES.items():
        for policy in POLICIES:
            cases[f"shift-{name}-{policy}"] = [
                "shift", "--schedule", SCHEDULE, "--trace", f"fixtures/{trace}.csv",
                *flags, "--consumer", consumer, "--from-slot", source,
                "--to-slot", target, "--amount", amount, "--policy", policy,
            ]
    for grid, flags in GRIDS.items():
        base = ["--schedule", SCHEDULE, "--trace", "fixtures/two_consumer_month.csv", *flags]
        cases[f"compare-two_consumer_month-{grid}"] = ["compare", *base]
    out = {}
    for name, argv in cases.items():
        out[f"{name}.txt"] = argv
        out[f"{name}.json"] = [*argv, "--json"]
    return out


CASES = _cases()


def demo_golden(demo: Path) -> Path:
    return GOLDEN / f"demo-{demo.stem}.txt"


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """Run one demo script in a fresh process, from the repository root."""
    return subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )


def _stdout(argv) -> str:
    # Paths in the arguments are relative to the repository root.
    resolved = [str(ROOT / arg) if arg.startswith("fixtures/") else arg for arg in argv]
    captured = StringIO()
    with redirect_stdout(captured):
        status = run_cli(resolved)
    assert status == 0, argv
    return captured.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert _stdout(CASES[name]) == expected


def test_every_golden_file_has_a_case():
    demos = [demo_golden(demo).name for demo in DEMOS]
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted([*CASES, *demos])


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(_stdout(argv), encoding="utf-8")
    for demo in DEMOS:
        done = run_demo(demo)
        if (done.returncode, done.stderr) != (0, ""):
            sys.exit(f"{demo.name} failed:\n{done.stderr}")
        demo_golden(demo).write_text(done.stdout, encoding="utf-8")
    print(f"wrote {len(CASES) + len(DEMOS)} files to {GOLDEN}", file=sys.stderr)
