"""Self-test of the benchmark: ``python3 -m pytest perfbench -q`` from the repository root.

Runs every workload at a tiny size through the same code the benchmark
uses, and shows that the checker turns one changed digit in a billed
total into a failed invocation.
"""

import re

import pytest

import run

BENCH, WORKLOADS = run.load_config()
TINY = 4

# Where each workload's output shows a billed total.
BILLED = {
    "compare-json-200x120": r'"id": "c0001",\s+"monthly": "\d+\.\d(\d)"',
    "compare-intervals-30x120": r"^c0001\s+\d+\.\d(\d)\s",
    "shift-100x120": r'"allocated": \{\s+"after": "\d+\.\d\d",\s+"before": "\d+\.\d(\d)"',
}


@pytest.fixture(scope="module", autouse=True)
def program():
    assert run.import_program() is None


@pytest.fixture
def workdir(tmp_path_factory):
    run.RUN_DIR.mkdir(exist_ok=True)
    return tmp_path_factory.mktemp("perfbench")


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("traced", [0, 1])
def test_tiny_workload_runs_clean(name, traced, workdir):
    result, meta = run.run_workload(name, WORKLOADS[name], BENCH, 7, 0.1, traced, workdir, consumers=TINY)
    assert (result["correct"], result["failed"]) == (True, 0), meta["failures"]
    wanted = BENCH["per_layer"] if traced else BENCH["end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in wanted]
    if traced:
        assert meta["tracing"]["absent"] == []
        assert result["metrics"]["simulate.slot_partition.cells"]["value"] == TINY * 120
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_changed_billed_digit_is_an_error(name, workdir):
    defn = WORKLOADS[name]
    trace = run.tracegen.generate(name, defn, 7, TINY)
    csv_path = workdir / "trace.csv"
    csv_path.write_bytes(trace.csv_bytes)
    _, stdout = run.in_process(run.cli_args(defn, trace, csv_path))
    text = stdout.decode()
    match = re.search(BILLED[name], text, re.MULTILINE)
    digit = match.start(1)
    corrupted = text[:digit] + str((int(text[digit]) + 1) % 10) + text[digit + 1 :]

    tiers, base_days = run.check.load_tiers(run.SCHEDULE)
    verdicts = run.Verdicts(defn, run.check.Expected(trace, tiers, base_days, defn["slot_hours"]))
    assert verdicts.record("clean", lambda: (0.0, stdout)) is not None
    assert verdicts.record("corrupted", lambda: (0.0, corrupted.encode())) is None
    assert verdicts.failed / verdicts.attempted == 0.5


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setitem(run.spans.TARGETS, "tariff.gone", ("progtariff.tariff", "no_such_function"))
    tracer = run.spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["tariff.gone"]
