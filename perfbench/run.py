"""progtariff benchmark: seeded traces through the real CLI, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload compare-json-200x120 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

The load is a closed loop: one client, one invocation at a time, in a
single process. With ``--trace 0`` a run alternates two invocations of
the same command until ``--seconds`` is used up: a fresh CLI process
(``wall_s``, ``peak_rss_mb``) and a call to ``progtariff.cli.run_cli``
in this already warm interpreter (``cells_per_s``). Each round also
times three fresh processes that import the CLI and parse the schedule
(``setup_s``). ``wall_s`` and ``cells_per_s`` come from the mean time
over the run, with the medians in the run metadata; ``setup_s`` and
``peak_rss_mb`` are medians. With ``--trace 1`` the run alternates
untraced and traced in-process calls and reports the per-layer metrics
of spans.py.

Every distinct stdout is checked by check.py, and every repetition must
print the same bytes. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the line before it holds
run metadata. Exit status is 2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import spans
import tracegen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEDULE = HERE / "kepco_residential.json"
RUN_DIR = ROOT / ".perfbench-run"
INVOCATION_TIMEOUT_S = 120
# Set-up samples are spread over the run so they see the same machine load.
SETUP_PER_ROUND = 3


PEAK_TAG = "perfbench-peak-rss-kib"
# Runs ``python -m progtariff`` and, at exit, writes the process's own peak
# resident set (VmHWM) to stderr. The rusage of a spawned child is no use
# here: Linux carries the parent's high-water mark across exec.
LAUNCHER = f"""
import atexit, runpy, sys
def peak():
    with open("/proc/self/status") as status:
        kib = [line.split()[1] for line in status if line.startswith("VmHWM:")]
    sys.stderr.write("\\n{PEAK_TAG} " + kib[0] + "\\n")
atexit.register(peak)
runpy.run_module("progtariff", run_name="__main__", alter_sys=True)
"""


class Failure(Exception):
    pass


def _alarm(signum, frame):
    raise TimeoutError


def load_config():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    with open(HERE / "workloads.json", encoding="utf-8") as handle:
        workloads = json.load(handle)
    return bench, workloads


def cli_args(defn: dict, trace: tracegen.Trace, csv_path: Path) -> list[str]:
    argv = [defn["command"], "--schedule", str(SCHEDULE), "--trace", str(csv_path)]
    argv += ["--slot-hours", str(defn["slot_hours"]), "--period-days", str(defn["period_days"])]
    argv += ["--period-start", tracegen.PERIOD_START_TEXT]
    if trace.shift is not None:
        shift = trace.shift
        argv += ["--consumer", shift.consumer, "--from-slot", str(shift.from_slot)]
        argv += ["--to-slot", str(shift.to_slot), "--amount", shift.amount]
    if defn["json"]:
        argv.append("--json")
    return argv


def spawn(argv: list[str], workdir: Path) -> tuple[float, int, bytes]:
    """Run the CLI in a fresh process: wall s, peak RSS KiB, stdout."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, INVOCATION_TIMEOUT_S)
        try:
            start = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, "-c", LAUNCHER, *argv], env, file_actions=actions)
            try:
                _, status = os.waitpid(pid, 0)
            except TimeoutError:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise Failure(f"timed out after {INVOCATION_TIMEOUT_S} s") from None
            wall = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    code = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    if code != 0:
        raise Failure(f"exit {code}: {stderr[-500:]}")
    peaks = [line.split()[1] for line in stderr.splitlines() if line.startswith(PEAK_TAG)]
    if not peaks:
        raise Failure("no peak RSS reported")
    return wall, int(peaks[-1]), out_path.read_bytes()


def in_process(argv: list[str]) -> tuple[float, bytes]:
    """Call run_cli in this interpreter with stdout captured: wall s, stdout."""
    cli = sys.modules["progtariff.cli"]
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_cli(argv)
    wall = time.perf_counter() - start
    if code != 0:
        raise Failure(f"run_cli returned {code}: {err.getvalue()[-500:]}")
    return wall, out.getvalue().encode("utf-8")


class Verdicts:
    """Checks each distinct stdout once and counts failed invocations."""

    def __init__(self, defn: dict, ref: check.Expected):
        self.defn, self.ref = defn, ref
        self.first: bytes | None = None
        self.problems: dict[str, list[str]] = {}
        self.observations: dict = {}
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, call):
        """Run *call*; return its timing tuple, or None when the invocation failed."""
        self.attempted += 1
        try:
            result = call()
        except Failure as err:
            return self.fail(f"{label}: {err}")
        stdout = result[-1]
        digest = hashlib.sha256(stdout).hexdigest()
        if self.first is None:
            self.first = stdout
        if digest not in self.problems:
            problems, observations = check.check_output(self.defn, stdout, self.ref)
            self.problems[digest] = problems
            self.observations = self.observations or observations
        if self.problems[digest]:
            return self.fail(f"{label}: {self.problems[digest][0]}")
        if stdout != self.first:
            return self.fail(f"{label}: stdout differs from the first repetition")
        return result

    def fail(self, message: str):
        self.failed += 1
        self.failures.append(message)
        return None

    @property
    def digest(self) -> str | None:
        return None if self.first is None else hashlib.sha256(self.first).hexdigest()


def measure_setup(verdicts: Verdicts, workdir: Path, samples: int) -> list[float]:
    """Wall times of fresh processes that import the CLI and parse the schedule."""
    argv = ["validate", "--schedule", str(SCHEDULE)]
    times = []
    for _ in range(samples):
        verdicts.attempted += 1
        try:
            times.append(spawn(argv, workdir)[0])
        except Failure as err:
            verdicts.fail(f"setup: {err}")
    return times


def closed_loop(seconds: float, steps) -> None:
    """Run *steps* in turn, round after round, until the next one would overrun.

    Every step runs at least once. A step is predicted to take the median
    of its own earlier durations.
    """
    deadline = time.perf_counter() + seconds
    took = [[] for _ in steps]
    for index in itertools.cycle(range(len(steps))):
        if took[index] and time.perf_counter() + statistics.median(took[index]) > deadline:
            return
        start = time.perf_counter()
        steps[index]()
        took[index].append(time.perf_counter() - start)


def run_untraced(argv, cells, seconds, verdicts, workdir):
    measure_setup(verdicts, workdir, 1)  # fills the bytecode cache, untimed
    setup, walls, rss, warm = [], [], [], []
    # Objects alive now (the reference figures) stay out of the collector's
    # way, so in-process calls see a heap like a fresh CLI's.
    gc.collect()
    gc.freeze()

    def time_setup():
        setup.extend(measure_setup(verdicts, workdir, SETUP_PER_ROUND))

    def time_cli():
        spawned = verdicts.record("cli", lambda: spawn(argv, workdir))
        if spawned:
            walls.append(spawned[0])
            rss.append(spawned[1])

    def time_run_cli():
        called = verdicts.record("run_cli", lambda: in_process(argv))
        if called:
            warm.append(called[0])

    try:
        closed_loop(seconds, [time_setup, time_cli, time_run_cli])
    finally:
        gc.unfreeze()
    if not (walls and warm and setup):
        raise Failure("no successful invocation to time")
    # The two workload times are means over the run: total time over
    # invocations. On a shared virtual machine throughput can toggle
    # between two levels about 1.5x apart, each holding for seconds to
    # minutes. The median of a run's few long samples then jumps to
    # whichever level held for most of the run, while the mean moves with
    # the share of time spent at each level.
    metrics = {
        "wall_s": statistics.fmean(walls),
        "cells_per_s": cells * len(warm) / math.fsum(warm),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss) / 1024,
    }
    samples = {"wall_s": walls, "run_cli_s": warm, "setup_s": setup, "peak_rss_kib": rss}
    medians = {"wall_s": statistics.median(walls), "cells_per_s": cells / statistics.median(warm)}
    return metrics, samples, medians


def run_traced(argv, seconds, verdicts, spans_path):
    tracer = spans.Tracer()
    plain, traced, summaries = [], [], []
    gc.collect()
    gc.freeze()

    def one_round():
        called = verdicts.record("run_cli", lambda: in_process(argv))
        if called:
            plain.append(called[0])
        tracer.install()
        try:
            called = verdicts.record("traced run_cli", lambda: in_process(argv))
        finally:
            tracer.uninstall()
        if called:
            traced.append(called[0])
            summaries.append(tracer.summary())
            if len(summaries) == 1:
                tracer.write(spans_path)

    try:
        closed_loop(seconds, [one_round])
    finally:
        gc.unfreeze()
    if not (plain and traced):
        raise Failure("no successful invocation to time")
    counts_repeat = all(
        {name: entry["calls"] for name, entry in s.items()} == {name: entry["calls"] for name, entry in summaries[0].items()}
        for s in summaries
    )
    layers = {}
    for name in summaries[0]:
        entry = dict(summaries[0][name])
        for key in ("self_ns", "total_ns"):
            entry[key] = statistics.median(s[name][key] for s in summaries)
        layers[name] = entry
    info = {
        "absent": tracer.absent,
        "counter_errors": sorted(set(tracer.counter_errors)),
        "counts_repeat": counts_repeat,
        "spans": sum(entry["calls"] for entry in summaries[0].values()),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "layers": layers,
        "run_cli_s": plain,
        "traced_run_cli_s": traced,
    }
    overhead = statistics.median(traced) - statistics.median(plain)
    return layers, overhead, info


def layer_metric(name: str, layers: dict, overhead: float, observations: dict) -> float:
    """One per-layer metric from the traced summary, by its BENCHMARK.json name."""
    if name == "cli.trace_overhead_s":
        return overhead
    if name.startswith("check."):
        return observations.get(name.split(".", 1)[1], 0)
    base, stat = name.rsplit(".", 1)
    entry = layers.get(base, {})
    calls = entry.get("calls", 0)
    if stat == "self_s":
        return entry.get("self_ns", 0) / 1e9
    if stat == "wall_s":
        return entry.get("total_ns", 0) / 1e9
    if stat == "ns_per_call":
        return entry.get("self_ns", 0) / calls if calls else 0
    if stat == "calls_per_cell":
        cells = layers.get("simulate.slot_partition", {}).get("cells", 0)
        return calls / cells if cells else 0
    return entry.get(stat, 0)


def src_facts() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(name, defn, bench, seed, seconds, traced, workdir, consumers=None):
    """One run of one workload: (result, meta)."""
    trace = tracegen.generate(name, defn, seed, consumers)
    csv_path = workdir / f"{name}.csv"
    csv_path.write_bytes(trace.csv_bytes)
    argv = cli_args(defn, trace, csv_path)
    tiers, base_days = check.load_tiers(SCHEDULE)
    verdicts = Verdicts(defn, check.Expected(trace, tiers, base_days, defn["slot_hours"]))
    cells = len(trace.consumers) * trace.slots
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "input": {"rows": len(trace.readings), "sha256": trace.sha256, "consumers": len(trace.consumers), "cells": cells},
        "argv": ["progtariff", *(arg.replace(str(ROOT) + os.sep, "") for arg in argv)],
    }
    metrics = {}
    try:
        if traced:
            spans_path = RUN_DIR / f"spans-{name}.csv.gz"
            layers, overhead, meta["tracing"] = run_traced(argv, seconds, verdicts, spans_path)
            wanted = bench["per_layer"]
            for metric in wanted:
                metrics[metric["name"]] = layer_metric(metric["name"], layers, overhead, verdicts.observations)
        else:
            values, meta["samples"], meta["medians"] = run_untraced(argv, cells, seconds, verdicts, workdir)
            wanted = bench["end_to_end"]
            metrics = {metric["name"]: values[metric["name"]] for metric in wanted}
    except Failure as err:
        verdicts.fail(str(err))
        wanted = []
    meta["stdout_sha256"] = verdicts.digest
    meta["checks"] = verdicts.observations
    meta["error_rate"] = verdicts.failed / max(1, verdicts.attempted)
    meta["failures"] = verdicts.failures[:10]
    result = {
        "correct": verdicts.failed == 0 and bool(wanted),
        "attempted": max(1, verdicts.attempted),
        "failed": verdicts.failed if verdicts.attempted else 1,
        "metrics": {metric["name"]: {"value": metrics.get(metric["name"], 0), "unit": metric["unit"]} for metric in wanted},
    }
    return result, meta


def describe(result: dict, meta: dict) -> list[str]:
    lines = [f"{meta['workload']} seed {meta['seed']}: {meta['input']['rows']} rows, sha256 {meta['input']['sha256'][:16]}"]
    samples, medians = meta.get("samples", {}), meta.get("medians", {})
    sources = {"cells_per_s": "run_cli_s", "peak_rss_mb": "peak_rss_kib"}
    for name, metric in result["metrics"].items():
        count = len(samples.get(sources.get(name, name), ()))
        note = ""
        if name in medians:
            note = f"  (mean of {count}; median {medians[name]:.6f})"
        elif count:
            note = f"  (median of {count})"
        lines.append(f"  {name:<44} {metric['value']:>16.6f} {metric['unit']}{note}")
    lines.append(f"  {'error_rate':<44} {meta['error_rate']:>16.6f} ratio  ({result['failed']}/{result['attempted']} invocations failed)")
    for failure in meta["failures"]:
        lines.append(f"  failure: {failure}")
    return lines


def import_program() -> str | None:
    """Import progtariff.cli from this checkout's src/; say why not if it fails."""
    if not (SRC / "progtariff" / "cli.py").is_file():
        return f"program source not found under {SRC}"
    sys.path.insert(0, str(SRC))
    import progtariff.cli

    if Path(progtariff.cli.__file__).resolve().parent.parent != SRC.resolve():
        return f"progtariff imported from {progtariff.cli.__file__}, not {SRC}"
    return None


def main(argv=None) -> int:
    bench, workloads = load_config()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    problem = import_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    names = list(workloads) if args.workload == "all" else [args.workload]
    common = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        **src_facts(),
    }
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RUN_DIR))
    results = []
    try:
        for name in names:
            result, meta = run_workload(name, workloads[name], bench, args.seed, args.seconds, args.trace, workdir)
            meta.update(common)
            results.append((name, result))
            print("\n".join(describe(result, meta)))
            print(json.dumps({"meta": meta}, sort_keys=True))
            record = RUN_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps({"meta": meta, "result": result}, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(result["correct"] for _, result in results),
            "attempted": sum(result["attempted"] for _, result in results),
            "failed": sum(result["failed"] for _, result in results),
            "metrics": {f"{name}.{key}": value for name, result in results for key, value in result["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
