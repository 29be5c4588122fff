"""Peak-memory, time and refusal gates of the progtariff CLI, on inputs too
large or too hostile for the unit tests. Run it on Python 3.11, the
benchmark's version: ``python ci/gates.py``.

Every input is written once into a temporary directory. Each case runs the
CLI in a fresh process under perfbench/run.py's launcher, which writes the
child's own peak resident set (VmHWM) to stderr after PEAK_TAG. A case is a
row: label, argv, a file piped in by ``cat`` or None, a timeout in s, a peak
bound in MiB or None, and either the expected exit status and stderr or a
stdout check that returns a problem or None. One line is printed per case;
the exit status is 1 if any case failed, and each failed case is listed.
"""

import datetime
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402

SCHEDULE = ["--schedule", "fixtures/kepco_residential.json"]


def write_inputs(temp: str) -> dict:
    """Write every input into *temp*; return the argv of the two workloads."""
    workloads, argv = run.load_config()[1], {}
    for name, path in (("compare-json-200x120", "trace"), ("shift-100x120", "shift")):
        trace = run.tracegen.generate(name, workloads[name], 3, consumers=2000)
        Path(temp, f"{path}.csv").write_bytes(trace.csv_bytes)
        argv[path] = run.cli_args(workloads[name], trace, f"{temp}/{path}.csv")
    row = b"a,2025-01-01T00:00:00Z,1\n"
    with open(f"{temp}/bad-byte.csv", "wb") as handle:
        handle.write(b"consumer_id,interval_start,energy_kwh\n\xff" + row)
        for _ in range(100):
            handle.write(row * (2**20 // len(row)))
    Path(temp, "overlap.csv").write_text(
        "consumer_id,interval_start,energy_kwh,interval_end\n"
        + "a,2025-01-01T00:00:00Z,1,2025-01-31T00:00:00Z\n" * 2000
    )
    days = (datetime.date(2000, 1, 1) + datetime.timedelta(n) for n in range(1_000_000))
    with open(f"{temp}/daily.csv", "w") as handle:
        handle.write("consumer_id,interval_start,energy_kwh\n")
        handle.writelines(f"a,{day}T00:00:00Z,1\n" for day in days)
    Path(temp, "nested.json").write_text("[" * 1000)
    return argv


def cases(temp: str, argv: dict) -> list:
    flag = argv["trace"].index("--period-start")
    without = argv["trace"][:flag] + argv["trace"][flag + 2 :]
    piped = ["/dev/stdin" if arg == f"{temp}/trace.csv" else arg for arg in without]
    reports = {}

    def same_report(stdout: bytes):
        if len(json.loads(stdout)["consumers"]) != 2000:
            return "the report does not hold 2000 consumers"
        first = reports.setdefault("first", stdout)
        return None if stdout == first else "the report is not the first case's bytes"

    consumer = argv["shift"][argv["shift"].index("--consumer") + 1]
    compare = ["compare", *SCHEDULE, "--trace"]
    overlap = [*compare, f"{temp}/overlap.csv", "--slot-hours", "1/60"]
    overlap_error = "error: overlapping interval readings for consumer 'a'\n"
    return [
        # Slot sums streamed from the trace, the matrix freed before
        # rendering, one price per distinct cell usage and each consumer's
        # slot-charge texts rendered as written: 37.1 MiB (48.5 MiB with the
        # texts built before the first write, 62 with the matrix also held
        # while rendering, 80 with every reading in a list, 138 with the JSON
        # built whole). Without --period-start, or from a pipe, the trace is
        # read the same once, holding no reading: the same peak and bytes.
        ("compare --json with --period-start", argv["trace"], None, 120, 43, same_report),
        ("compare --json without it", without, None, 120, 43, same_report),
        ("compare --json from a pipe", piped, f"{temp}/trace.csv", 120, 43, same_report),
        # One pass over the slots holds one slot's price and share columns at
        # a time: 27.8 MiB (36.5 MiB with every slot's columns held, then the
        # two shifted slots billed again).
        ("shift --json", argv["shift"], None, 120, 32,
         lambda out: None if json.loads(out)["consumer"] == consumer else "another consumer"),
        # The byte's offset is found by decoding the file again 64 KiB at a
        # time, so the CLI exits at about the interpreter's own peak, 17.6 MiB
        # (near 200 MiB reading the file whole). A pipe cannot be read again:
        # the byte is reported at its line, and the CLI stops at row 2.
        ("bad byte in a 100 MiB file", [*compare, f"{temp}/bad-byte.csv"], None, 120, 40,
         (1, f"error: {temp}/bad-byte.csv: not UTF-8 text (invalid start byte at byte 38)\n")),
        ("bad byte from a pipe", [*compare, "/dev/stdin"], f"{temp}/bad-byte.csv", 120, 40,
         (1, "error: /dev/stdin:2: not UTF-8 text\n")),
        # 2,000 copies of one whole-month interval on one-minute slots are not
        # split past the slot edges that intervals without overlaps can cross:
        # refused in 0.2 s (117 s when each copy was split over 43,200 slots).
        ("overlap with --period-start", [*overlap, "--period-start", "2025-01-01T00:00:00Z"],
         None, 20, None, (1, overlap_error)),
        ("overlap without it", overlap, None, 20, None, (1, overlap_error)),
        # A daily trace of 1,000,000 rows, without --period-start, is refused
        # for its row 31 at 17.6 MiB in 2-4 s (195 MiB when the first reading
        # of every day was kept to the end).
        ("daily trace of 1,000,000 rows", [*compare, f"{temp}/daily.csv"], None, 120, 40,
         (1, "error: reading for 'a' at 2000-01-31T00:00:00+00:00 lies outside the "
             "billing period\n")),
        # A schedule of 1,000 nested arrays is refused with no traceback.
        ("nested schedule", ["validate", "--schedule", f"{temp}/nested.json"], None, 120, None,
         (1, f"error: {temp}/nested.json: arrays or objects nested too deeply\n")),
        ("validate the fixture", ["validate", *SCHEDULE], None, 120, None, (0, "")),
        ("validate a missing file", ["validate", "--schedule", "fixtures/missing.json"],
         None, 120, None, (1, "error: fixtures/missing.json: No such file or directory\n")),
    ]


def run_case(argv: list, pipe, timeout: float) -> tuple:
    """Exit status, seconds, peak MiB or None, stdout and stderr without the
    launcher's peak line, of one fresh CLI process, killed at *timeout*."""
    cat = pipe and subprocess.Popen(["cat", pipe], stdout=subprocess.PIPE)
    start = time.perf_counter()
    try:
        with subprocess.Popen(
            [sys.executable, "-c", run.LAUNCHER, *argv], cwd=ROOT,
            stdin=cat.stdout if cat else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH="src"),
        ) as child:
            if cat:
                cat.stdout.close()  # so that cat stops once the child has gone
            try:
                stdout, stderr = child.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                child.kill()
                stdout, stderr = child.communicate()
    finally:
        if cat:
            cat.kill()
            cat.wait()
    seconds = time.perf_counter() - start
    stderr, tag, kib = stderr.decode(errors="replace").rpartition(f"\n{run.PEAK_TAG} ")
    peak = int(kib) / 1024 if tag else None
    return child.returncode, seconds, peak, stdout, stderr if tag else kib


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as temp:
        for label, argv, pipe, timeout, bound, expect in cases(temp, write_inputs(temp)):
            status, seconds, peak, stdout, stderr = run_case(argv, pipe, timeout)
            shown = "no peak" if peak is None else f"peak {peak:.1f} MiB"
            print(f"{label}: exit {status} in {seconds:.1f} s, {shown}, stderr {stderr!r}")
            if seconds >= timeout:
                problem = f"timed out after {timeout} s"
            elif bound is not None and (peak is None or peak > bound):
                problem = f"{shown}, bound {bound} MiB"
            elif callable(expect):
                try:
                    problem = f"exit {status}" if status else expect(stdout)
                except (ValueError, KeyError) as err:
                    problem = f"stdout does not parse: {err!r}"
            else:
                problem = None if (status, stderr) == expect else f"expected {expect!r}"
            if problem:
                failed.append(f"{label}: {problem}")
    print(*(["failed:", *failed] if failed else ["every gate passed"]), sep="\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
