import errno
import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import progtariff
from progtariff import fileio
from progtariff.cli import run_cli

from conftest import FIXTURES

SCHEDULE = str(FIXTURES / "kepco_residential.json")
SLOT_TRACE = str(FIXTURES / "three_consumer_slot_exact.csv")
MONTH_TRACE = str(FIXTURES / "two_consumer_month.csv")


def run(capsys, *argv):
    status = run_cli(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_bill_350(capsys):
    status, out, err = run(
        capsys, "bill", "--schedule", SCHEDULE, "--usage", "350"
    )
    assert status == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "51480.00"
    assert len(lines) == 5  # price plus four tier rows
    assert lines[1] == "tier 1: 100.0000 kWh @ 60.7 = 6070.00 KRW"


def test_bill_zero_usage(capsys):
    status, out, _ = run(capsys, "bill", "--schedule", SCHEDULE, "--usage", "0")
    assert status == 0
    assert out == "0.00\n"


def test_allocate_independent(capsys):
    status, out, _ = run(
        capsys,
        "allocate",
        "--group",
        "466.50",
        "--individual",
        "312.08,155.50,50.58",
        "--policy",
        "independent",
    )
    assert status == 0
    assert out == "280.97,140.00,45.54\n"


def test_allocate_exact_sum_default(capsys):
    status, out, _ = run(
        capsys, "allocate", "--group", "466.50", "--individual", "312.08,155.50,50.58"
    )
    assert status == 0
    assert out == "280.96,140.00,45.54\n"


def test_allocate_json(capsys):
    status, out, _ = run(
        capsys,
        "allocate",
        "--group",
        "466.50",
        "--individual",
        "312.08,155.50,50.58",
        "--json",
    )
    payload = json.loads(out)
    assert payload["total"] == "466.50"
    assert payload["policy"] == "exact-sum"


@pytest.mark.parametrize(
    "individual, error",
    [
        ("1,,2", "--individual: item 2 is empty"),
        ("1,2,", "--individual: item 3 is empty"),
        (",1", "--individual: item 1 is empty"),
        ("1, ,2", "--individual: item 2 is empty"),
        (" ", "--individual needs at least one price"),
    ],
)
def test_allocate_refuses_an_empty_item(capsys, individual, error):
    # Dropping an empty item would renumber the ids after it.
    status, out, err = run(capsys, "allocate", "--group", "10", "--individual", individual)
    assert (status, out, err) == (1, "", f"error: {error}\n")


def test_validate_summary(capsys):
    status, out, err = run(capsys, "validate", "--schedule", SCHEDULE)
    assert status == 0 and err == ""
    assert "tier 6: above 500.0000 kWh at 709.5/kWh" in out


def test_compare_slot_trace(capsys):
    status, out, _ = run(
        capsys, "compare", "--schedule", SCHEDULE, "--trace", SLOT_TRACE
    )
    assert status == 0
    assert "518.16" in out
    assert "466.50" in out
    assert "51.66" in out


def test_compare_json_deterministic(capsys):
    args = ("compare", "--schedule", SCHEDULE, "--trace", SLOT_TRACE, "--json")
    status1, out1, _ = run(capsys, *args)
    status2, out2, _ = run(capsys, *args)
    assert status1 == status2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["aggregate"]["group_saving"] == "51.66"
    assert payload["aggregate"]["slotted_individual"] == "518.16"


def test_compare_json_writes_the_shared_grid_and_demand_once(capsys):
    base = ("--schedule", SCHEDULE, "--trace", SLOT_TRACE, "--json")
    status, out, _ = run(capsys, "compare", *base)
    assert status == 0
    comparison = json.loads(out)
    for name, scheme in comparison["schemes"].items():
        assert "grid" not in scheme and "demand" not in scheme, name
    status, out, _ = run(capsys, "simulate", *base)
    assert status == 0
    report = json.loads(out)
    assert comparison["grid"] == report["grid"]
    assert comparison["demand"] == report["demand"]


def test_simulate_monthly_single_consumer(capsys, tmp_path):
    trace = tmp_path / "one.csv"
    trace.write_text(
        "consumer_id,interval_start,energy_kwh\nhome,2025-01-01T00:00:00Z,350\n"
    )
    status, out, _ = run(
        capsys,
        "simulate",
        "--schedule",
        SCHEDULE,
        "--trace",
        str(trace),
        "--scheme",
        "monthly-individual",
    )
    assert status == 0
    assert "51480.00" in out


def test_shift_reports_negative_delta(capsys):
    status, out, _ = run(
        capsys,
        "shift",
        "--schedule",
        SCHEDULE,
        "--trace",
        MONTH_TRACE,
        "--consumer",
        "c2",
        "--from-slot",
        "1",
        "--to-slot",
        "2",
        "--amount",
        "1.2",
    )
    assert status == 0
    assert "delta -12.85" in out


def test_missing_file_is_input_error(capsys):
    status, out, err = run(capsys, "bill", "--schedule", "nope.json", "--usage", "1")
    assert status == 1
    assert out == ""
    assert err.strip() != ""
    assert "Traceback" not in err


def test_unknown_flag_is_input_error(capsys):
    status, _, err = run(capsys, "bill", "--schedule", SCHEDULE, "--frobnicate")
    assert status == 1
    assert err.strip() != ""


def test_unknown_command_is_input_error(capsys):
    status, _, err = run(capsys, "explode")
    assert status == 1
    assert err.strip() != ""


def test_negative_usage_is_input_error(capsys):
    status, _, err = run(capsys, "bill", "--schedule", SCHEDULE, "--usage", "-5")
    assert status == 1
    assert ">= 0" in err


def test_bad_trace_row_is_reported_with_line(capsys, tmp_path):
    trace = tmp_path / "bad.csv"
    trace.write_text(
        "consumer_id,interval_start,energy_kwh\n"
        "a,2025-01-01T00:00:00Z,1\n"
        "a,2025-01-01T06:00:00Z,oops\n"
    )
    status, _, err = run(
        capsys, "simulate", "--schedule", SCHEDULE, "--trace", str(trace)
    )
    assert status == 1
    assert "bad.csv:3" in err


@pytest.mark.parametrize(
    "energy, error",
    [("oops", "not a decimal or p/q number: 'oops'"), ("1" * 200_000, "field larger than")],
    ids=["bad-energy", "long-field"],
)
def test_trace_errors_name_the_line_a_row_ends_on(capsys, tmp_path, energy, error):
    # The quoted id spans lines 2-3, so the bad row is the third record but
    # ends on line 4. A row check and a csv module error both name line 4.
    trace = tmp_path / "quoted.csv"
    trace.write_text(
        "consumer_id,interval_start,energy_kwh\n"
        '"a\nb",2025-01-01T00:00:00Z,1\n'
        f"c,2025-01-01T06:00:00Z,{energy}\n"
    )
    status, out, err = run(capsys, "compare", "--schedule", SCHEDULE, "--trace", str(trace))
    assert (status, out) == (1, "")
    assert err.startswith(f"error: {trace}:4: {error}")


def test_huge_exponent_in_trace_is_reported_with_line(capsys, tmp_path):
    trace = tmp_path / "huge.csv"
    trace.write_text(
        "consumer_id,interval_start,energy_kwh\n"
        "a,2025-01-01T00:00:00Z,1\n"
        "a,2025-01-01T06:00:00Z,1e100000000\n"
    )
    status, _, err = run(
        capsys, "compare", "--schedule", SCHEDULE, "--trace", str(trace)
    )
    assert status == 1
    assert "huge.csv:3: decimal exponent beyond" in err


def test_underscored_energy_in_trace_is_reported_with_line(capsys, tmp_path):
    # Fraction's parser reads "1_000" from Python 3.11 on; every version
    # refuses it, as 3.10 does.
    trace = tmp_path / "underscore.csv"
    trace.write_text("consumer_id,interval_start,energy_kwh\na,2025-01-01T00:00:00Z,1_000\n")
    status, out, err = run(capsys, "compare", "--schedule", SCHEDULE, "--trace", str(trace))
    assert status == 1 and out == ""
    assert err == f"error: {trace}:2: not a decimal or p/q number: '1_000'\n"


def test_energy_with_too_many_digits_names_the_limit(capsys, tmp_path):
    digits = "1" * 5000
    trace = tmp_path / "long.csv"
    trace.write_text(f"consumer_id,interval_start,energy_kwh\na,2025-01-01T00:00:00Z,{digits}\n")
    status, out, err = run(capsys, "compare", "--schedule", SCHEDULE, "--trace", str(trace))
    assert (status, out) == (1, "")
    limit = sys.get_int_max_str_digits()
    echo = f"{digits[:40]!r}... (5000 characters)"
    assert err == f"error: {trace}:2: more than {limit} digits in {echo}\n"


def test_value_too_large_to_display_is_input_error(capsys, tmp_path):
    # 1e4300 is accepted, but its price has more digits than Python
    # converts to text. A free schedule prices it at 0, so only the
    # tier's energy is too large.
    free = tmp_path / "free.json"
    free.write_text('{"currency": "KRW", "tiers": [{"upper_kwh": null, "rate": "0"}]}')
    limit = "amount too large to display: more than 4300 digits"
    for schedule in (SCHEDULE, str(free)):
        for extra in ([], ["--json"]):
            status, out, err = run(
                capsys, "bill", "--schedule", schedule, "--usage", "1e4300", *extra
            )
            assert (status, out, err) == (1, "", f"error: {limit}\n")
    status, out, _ = run(capsys, "bill", "--schedule", SCHEDULE, "--usage", "1e1000")
    assert status == 0 and len(out.splitlines()[0]) == 1006


def test_schedule_bound_too_large_to_display_is_input_error(capsys, tmp_path):
    # 1e4300 is accepted as a tier bound. The summary renders it as a
    # decimal, the JSON form as a whole int; both have more digits than
    # Python converts to text.
    huge = tmp_path / "huge.json"
    huge.write_text(
        '{"currency": "KRW", "tiers": [{"upper_kwh": 1e4300, "rate": "60.7"},'
        ' {"upper_kwh": null, "rate": "70"}]}'
    )
    limit = "amount too large to display: more than 4300 digits"
    for extra in ([], ["--json"]):
        status, out, err = run(capsys, "validate", "--schedule", str(huge), *extra)
        assert (status, out, err) == (1, "", f"error: {limit}\n")


def test_empty_trace_needs_period_start(capsys, tmp_path):
    trace = tmp_path / "empty.csv"
    trace.write_text("consumer_id,interval_start,energy_kwh\n")
    status, _, err = run(
        capsys, "compare", "--schedule", SCHEDULE, "--trace", str(trace)
    )
    assert status == 1
    assert "--period-start" in err


def test_internal_check_failure_exits_two(capsys, monkeypatch):
    import progtariff.cli as cli
    from progtariff import InternalCheckError

    def explode(*args, **kwargs):
        raise InternalCheckError("collective price escaped its bound")

    monkeypatch.setattr(cli, "run_scheme", explode)
    status, _, err = run(
        capsys,
        "simulate",
        "--schedule",
        SCHEDULE,
        "--trace",
        SLOT_TRACE,
    )
    assert status == 2
    assert "internal check failed" in err


def test_help_exits_zero(capsys):
    status, out, _ = run(capsys, "--help")
    assert status == 0
    assert "validate" in out and "allocate" in out


def test_cli_output_byte_identical_across_runs(capsys):
    args = ("bill", "--schedule", SCHEDULE, "--usage", "350")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_grid_past_datetime_range_or_slot_cap_is_input_error(capsys):
    base = ["compare", "--schedule", SCHEDULE, "--trace", SLOT_TRACE]
    cases = [
        (["--period-start", "9999-12-20T00:00:00Z"], "ends past the last datetime"),
        (["--period-days", "100000000"], "ends past the last datetime"),
        (["--slot-hours", "1e-30"], "more than 1000000 slots"),
    ]
    for flags, reason in cases:
        status, out, err = run(capsys, *base, *flags)
        assert (status, out) == (1, ""), flags
        assert err.startswith("error: ") and reason in err, flags


def test_grid_refusals_name_their_flags(capsys):
    base = ["compare", "--schedule", SCHEDULE, "--trace", SLOT_TRACE]
    cases = [
        (["--slot-hours", "0"], "error: slot_hours must be > 0, got 0\n"),
        (["--slot-hours", "-1"], "error: slot_hours must be > 0, got -1\n"),
        (["--period-days", "0"], "error: period_days must be >= 1, got 0\n"),
    ]
    for flags, message in cases:
        assert run(capsys, *base, *flags) == (1, "", message), flags


def test_grid_past_cell_cap_is_input_error(capsys):
    # 3 consumers on 1/463 h slots: 333,360 slots, under the slot cap, but
    # 1,000,080 cells, over the cell cap. Refused at the third consumer.
    status, out, err = run(
        capsys, "compare", "--schedule", SCHEDULE, "--trace", SLOT_TRACE,
        "--slot-hours", "1/463", "--json",
    )
    assert (status, out) == (1, "")
    assert err == "error: 3 consumers on 333360 slots would need more than 1000000 cells\n"


def test_huge_rejected_value_keeps_its_reason(capsys, tmp_path):
    # Each value has more digits than Python converts to text; the error
    # must still say why the value was refused.
    trace = tmp_path / "negative.csv"
    trace.write_text("consumer_id,interval_start,energy_kwh\na,2025-01-01T00:00:00Z,-1e4300\n")
    huge = "<more than 4300 digits>"
    cases = [
        (["bill", "--schedule", SCHEDULE, "--usage=-1e4300"], f"energy must be >= 0, got -{huge}"),
        (
            ["compare", "--schedule", SCHEDULE, "--trace", SLOT_TRACE, "--slot-hours=-1e4300"],
            f"slot_hours must be > 0, got -{huge}",
        ),
        (["allocate", "--group=-1e4300", "--individual", "1,2"], f"money must be >= 0, got -{huge}"),
        (
            ["compare", "--schedule", SCHEDULE, "--trace", str(trace)],
            f"negative.csv:2: energy must be >= 0, got -{huge}",
        ),
        (
            [
                "shift", "--schedule", SCHEDULE, "--trace", SLOT_TRACE, "--consumer", "c1",
                "--from-slot", "0", "--to-slot", "1", "--amount", "1e4300",
            ],
            f"cannot shift {huge} kWh out of slot 0: only",
        ),
    ]
    for argv, reason in cases:
        status, out, err = run(capsys, *argv)
        assert (status, out) == (1, ""), argv
        assert reason in err and "Exceeds the limit" not in err, argv


def test_trace_field_past_csv_limit_is_reported_with_line(capsys, tmp_path):
    trace = tmp_path / "wide.csv"
    trace.write_text(
        "consumer_id,interval_start,energy_kwh\n"
        "a,2025-01-01T00:00:00Z,1\n"
        f"a,2025-01-01T06:00:00Z,{'1' * 200_000}\n"
    )
    status, out, err = run(capsys, "compare", "--schedule", SCHEDULE, "--trace", str(trace))
    assert (status, out) == (1, "")
    assert err.startswith(f"error: {trace}:3: field larger than field limit")
    assert "Traceback" not in err


def test_non_utf8_trace_or_schedule_names_the_file(capsys, tmp_path):
    # 0xff starts no UTF-8 sequence.
    trace = tmp_path / "bad.csv"
    trace.write_bytes(b"consumer_id,interval_start,energy_kwh\n\xff,2025-01-01T00:00:00Z,1\n")
    schedule = tmp_path / "bad.json"
    schedule.write_bytes(b'{"currency": "\xff", "tiers": []}')
    cases = [
        (["compare", "--schedule", SCHEDULE, "--trace", str(trace)], trace, 38),
        (["validate", "--schedule", str(schedule)], schedule, 14),
    ]
    for argv, path, byte in cases:
        status, out, err = run(capsys, *argv)
        assert (status, out) == (1, ""), argv
        assert err == f"error: {path}: not UTF-8 text (invalid start byte at byte {byte})\n"


def test_integer_flags_refuse_underscores(capsys):
    # int() reads "3_0" as 30; every other number refuses underscores
    # (amounts.exact), and so do the whole-number flags.
    base = ["--schedule", SCHEDULE, "--trace", SLOT_TRACE]
    shift = ["shift", *base, "--consumer", "c1", "--amount", "1"]
    cases = [
        (["compare", *base, "--period-days", "3_0"], "--period-days", "3_0"),
        ([*shift, "--from-slot", "0_1", "--to-slot", "2"], "--from-slot", "0_1"),
        ([*shift, "--from-slot", "1", "--to-slot", "1_0"], "--to-slot", "1_0"),
    ]
    for argv, flag, value in cases:
        status, out, err = run(capsys, *argv)
        assert (status, out) == (1, ""), argv
        assert err == f"error: argument {flag}: not an integer: '{value}'\n"


def test_integer_flags_still_read_plain_integers(capsys):
    base = ["--schedule", SCHEDULE, "--trace", SLOT_TRACE]
    _, thirty, _ = run(capsys, "compare", *base)
    status, out, _ = run(capsys, "compare", *base, "--period-days", " 30 ")
    assert (status, out) == (0, thirty)
    status, _, err = run(capsys, "compare", *base, "--period-days", "x")
    assert (status, err) == (1, "error: argument --period-days: not an integer: 'x'\n")


def test_schedule_json_past_display_limit_writes_nothing(capsys, tmp_path):
    # The JSON text of this schedule spans several output chunks, and its
    # last tier bound, 1e4300, has 4,301 digits: the error comes while
    # the payload is built, before the first chunk is written.
    tiers = ", ".join(f'{{"upper_kwh": {bound}, "rate": "60.7"}}' for bound in range(1, 5001))
    last = '{"upper_kwh": %s, "rate": "70"}, {"upper_kwh": null, "rate": "80"}]}'
    printable, huge = tmp_path / "printable.json", tmp_path / "huge.json"
    printable.write_text(f'{{"currency": "KRW", "tiers": [{tiers}, ' + last % "5001")
    huge.write_text(f'{{"currency": "KRW", "tiers": [{tiers}, ' + last % "1e4300")
    status, out, _ = run(capsys, "validate", "--schedule", str(printable), "--json")
    assert status == 0 and len(out) > 3 * fileio.JSON_CHUNK_CHARS
    status, out, err = run(capsys, "validate", "--schedule", str(huge), "--json")
    assert (status, out) == (1, "")
    assert err == "error: amount too large to display: more than 4300 digits\n"


def test_unprintable_comparison_writes_nothing(capsys, tmp_path):
    # One reading per cell of unrelated p/q energies on 20 x 120 six-hour
    # slots: the exact aggregate and demand figures have more digits than
    # Python prints, so compare --json fails, and prints nothing.
    rng = random.Random(5)
    start = datetime(2025, 1, 1, tzinfo=timezone.utc)
    lines = ["consumer_id,interval_start,energy_kwh"]
    for consumer in range(20):
        for slot in range(120):
            stamp = (start + timedelta(hours=6 * slot)).strftime("%Y-%m-%dT%H:%M:%SZ")
            energy = f"{rng.randint(1, 5_000_000)}/{rng.randint(1, 999_999)}"
            lines.append(f"c{consumer:02d},{stamp},{energy}")
    trace = tmp_path / "pq.csv"
    trace.write_text("\n".join(lines) + "\n")
    status, out, err = run(
        capsys, "compare", "--schedule", SCHEDULE, "--trace", str(trace), "--json"
    )
    assert (status, out) == (1, "")
    assert err == "error: amount too large to display: more than 4300 digits\n"


def test_trace_read_as_stream_reports_exact_byte_offset(capsys, tmp_path):
    # The bad byte lies well past the first read block; its offset is
    # still the file's. The padding row before it is blank, so the byte
    # is the first fault.
    head = b"consumer_id,interval_start,energy_kwh\n"
    row = b"a,2025-01-01T00:00:00Z,1\n"
    body = head + row * ((200_000 - len(head)) // len(row))
    body += b" " * (200_000 - len(body))
    trace = tmp_path / "late.csv"
    trace.write_bytes(body[:-1] + b"\n\xff,2025-01-01T00:00:00Z,1\n")
    status, out, err = run(capsys, "compare", "--schedule", SCHEDULE, "--trace", str(trace))
    assert (status, out) == (1, "")
    assert err == f"error: {trace}: not UTF-8 text (invalid start byte at byte 200000)\n"


def test_trace_reports_first_fault_in_file_order(capsys, tmp_path):
    # A bad row before a bad byte is reported first: the trace is checked
    # row by row as it is read, and the byte lies in a later read block.
    trace = tmp_path / "both.csv"
    trace.write_bytes(
        b"consumer_id,interval_start,energy_kwh\n"
        b"a,2025-01-01T00:00:00Z,oops\n"
        + b"a,2025-01-01T00:00:00Z,1\n" * 10_000
        + b"\xff,2025-01-01T00:00:00Z,1\n"
    )
    status, out, err = run(capsys, "compare", "--schedule", SCHEDULE, "--trace", str(trace))
    assert (status, out) == (1, "")
    assert err == f"error: {trace}:2: not a decimal or p/q number: 'oops'\n"


@pytest.mark.parametrize(
    "row, flags, error",
    [
        ("a,2025-01-01T00:00:00Z,oops", [], "{trace}:2: not a decimal or p/q number: 'oops'"),
        (
            "a,2026-01-01T00:00:00Z,1",
            ["--period-start", "2025-01-01T00:00:00Z"],
            "reading for 'a' at 2026-01-01T00:00:00+00:00 lies outside the billing period",
        ),
    ],
)
def test_fault_before_a_bad_byte_in_the_same_read_block_comes_first(
    capsys, tmp_path, row, flags, error
):
    # The bad byte lies in the decoder's first block, with row 2.
    trace = tmp_path / "near.csv"
    trace.write_bytes(
        f"consumer_id,interval_start,energy_kwh\n{row}\n".encode()
        + b"\xff,2025-01-01T00:00:00Z,1\n"
    )
    status, out, err = run(capsys, "compare", "--schedule", SCHEDULE, "--trace", str(trace), *flags)
    assert (status, out) == (1, "")
    assert err == f"error: {error.format(trace=trace)}\n"


def test_period_fault_order_depends_on_the_period_start_flag(capsys, tmp_path):
    # With --period-start the trace is streamed into the partition, so a
    # reading outside the period on row 2 is reported before the malformed
    # row 5. Without it the trace is read whole first, to find the period
    # start, so the malformed row is reported.
    trace = tmp_path / "late.csv"
    trace.write_text(
        "consumer_id,interval_start,energy_kwh\n"
        "a,2024-12-31T23:00:00Z,1\n"
        "a,2025-01-01T00:00:00Z,1\n"
        "b,2025-01-02T00:00:00Z,1\n"
        "b,2025-01-03T00:00:00Z,oops\n"
    )
    base = ["compare", "--schedule", SCHEDULE, "--trace", str(trace)]
    status, out, err = run(capsys, *base, "--period-start", "2025-01-01T00:00:00Z")
    assert (status, out) == (1, "")
    assert err == (
        "error: reading for 'a' at 2024-12-31T23:00:00+00:00 lies outside the billing period\n"
    )
    status, out, err = run(capsys, *base)
    assert (status, out) == (1, "")
    assert err == f"error: {trace}:5: not a decimal or p/q number: 'oops'\n"


def test_default_period_start_near_the_last_datetime(capsys, tmp_path):
    # The first row's midnight is no period start: a 30-day period from it
    # would end past the last datetime, one from the earliest midnight not.
    trace = tmp_path / "late.csv"
    trace.write_text(
        "consumer_id,interval_start,energy_kwh\n"
        "a,9999-12-15T00:00:00Z,1\n"
        "a,9999-12-01T00:00:00Z,2\n"
    )
    base = ["compare", "--schedule", SCHEDULE, "--trace", str(trace), "--json"]
    status, out, err = run(capsys, *base, "--period-start", "9999-12-01T00:00:00Z")
    assert (status, err) == (0, "")
    assert run(capsys, *base) == (0, out, "")


def test_an_interval_over_millennia_is_refused_without_splitting_it(tmp_path):
    # On one-minute slots the interval would be split over 3.7e9 slots; it
    # lies past the period from its own start, so it is refused unsplit.
    # The CLI runs in a child process, which a split would keep past the
    # timeout.
    trace = tmp_path / "long.csv"
    trace.write_text(
        "consumer_id,interval_start,energy_kwh,interval_end\n"
        "a,2025-01-01T00:00:00Z,1,9000-01-01T00:00:00Z\n"
    )
    done = subprocess.run(
        [sys.executable, "-m", "progtariff", "compare", "--schedule", SCHEDULE,
         "--trace", str(trace), "--slot-hours", "1/60"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(progtariff.__file__).parents[1])),
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (
        "error: reading for 'a' ending 9000-01-01T00:00:00+00:00 lies outside the billing period\n"
    )


@pytest.mark.parametrize("name", ["two_consumer_month.csv", "three_consumer_intervals.csv"])
def test_default_period_start_from_the_last_row(capsys, tmp_path, name):
    # Reversed, each trace opens on a later day than its earliest reading
    # (the month's is its last row), so its slots are counted from a later
    # midnight and every row is turned at the end.
    header, *rows = (FIXTURES / name).read_text().splitlines()
    trace = tmp_path / name
    trace.write_text("\n".join([header, *reversed(rows)]) + "\n")
    for form in ([], ["--json"]):
        base = ["compare", "--schedule", SCHEDULE, *form]
        start = ["--period-start", "2025-01-01T00:00:00Z"]
        status, out, err = run(capsys, *base, "--trace", str(FIXTURES / name), *start)
        assert (status, err) == (0, "")
        assert run(capsys, *base, "--trace", str(trace)) == (0, out, "")


def _column_ends(line):
    """Where each blank-separated field of a table line ends."""
    ends, inside = [], False
    for index, char in enumerate(line + " "):
        if char == " " and inside:
            ends.append(index)
        inside = char != " "
    return ends


def test_text_tables_pad_to_a_consumer_id_wider_than_aggregate(capsys, tmp_path):
    # The bundled ids (c1-c3) are narrower than "aggregate", so only an id
    # like this one sets the label width of the text tables.
    wide = "household-0001"
    trace = tmp_path / "wide.csv"
    trace.write_text(
        "consumer_id,interval_start,energy_kwh\n"
        f"{wide},2025-01-01T00:00:00Z,120.5\n"
        f"{wide},2025-01-01T06:00:00Z,7\n"
        "c2,2025-01-01T00:00:00Z,300\n"
        "c2,2025-01-02T00:00:00Z,0.25\n"
    )
    for command in ("compare", "simulate"):
        status, out, err = run(capsys, command, "--schedule", SCHEDULE, "--trace", str(trace))
        assert (status, err) == (0, "")
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("consumer "))
        header, *rows = lines[start : start + 4]
        labels = ["consumer", "c2", wide, "aggregate"]
        figures = _column_ends(header)[1:]
        assert len(figures) == (5 if command == "compare" else 1)
        for label, line in zip(labels, [header, *rows]):
            assert line.startswith(label.ljust(len(wide)) + "  ")
            # Every figure ends in its header's column: right-aligned.
            assert _column_ends(line)[1 : 1 + len(figures)] == figures


@pytest.mark.parametrize("argv", [["compare"], ["simulate", "--scheme", "slotted-individual"]])
def test_text_tables_widen_a_column_to_its_widest_figure(capsys, tmp_path, argv):
    # b's figures, such as 3547252530.00, are 13 characters, wider than the
    # 12 of the monthly and billed columns; the columns after them keep
    # their places, and every figure still ends in its header's column.
    trace = tmp_path / "wide-figures.csv"
    trace.write_text(
        "consumer_id,interval_start,energy_kwh\n"
        "a,2025-01-01T00:00:00Z,1\n"
        "b,2025-01-01T00:00:00Z,5000000\n"
    )
    status, out, err = run(capsys, *argv, "--schedule", SCHEDULE, "--trace", str(trace))
    assert (status, err) == (0, "")
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("consumer "))
    header, *rows = lines[start : start + 4]
    assert [row.split()[0] for row in rows] == ["a", "b", "aggregate"]
    assert len(rows[1].split()[1]) == 13
    figures = _column_ends(header)[1:]
    for line in rows:
        assert _column_ends(line)[1 : 1 + len(figures)] == figures


@pytest.mark.parametrize(
    "command, to_dict",
    [("compare", "comparison_to_dict"), ("simulate", "report_to_dict")],
)
def test_trace_commands_render_without_the_usage_matrix(capsys, monkeypatch, command, to_dict):
    # The report is rendered once billing is done; the matrix billing read
    # must be gone by then, so the peak of rendering does not include it.
    # The partition with --period-start and the one without are both hooked.
    import progtariff.cli as cli

    matrices = []

    def partition(*args):
        matrix = cli_partition(*args)
        matrices.append(weakref.ref(matrix))
        return matrix

    def partition_from_earliest(*args):
        matrix, grid = cli_from_earliest(*args)
        matrices.append(weakref.ref(matrix))
        return matrix, grid

    def render(result):
        gc.collect()
        assert [ref() for ref in matrices] == [None]
        return cli_to_dict(result)

    cli_partition, cli_to_dict = cli.slot_partition, getattr(cli, to_dict)
    cli_from_earliest = cli.slot_partition_from_earliest
    monkeypatch.setattr(cli, "slot_partition", partition)
    monkeypatch.setattr(cli, "slot_partition_from_earliest", partition_from_earliest)
    monkeypatch.setattr(cli, to_dict, render)
    for start in ([], ["--period-start", "2025-01-01T00:00:00Z"]):
        matrices.clear()
        argv = [command, "--schedule", SCHEDULE, "--trace", SLOT_TRACE, *start, "--json"]
        status, out, err = run(capsys, *argv)
        assert (status, err) == (0, "")
        assert json.loads(out)["consumers"]


def _pipe_path(data: bytes) -> tuple[int, str]:
    """A pipe holding *data* (under the 64 KiB pipe buffer), its writer
    closed, and the /dev/fd path of its read end."""
    read_end, write_end = os.pipe()
    os.write(write_end, data)
    os.close(write_end)
    return read_end, f"/dev/fd/{read_end}"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("start", [[], ["--period-start", "2025-01-01T00:00:00Z"]])
def test_a_pipe_streams_with_and_without_period_start(capsys, start):
    # A pipe can be read only once, and the trace is read once either way,
    # as a stream: the pipe prints what the file it holds prints.
    data = (FIXTURES / "two_consumer_month.csv").read_bytes()
    base = ["compare", "--schedule", SCHEDULE, "--json", *start]
    status, from_file, err = run(capsys, *base, "--trace", MONTH_TRACE)
    assert (status, err) == (0, "")
    read_end, path = _pipe_path(data)
    try:
        assert run(capsys, *base, "--trace", path) == (0, from_file, "")
    finally:
        os.close(read_end)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_regular_file_by_descriptor_reads_like_its_path(capsys):
    # Like /dev/stdin redirected from a file.
    base = ["compare", "--schedule", SCHEDULE, "--trace"]
    status, from_file, err = run(capsys, *base, MONTH_TRACE)
    assert (status, err) == (0, "")
    descriptor = os.open(MONTH_TRACE, os.O_RDONLY)
    try:
        assert run(capsys, *base, f"/dev/fd/{descriptor}") == (0, from_file, "")
    finally:
        os.close(descriptor)


BAD_BYTE_ROWS = {
    "consumer id": (b"\xff,2025-01-01T00:00:00Z,1\n", 38),
    "energy": (b"a,2025-01-01T00:00:00Z,1\xff\n", 62),
}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("field", sorted(BAD_BYTE_ROWS))
def test_a_bad_byte_in_a_pipe_is_reported_at_its_line(capsys, tmp_path, field):
    # A regular file, by its path or by a descriptor (like /dev/stdin
    # redirected from a file), is read again to find the byte's offset; a
    # pipe cannot be, so the byte is reported at its line.
    row, byte = BAD_BYTE_ROWS[field]
    data = b"consumer_id,interval_start,energy_kwh\n" + row
    trace = tmp_path / "bad.csv"
    trace.write_bytes(data)
    base = ["compare", "--schedule", SCHEDULE, "--trace"]
    offset = f"not UTF-8 text (invalid start byte at byte {byte})"
    assert run(capsys, *base, str(trace)) == (1, "", f"error: {trace}: {offset}\n")
    descriptor = os.open(trace, os.O_RDONLY)
    try:
        path = f"/dev/fd/{descriptor}"
        assert run(capsys, *base, path) == (1, "", f"error: {path}: {offset}\n")
    finally:
        os.close(descriptor)
    read_end, path = _pipe_path(data)
    try:
        assert run(capsys, *base, path) == (1, "", f"error: {path}:2: not UTF-8 text\n")
    finally:
        os.close(read_end)


def test_a_bad_byte_in_a_pipe_held_open_is_reported_at_once():
    # The writer keeps the pipe open, as an interactive producer does, so
    # reading the pipe again to find the byte would wait for it forever.
    child = subprocess.Popen(
        [sys.executable, "-m", "progtariff", "compare", "--schedule", SCHEDULE,
         "--trace", "/dev/stdin"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(Path(progtariff.__file__).parents[1])),
    )
    with child:
        try:
            row = BAD_BYTE_ROWS["energy"][0]
            child.stdin.write(b"consumer_id,interval_start,energy_kwh\n" + row)
            child.stdin.flush()
            try:
                status = child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                pytest.fail("the CLI waited for a pipe whose writer stays open")
        finally:
            child.stdin.close()
        output = (status, child.stdout.read(), child.stderr.read())
    assert output == (1, b"", b"error: /dev/stdin:2: not UTF-8 text\n")


def test_default_period_start_opens_the_trace_once(capsys, monkeypatch):
    opened = []
    path_open = Path.open

    def counted_open(self, *args, **kwargs):
        opened.append(str(self))
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counted_open)
    status, out, err = run(capsys, "compare", "--schedule", SCHEDULE, "--trace", MONTH_TRACE)
    assert (status, err) == (0, "")
    assert opened.count(MONTH_TRACE) == 1


@pytest.mark.parametrize("start", [[], ["--period-start", "2025-01-01T00:00:00Z"]])
def test_a_directory_as_trace_keeps_its_reason(capsys, tmp_path, start):
    status, out, err = run(
        capsys, "compare", "--schedule", SCHEDULE, "--trace", str(tmp_path), *start
    )
    assert (status, out) == (1, "")
    assert err == f"error: {tmp_path}: {os.strerror(errno.EISDIR)}\n"


def test_missing_trace_keeps_its_reason_without_period_start(capsys, tmp_path):
    missing = tmp_path / "missing.csv"
    status, out, err = run(capsys, "compare", "--schedule", SCHEDULE, "--trace", str(missing))
    assert (status, out) == (1, "")
    assert err == f"error: {missing}: No such file or directory\n"


def test_default_period_start_holds_no_list_of_readings(capsys, tmp_path):
    # 2 consumers x 120 six-hour slots x 100 point readings per cell: 24,000
    # rows, 0.7 MB. Without --period-start the trace is streamed into the
    # partition as with it, so the peak stays near the flag's (about 0.4
    # MiB); holding every reading in a list takes about 3 MiB.
    origin = datetime(2025, 1, 1, tzinfo=timezone.utc)
    rows = ["consumer_id,interval_start,energy_kwh"]
    for slot in range(120):
        for reading in range(100):
            stamp = origin + timedelta(hours=6 * slot, seconds=216 * reading)
            text = stamp.strftime("%Y-%m-%dT%H:%M:%SZ")
            rows += [f"c1,{text},0.{reading % 10}", f"c2,{text},1.{reading % 7}"]
    trace = tmp_path / "dense.csv"
    trace.write_text("\n".join(rows) + "\n")
    del rows
    argv = ["compare", "--schedule", SCHEDULE, "--trace", str(trace), "--json"]
    tracemalloc.start()
    try:
        status = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (status, err) == (0, "")
    assert len(json.loads(out)["consumers"]) == 2
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


FALLING = '[{"upper_kwh": 100, "rate": 10}, {"upper_kwh": null, "rate": 5}]'


@pytest.mark.parametrize(
    "text, error",
    [
        (
            f'{{"tiers": {FALLING}, "allow_rate_decrease": "false"}}',
            "allow_rate_decrease must be true or false",
        ),
        (
            '{"tiers": [{"upper_kwh": 100, "rate": 1}, {"upper_kwh": 0, "rate": 2}, '
            '{"upper_kwh": null, "rate": 3}]}',
            "tier 2: tier upper bound must be > 0, got 0",
        ),
        (
            '{"tiers": [{"upper_kwh": 100, "rate": 1}, {"upper_kwh": 200, "rate": -1}, '
            '{"upper_kwh": null, "rate": 3}]}',
            "tier 2: tier rate must be >= 0, got -1",
        ),
    ],
)
def test_validate_refuses_a_string_flag_and_names_a_bad_tier(capsys, tmp_path, text, error):
    schedule = tmp_path / "schedule.json"
    schedule.write_text(text)
    assert run(capsys, "validate", "--schedule", str(schedule)) == (1, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "text, error",
    [
        ("[" * 100_000, "arrays or objects nested too deeply"),
        (
            '{"base_period_days": ' + "1" * 5000 + ', "tiers": []}',
            f"an integer has more than {sys.get_int_max_str_digits()} digits",
        ),
    ],
    ids=["nested", "long-integer"],
)
def test_validate_refuses_a_schedule_python_cannot_parse(tmp_path, text, error):
    # A child process, so that a traceback would show on its stderr.
    schedule = tmp_path / "schedule.json"
    schedule.write_text(text)
    done = subprocess.run(
        [sys.executable, "-m", "progtariff", "validate", "--schedule", str(schedule)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(progtariff.__file__).parents[1])),
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: {schedule}: {error}\n"


def test_a_stamp_cut_short_after_the_minutes_is_not_rfc_3339(capsys, tmp_path):
    trace = tmp_path / "short.csv"
    trace.write_text("consumer_id,interval_start,energy_kwh\na,2025-01-01T00:00:,1\n")
    base = ["compare", "--schedule", SCHEDULE, "--trace"]
    assert run(capsys, *base, str(trace)) == (
        1, "", f"error: {trace}:2: not an RFC 3339 timestamp: '2025-01-01T00:00:'\n"
    )
    assert run(capsys, *base, SLOT_TRACE, "--period-start", "2025-01-01T00:00:") == (
        1, "", "error: not an RFC 3339 timestamp: '2025-01-01T00:00:'\n"
    )


def test_a_refused_daily_trace_holds_no_entry_per_day(capsys, tmp_path):
    # 40,000 daily point readings, 1 MB, from 2000-01-01. Without
    # --period-start the reading on day 31 lies past the period, so the
    # trace is refused. The partition keeps at most 31 of the readings
    # for that check (peak about 0.1 MiB); keeping the first reading of
    # every distinct day until the end takes about 6.5 MiB.
    origin = datetime(2000, 1, 1)
    trace = tmp_path / "daily.csv"
    with trace.open("w") as handle:
        handle.write("consumer_id,interval_start,energy_kwh\n")
        for day in range(40_000):
            handle.write(f"a,{(origin + timedelta(days=day)):%Y-%m-%d}T00:00:00Z,1\n")
    argv = ["compare", "--schedule", SCHEDULE, "--trace", str(trace)]
    tracemalloc.start()
    try:
        status = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (status, out) == (1, "")
    assert err == (
        "error: reading for 'a' at 2000-01-31T00:00:00+00:00 lies outside the billing period\n"
    )
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_a_period_start_keeps_its_microseconds(capsys, tmp_path):
    trace = tmp_path / "one.csv"
    trace.write_text("consumer_id,interval_start,energy_kwh\na,2025-01-01T06:00:00Z,1\n")
    status, out, err = run(
        capsys, "compare", "--schedule", SCHEDULE, "--trace", str(trace), "--json",
        "--period-start", "2025-01-01T00:00:00.5Z",
    )
    assert (status, err) == (0, "")
    assert json.loads(out)["grid"]["period_start"] == "2025-01-01T00:00:00.500000Z"
