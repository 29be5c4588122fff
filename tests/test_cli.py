import json
import random
from datetime import datetime, timedelta, timezone

import pytest

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
            f"scale factor must be > 0, got -{huge}",
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
