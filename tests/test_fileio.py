import dataclasses
import io
import itertools
import json
import random
import re
import sys
import tracemalloc
from contextlib import closing
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progtariff import (
    BillingError,
    MeterReading,
    ScheduleError,
    TraceError,
    emit_schedule,
    exact_str,
    iter_trace_csv,
    parse_rfc3339,
    parse_schedule_file,
    parse_trace_csv,
    scale_schedule,
    schedule_to_dict,
    slot_factor,
    slot_partition,
)
from progtariff import cli
from progtariff.amounts import MONEY_PLACES, exact, fixed_text
from progtariff.fileio import (
    JSON_CHUNK_CHARS,
    TRACE_HEADER,
    comparison_to_dict,
    report_to_dict,
    to_json,
    write_json,
)
from progtariff.simulate import SlotGrid, SlotUsageMatrix, compare_schemes, run_scheme

from conftest import FIXTURES
from oracles import (
    desk_exact_str,
    desk_format_fixed,
    desk_parse_trace_csv,
    desk_partition,
    desk_read_trace,
    usage_rows,
)


# ----------------------------------------------------------------------
# schedule files
# ----------------------------------------------------------------------


def test_parse_bundled_residential_schedule():
    schedule = parse_schedule_file(FIXTURES / "kepco_residential.json")
    assert [tier.upper_bound for tier in schedule.tiers] == [
        100,
        200,
        300,
        400,
        500,
        None,
    ]
    assert schedule.tiers[0].rate == Fraction(607, 10)
    assert schedule.tiers[5].rate == Fraction(1419, 2)  # 709.5 exactly
    assert schedule.currency == "KRW"
    assert schedule.base_hours == 720


def test_rate_string_parses_exactly_and_reemits(tmp_path):
    schedule = parse_schedule_file(FIXTURES / "kepco_residential.json")
    out = tmp_path / "again.json"
    emit_schedule(schedule, out)
    again = parse_schedule_file(out)
    assert again == schedule
    assert json.loads(out.read_text())["tiers"][0]["rate"] == "60.7"


def test_scaled_schedule_roundtrips_through_exact_fields(tmp_path):
    schedule = scale_schedule(
        parse_schedule_file(FIXTURES / "kepco_residential.json"), slot_factor(6, 30)
    )
    out = tmp_path / "slot.json"
    emit_schedule(schedule, out)
    raw = json.loads(out.read_text())
    assert raw["tiers"][0]["upper_kwh"] == "0.833333"
    assert raw["tiers"][0]["upper_kwh_exact"] == "5/6"
    again = parse_schedule_file(out)
    assert again == schedule
    assert again.tiers[0].upper_bound == Fraction(5, 6)


def test_random_schedules_roundtrip(tmp_path, rng):
    from conftest import random_progressive_schedule

    for index in range(25):
        schedule = random_progressive_schedule(rng)
        out = tmp_path / f"s{index}.json"
        emit_schedule(schedule, out)
        assert parse_schedule_file(out) == schedule


def test_parse_rejects_middle_null_tier(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "tiers": [
                    {"upper_kwh": None, "rate": 1},
                    {"upper_kwh": None, "rate": 2},
                ]
            }
        )
    )
    with pytest.raises(ScheduleError, match="only the last tier"):
        parse_schedule_file(bad)


def test_parse_reports_json_position(tmp_path):
    bad = tmp_path / "trunc.json"
    bad.write_text('{"currency": "KRW",\n  "tiers": [')
    with pytest.raises(ScheduleError, match=r"trunc\.json:2:"):
        parse_schedule_file(bad)


def test_parse_missing_file():
    with pytest.raises(ScheduleError, match="No such file"):
        parse_schedule_file(FIXTURES / "nope.json")


def test_json_float_literals_stay_exact(tmp_path):
    # 0.8333 as a bare JSON number must parse as 8333/10000, not a float.
    f = tmp_path / "dec.json"
    f.write_text(
        json.dumps(
            {
                "tiers": [
                    {"upper_kwh": 0.8333, "rate": "1"},
                    {"upper_kwh": None, "rate": "2"},
                ]
            }
        )
    )
    schedule = parse_schedule_file(f)
    assert schedule.tiers[0].upper_bound == Fraction(8333, 10000)


def test_schedule_dict_marks_rate_decrease(tmp_path):
    raw = {
        "allow_rate_decrease": True,
        "tiers": [{"upper_kwh": 10, "rate": 5}, {"upper_kwh": None, "rate": 1}],
    }
    f = tmp_path / "dec.json"
    f.write_text(json.dumps(raw))
    schedule = parse_schedule_file(f)
    assert not schedule.is_progressive
    assert schedule_to_dict(schedule)["allow_rate_decrease"] is True


# ----------------------------------------------------------------------
# trace CSV
# ----------------------------------------------------------------------


def test_parse_trace_empty_body(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("consumer_id,interval_start,energy_kwh\n")
    assert parse_trace_csv(f) == []


def test_parse_bundled_slot_traces():
    decimal = parse_trace_csv(FIXTURES / "three_consumer_slot.csv")
    exact = parse_trace_csv(FIXTURES / "three_consumer_slot_exact.csv")
    assert [r.consumer for r in exact] == ["c1", "c2", "c3"]
    assert [r.energy for r in exact] == [
        Fraction(5, 2),
        Fraction(5, 3),
        Fraction(5, 6),
    ]
    # The decimal variant truncates the repeating values but stays exact
    # as written: 1.666667 is exactly 1666667/1000000.
    assert [r.energy for r in decimal] == [
        Fraction(5, 2),
        Fraction(1666667, 1000000),
        Fraction(833333, 1000000),
    ]
    assert all(r.start == datetime(2025, 1, 1, tzinfo=timezone.utc) for r in exact)


def test_parse_trace_rejects_negative_energy(tmp_path):
    f = tmp_path / "neg.csv"
    f.write_text(
        "consumer_id,interval_start,energy_kwh\n"
        "a,2025-01-01T00:00:00Z,1\n"
        "a,2025-01-01T06:00:00Z,-1\n"
    )
    with pytest.raises(TraceError, match=r"neg\.csv:3"):
        parse_trace_csv(f)


def test_parse_trace_rejects_bad_header(tmp_path):
    f = tmp_path / "head.csv"
    f.write_text("consumer,when,kwh\na,2025-01-01T00:00:00Z,1\n")
    with pytest.raises(TraceError, match="bad header"):
        parse_trace_csv(f)


def test_parse_trace_rejects_an_empty_file(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_bytes(b"")
    with pytest.raises(TraceError, match=f"^{re.escape(str(f))}: missing header$"):
        parse_trace_csv(f)


def test_parse_trace_rejects_bad_timestamp(tmp_path):
    f = tmp_path / "ts.csv"
    f.write_text("consumer_id,interval_start,energy_kwh\na,yesterday,1\n")
    with pytest.raises(TraceError, match=r"ts\.csv:2.*RFC 3339"):
        parse_trace_csv(f)


def test_parse_trace_rejects_naive_timestamp(tmp_path):
    f = tmp_path / "naive.csv"
    f.write_text("consumer_id,interval_start,energy_kwh\na,2025-01-01T00:00:00,1\n")
    with pytest.raises(TraceError, match="offset"):
        parse_trace_csv(f)


def test_parse_trace_interval_end_column(tmp_path):
    f = tmp_path / "iv.csv"
    f.write_text(
        "consumer_id,interval_start,energy_kwh,interval_end\n"
        "a,2025-01-01T00:00:00Z,1.5,2025-01-01T03:00:00Z\n"
        "a,2025-01-01T03:00:00Z,0.5,\n"
    )
    readings = parse_trace_csv(f)
    assert readings[0].end == datetime(2025, 1, 1, 3, tzinfo=timezone.utc)
    assert readings[1].end is None


def test_parse_trace_offset_normalized_to_utc(tmp_path):
    f = tmp_path / "kst.csv"
    f.write_text(
        "consumer_id,interval_start,energy_kwh\na,2025-01-01T09:00:00+09:00,1\n"
    )
    (reading,) = parse_trace_csv(f)
    assert reading.start == datetime(2025, 1, 1, 0, 0, tzinfo=timezone.utc)


def test_parse_rfc3339_forms():
    utc = datetime(2025, 1, 1, tzinfo=timezone.utc)
    assert parse_rfc3339("2025-01-01T00:00:00Z") == utc
    assert parse_rfc3339("2025-01-01T00:00:00+00:00") == utc
    with pytest.raises(ValueError, match="offset"):
        parse_rfc3339("2025-01-01T00:00:00")


_NEW_YEAR = datetime(2025, 1, 1, tzinfo=timezone.utc)
_NOT_RFC = "not an RFC 3339 timestamp"


@pytest.mark.parametrize(
    "text, expected",
    [
        ("2025-01-01T00:00:00Z", _NEW_YEAR),
        ("2025-01-01t00:00:00z", _NEW_YEAR),
        ("2025-01-01 00:00:00Z", _NEW_YEAR),
        (" \t2025-01-01T00:00:00Z\n", _NEW_YEAR),
        ("2025-01-01T00:00:00+00:00", _NEW_YEAR),
        ("2025-01-01T00:00:00-00:00", _NEW_YEAR),
        ("2025-01-01T09:00:00+09:00", _NEW_YEAR),
        ("2024-12-31T19:00:00-05:00", _NEW_YEAR),
        ("2025-01-01T00:00:00.5Z", _NEW_YEAR.replace(microsecond=500000)),
        ("2025-01-01T00:00:00.123456Z", _NEW_YEAR.replace(microsecond=123456)),
        ("2025-01-02T05:59:59.750000Z", datetime(2025, 1, 2, 5, 59, 59, 750000, timezone.utc)),
        ("2025-01-01T05:45:00.25+05:45", _NEW_YEAR.replace(microsecond=250000)),
        # ISO 8601 forms that fromisoformat reads on some Python versions
        ("2025-W01-1T00:00:00Z", _NOT_RFC),
        ("20250101T000000Z", _NOT_RFC),
        ("2025-01-01T00:00:00,5Z", _NOT_RFC),
        ("2025-01-01T00:00:00+0000", _NOT_RFC),
        ("2025-01-01T00:00:00.1234567Z", _NOT_RFC),
        ("2025-01-01T00Z", _NOT_RFC),
        ("2025-01-01X00:00:00Z", _NOT_RFC),
        ("2025-01-01T00:00:00+00:00:30", _NOT_RFC),
        # other malformed or out-of-range stamps
        ("2025-01-01T00:00:00.Z", _NOT_RFC),
        ("2025-01-01T00:00:00 Z", _NOT_RFC),
        ("2025-01-01T00:00:00+09:00Z", _NOT_RFC),
        ("2025-01-01T24:00:00Z", _NOT_RFC),
        ("2025-02-29T00:00:00Z", _NOT_RFC),
        ("2025-01-01T00:00:00+24:00", _NOT_RFC),
        ("2025-01-01T00:00:00+05:60", _NOT_RFC),
        ("\uff12025-01-01T00:00:00Z", _NOT_RFC),
        ("0001-01-01T00:30:00+01:00", _NOT_RFC),
        ("9999-12-31T23:30:00-01:00", _NOT_RFC),
        ("yesterday", _NOT_RFC),
        ("", _NOT_RFC),
        ("2025-01-01T00:00:", _NOT_RFC),
        ("2025-01-01T00:00:Z", _NOT_RFC),
        ("2025-01-01T00:00:00", "has no UTC offset"),
        ("2025-01-01T00:00:00.5", "has no UTC offset"),
    ],
)
def test_parse_rfc3339_reads_one_grammar_on_every_python(text, expected):
    if isinstance(expected, datetime):
        stamp = parse_rfc3339(text)
        assert stamp == expected and stamp.tzinfo is timezone.utc
    else:
        with pytest.raises(ValueError, match=expected):
            parse_rfc3339(text)


_BASE = datetime(2025, 1, 1, tzinfo=timezone.utc)
_KST = timezone(timedelta(hours=9))
_FORMS = [
    lambda t: t.strftime("%Y-%m-%dT%H:%M:%SZ"),
    lambda t: t.strftime("%Y-%m-%dT%H:%M:%Sz"),
    lambda t: " " + t.astimezone(_KST).isoformat() + " ",
    lambda t: t.strftime("%Y-%m-%dT%H:%M:%S.250000Z"),
]
_BAD_STAMPS = ["yesterday", "2025-01-01T00:00:00", "2025-13-01T00:00:00Z", "", " "]
_GOOD_ENERGIES = ["1.5", "5/3", " 2 ", "0", "1e2", "0.001", "-0"]
_BAD_ENERGIES = ["-1", "abc", "", "1/0", "1e5000", "--2"]
_BLANK_ROWS = [[], [""], ["  "], ["", "", ""], [" ", "\t", ""], ["", "", "", "", ""]]


def _stamp(rng, minutes):
    return rng.choice(_FORMS)(_BASE + timedelta(minutes=minutes))


def _cell(text, rng):
    """One CSV field, sometimes quoted."""
    if "," in text or '"' in text or "\n" in text or rng.random() < 0.1:
        return '"' + text.replace('"', '""') + '"'
    return text


_IDS = ["c1", " c2 ", "c,3", 'c"4', "\u00e9"]


def _trace_rows(rng, has_end, clean, ids=_IDS):
    """Rows of field texts; a clean trace has only good or blank rows."""
    def pick(good, bad, rate=0.06):
        return rng.choice(bad) if not clean and rng.random() < rate else good

    rows = []
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.12:
            rows.append(list(rng.choice(_BLANK_ROWS)))
            continue
        minutes = rng.randint(0, 60 * 24 * 30)
        consumer = pick(rng.choice(ids), ["", "  "])
        start = pick(_stamp(rng, minutes), _BAD_STAMPS)
        energy = pick(rng.choice(_GOOD_ENERGIES), _BAD_ENERGIES)
        row = [consumer, start, energy]
        if has_end:
            if rng.random() < 0.3:
                end = rng.choice(["", "  "])
            else:
                end = _stamp(rng, minutes + rng.randint(1, 600))
            # An end equal to the start, or before it, in any offset form.
            wrong = [_stamp(rng, minutes), _stamp(rng, minutes - 60), *_BAD_STAMPS[:2]]
            row.append(pick(end, wrong, rate=0.15))
        if not clean and rng.random() < 0.05:
            row = row[:-1] if rng.random() < 0.5 else row + ["extra"]
        rows.append(row)
    return rows


def _trace_bytes(rng, has_end, rows):
    """The bytes of a trace CSV of *rows*, and the byte span of its header
    and of each row's fields, as ``(start, end, column)``."""
    header = TRACE_HEADER + ["interval_end"] if has_end else TRACE_HEADER
    newline = rng.choice(["\n", "\r\n"]).encode()
    data = ",".join(header).encode() + newline
    spans = [(0, len(data), "header")]
    for row in rows:
        for column, field in enumerate(row):
            cell = _cell(field, rng).encode("utf-8")
            spans.append((len(data), len(data) + len(cell), column))
            data += cell + (b"," if column < len(row) - 1 else b"")
        data += newline
    return data, spans


def _write_trace(path, rng, has_end, rows):
    path.write_bytes(_trace_bytes(rng, has_end, rows)[0])


def _outcome(parse, path):
    try:
        return "readings", parse(path)
    except BillingError as err:
        return "error", str(err)


def test_trace_parser_matches_checked_oracle(tmp_path, rng):
    checked_traces = 0
    for case in range(400):
        has_end = rng.random() < 0.5
        rows = _trace_rows(rng, has_end, clean=rng.random() < 0.4)
        path = tmp_path / f"trace{case}.csv"
        _write_trace(path, rng, has_end, rows)

        got = _outcome(parse_trace_csv, path)
        assert got == _outcome(desk_parse_trace_csv, path), path.read_text()
        assert _outcome(lambda p: list(iter_trace_csv(p)), path) == got
        kind, readings = got
        if kind == "readings":
            checked_traces += 1
            rebuilt = [MeterReading(r.consumer, r.start, r.energy, r.end) for r in readings]
            assert readings == rebuilt
            for reading in readings:
                assert type(reading.energy) is Fraction
                assert reading.start.tzinfo is timezone.utc
                assert reading.end is None or reading.end.tzinfo is timezone.utc
    # Both outcomes are exercised often.
    assert 100 < checked_traces < 300


# The traces span 30 days from _BASE, so this grid leaves some readings
# outside its period.
_PARTITION_GRID = SlotGrid(slot_hours=Fraction(6), period_days=29, period_start=_BASE)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_streamed_and_listed_traces_partition_alike(tmp_path_factory, rng):
    # The stream's fields and the listed MeterReadings go through one
    # partition loop; only the order of faults differs, as the stream
    # partitions each reading before it reads the next row.
    has_end = rng.random() < 0.5
    rows = _trace_rows(rng, has_end, clean=rng.random() < 0.4)
    path = tmp_path_factory.mktemp("partition") / "trace.csv"
    _write_trace(path, rng, has_end, rows)
    grid = _PARTITION_GRID

    def partition(read):
        return _outcome(lambda p: slot_partition(read(p), grid), path)

    streamed, listed = partition(iter_trace_csv), partition(parse_trace_csv)
    if streamed != listed:
        # A faulty row, and a reading outside the period on a row before
        # it: the stream reports the reading, and so does the partition of
        # the rows before the faulty one.
        assert "billing period" in streamed[1] and listed[1].startswith(f"{path}:")
        bad_row = int(listed[1][len(f"{path}:") :].split(":")[0])
        _write_trace(path, rng, has_end, rows[: bad_row - 2])
        assert partition(parse_trace_csv) == streamed
        return
    try:
        readings = desk_parse_trace_csv(path)
    except TraceError as err:
        assert listed == ("error", str(err))
        return
    try:
        expected = "readings", desk_partition(readings, grid)
    except ValueError as err:
        expected = "error", str(err)
    kind, found = listed
    if kind == "readings":
        found = (found.consumers, usage_rows(found), found.observed)
    assert (kind, found) == expected


def test_trace_stream_counts_its_readings_and_closes_early(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "consumer_id,interval_start,energy_kwh\n"
        "a,2025-01-01T00:00:00Z,1\n"
        "\n"
        "b,2025-01-01T06:00:00Z,2\n"
        "c,2025-01-01T12:00:00Z,oops\n"
    )
    stream = iter_trace_csv(path)
    assert len(stream) == 0
    readings = iter(stream)
    assert [next(readings).consumer, next(readings).consumer] == ["a", "b"]
    assert len(stream) == 2
    # Closed before the bad row, the stream never reads it.
    stream.close()
    assert next(readings, None) is None
    with pytest.raises(TraceError, match=":5: not a decimal or p/q number: 'oops'$"):
        list(iter_trace_csv(path))


_HEAD_ROW = f"{','.join(TRACE_HEADER)}\na,2025-01-01T00:00:00Z,1\n".encode()
_END_HEAD_ROW = f"{','.join(TRACE_HEADER)},interval_end\na,2025-01-01T00:00:00Z,1,\n".encode()


@pytest.mark.parametrize(
    "text, readings, error",
    [
        # A bad row, then a bad byte in the decoder's first block.
        (_HEAD_ROW + b"b,2025-01-01T00:00:00Z,oops\n\xff,x,1\n", 1,
         ":3: not a decimal or p/q number: 'oops'"),
        # A field past the csv module's limit, then a bad byte.
        (_HEAD_ROW + b"b,x," + b"1" * 200_000 + b"\n\xff\n", 1,
         ":3: field larger than field limit"),
        # A row whose quoted id spans lines 3-4, read again after the bad
        # byte, is reported at the line it ends on.
        (_HEAD_ROW + b'"b\nc",2025-01-01T00:00:00Z,oops\n\xff\n', 1,
         ":4: not a decimal or p/q number: 'oops'"),
        # The bad byte inside a quoted field: the row that holds it is not
        # complete, so it is not checked, and the byte is reported.
        (_HEAD_ROW + b'b,x,"1\n\xff"\n', 1, ": not UTF-8 text (invalid start byte at byte 70)"),
        # A bad byte right after the header, and a bad header before one.
        (_HEAD_ROW[:38] + b"\xff,x,1\n", 0, ": not UTF-8 text (invalid start byte at byte 38)"),
        (b"consumer,start\n\xff\n", 0, ":1: bad header ['consumer', 'start']"),
        # An id seen clean, then again with a bad byte: a new id, so checked.
        (_HEAD_ROW + b"a\xff,2025-01-01T00:00:00Z,1\n", 1,
         ": not UTF-8 text (invalid start byte at byte 64)"),
        # A bad byte in an interval end.
        (_END_HEAD_ROW + b"a,2025-01-01T00:00:00Z,1,2025-01-01T01:00:00\xffZ\n", 1,
         ": not UTF-8 text (invalid start byte at byte 121)"),
        # A row the csv module refuses is the bad byte's row when the byte
        # lies on one of its lines, before or after the field it refuses.
        (_HEAD_ROW + b'b,x,"\xff\n' + b"1" * 200_000 + b'"\n', 1,
         ": not UTF-8 text (invalid start byte at byte 68)"),
        (_HEAD_ROW + b"b,x," + b"1" * 200_000 + b"\xff\n", 1,
         ": not UTF-8 text (invalid start byte at byte 200067)"),
        (_HEAD_ROW + b'b,x,"1\n' + b"1" * 200_000 + b'"\n\xff\n', 1,
         ":4: field larger than field limit"),
    ],
    ids=[
        "bad-row", "long-field", "two-line-row", "quoted-byte", "first-row", "bad-header",
        "known-id", "interval-end", "refused-row", "refused-line", "refused-before",
    ],
)
def test_rows_before_a_bad_byte_are_read_before_it_is_reported(tmp_path, text, readings, error):
    path = tmp_path / "trace.csv"
    path.write_bytes(text)
    stream = iter_trace_csv(path)
    with closing(stream):
        assert [r.consumer for r in itertools.islice(stream, readings)] == ["a"] * readings
        with pytest.raises(TraceError) as raised:
            next(iter(stream))
    assert str(raised.value).startswith(f"{path}{error}")
    assert len(stream) == readings


def _read_until_fault(path):
    """The readings of a trace CSV up to its first fault, and the fault's
    text (None if there is none)."""
    readings = []
    try:
        for reading in iter_trace_csv(path):
            readings.append(reading)
    except TraceError as err:
        return readings, str(err)
    return readings, None


# Bytes that are not UTF-8: a byte no sequence starts with, a lone
# continuation byte, sequences cut short, an overlong form and an encoded
# surrogate.
_BAD_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98", b"\xc0\xaf", b"\xed\xa0\x80"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from(_BAD_BYTES),
    st.sampled_from(["anywhere", "header", 0, 2, 3]),
)
def test_a_bad_byte_anywhere_is_reported_after_the_rows_before_it(
    tmp_path_factory, rng, bad, where
):
    # Column 0 is the consumer id, which may be quoted and span lines; 2
    # is the energy and 3 the interval end.
    has_end = where == 3 or rng.random() < 0.5
    rows = _trace_rows(rng, has_end, clean=rng.random() < 0.5, ids=_IDS + ["d\n5", "e\r\n6"])
    data, spans = _trace_bytes(rng, has_end, rows)
    spans = [(start, end) for start, end, column in spans if column == where]
    start, end = rng.choice(spans) if spans else (0, len(data))
    offset = rng.randint(start, end)
    path = tmp_path_factory.mktemp("bad-byte") / "trace.csv"
    path.write_bytes(data[:offset] + bad + data[offset:])
    assert _read_until_fault(path) == desk_read_trace(path)


def test_bad_byte_offsets_agree_with_a_whole_file_decode_at_block_edges(tmp_path):
    # The offset is found by decoding 64 KiB blocks, and the line it lies
    # on by counting line ends. Sequences cut short at the edge of a block,
    # next to a CRLF that the edge splits, and at the end of the file all
    # give a whole-file decode's offset and reason.
    # Long energies, padded with blanks, keep the rows few.
    head = _HEAD_ROW.replace(b"\n", b"\r\n")
    row = b"a,2025-01-01T00:00:00Z," + b" " * 500 + b"1\r\n"
    path = tmp_path / "trace.csv"
    for edge in (65536, 2 * 65536):
        # A blank row of spaces puts a row's CR last in the block.
        pad = b" " * ((edge - 1 - len(head)) % len(row)) + b"\r\n"
        body = head + pad + row * (3 * 65536 // len(row))
        assert body[edge - 1 : edge + 1] == b"\r\n"
        for shift in range(-4, 4):
            for bad in (b"\xe2\x82", b"\xf0\x9f\x98", b"\xff"):
                data = body[: edge + shift] + bad + body[edge + shift :]
                for text in (data, body[: edge + shift] + bad):
                    path.write_bytes(text)
                    assert _read_until_fault(path) == desk_read_trace(path), (edge, shift, bad)


def test_a_bad_byte_is_found_without_holding_the_file(tmp_path):
    path = tmp_path / "big.csv"
    row = b"a,2025-01-01T00:00:00Z,1\n"
    path.write_bytes(_HEAD_ROW[:38] + b"\xff" + row + row * (8 * 2**20 // len(row)))
    tracemalloc.start()
    try:
        with pytest.raises(TraceError, match=r"invalid start byte at byte 38\)$"):
            list(iter_trace_csv(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _one_row_trace(tmp_path, row):
    path = tmp_path / "trace.csv"
    path.write_bytes(f"{','.join(TRACE_HEADER)}\n{row}\n".encode("utf-8"))
    return path


def test_streamed_trace_reads_every_line_ending_alike(tmp_path):
    # The trace is read in blocks; rows end at LF, CRLF or a lone CR
    # wherever the blocks split them, and not at U+2028.
    rows = [
        f"c{index % 7}\u2028x,2025-01-01T{index % 24:02d}:00:00Z,{index}.5"
        for index in range(2000)
    ]
    parsed = []
    for newline in ("\n", "\r\n", "\r"):
        path = tmp_path / "trace.csv"
        path.write_bytes(newline.join([",".join(TRACE_HEADER), *rows, ""]).encode("utf-8"))
        assert path.stat().st_size > 8 * 8192
        parsed.append(parse_trace_csv(path))
    assert parsed[0] == parsed[1] == parsed[2] == desk_parse_trace_csv(path)
    assert len(parsed[0]) == 2000


def test_trace_readings_share_one_str_per_consumer_id(tmp_path):
    path = tmp_path / "trace.csv"
    lines = [",".join(TRACE_HEADER)] + [f"c{i % 3},2025-01-01T00:00:00Z,1" for i in range(9)]
    path.write_text("\n".join(lines) + "\n")
    readings = parse_trace_csv(path)
    ids = {id(reading.consumer) for reading in readings}
    assert [reading.consumer for reading in readings] == [f"c{i % 3}" for i in range(9)]
    assert len(ids) == 3


def test_form_feed_inside_an_unquoted_field_does_not_end_the_row(tmp_path):
    path = _one_row_trace(tmp_path, "c\x0cd,2025-01-01T00:00:00Z,1")
    readings = parse_trace_csv(path)
    assert [r.consumer for r in readings] == ["c\x0cd"]
    assert desk_parse_trace_csv(path) == readings


def test_line_separator_inside_a_quoted_field_is_kept(tmp_path):
    path = _one_row_trace(tmp_path, '"a\u2028b",2025-01-01T00:00:00Z,1')
    readings = parse_trace_csv(path)
    assert [r.consumer for r in readings] == ["a\u2028b"]
    assert desk_parse_trace_csv(path) == readings


# ----------------------------------------------------------------------
# report JSON
# ----------------------------------------------------------------------


def test_report_json_is_exact_and_stable(kepco, slot_usages):
    grid = SlotGrid(
        Fraction(6), 30, datetime(2025, 1, 1, tzinfo=timezone.utc)
    )
    rows = {c: [u] + [0] * 119 for c, u in slot_usages}
    matrix = SlotUsageMatrix.from_rows(rows)
    report = run_scheme(matrix, kepco, grid, "slotted-individual")
    payload = report_to_dict(report)
    c1 = payload["consumers"][0]
    assert c1["total"]["billed"] == "312.08"
    assert c1["total"]["exact"] == "3745/12"
    assert payload["aggregate"]["billed"] == "518.16"
    assert payload["aggregate"]["exact"] == "3109/6"
    assert to_json(payload) == to_json(report_to_dict(report))


def test_exact_str_roundtrip():
    from progtariff import exact

    for value in [Fraction(5, 6), Fraction(607, 10), Fraction(0), Fraction(-7, 3)]:
        assert exact(exact_str(value)) == value
    assert exact_str(Fraction(5, 6)) == "5/6"
    assert exact_str(Fraction(607, 10)) == "60.7"
    assert exact_str(Fraction(30)) == "30"


@pytest.mark.parametrize(
    "value",
    [
        Fraction(10**4400),
        Fraction(-(10**4400), 8),
        Fraction(10**4400, 3),
        Fraction(1, 3 * 10**4400),
    ],
)
def test_values_too_large_to_display_say_so(value):
    from progtariff.amounts import format_fixed

    renderers = [exact_str]
    if abs(value) > 1:
        renderers += [lambda v: format_fixed(v, 0), lambda v: format_fixed(v, 4)]
    for render in renderers:
        with pytest.raises(ValueError, match=r"^amount too large to display: more than 4300 digits$"):
            render(value)


def _report_with_charges(kepco, numerators, denominators):
    """A slotted-individual report on 30 daily slots whose slot charges
    are replaced."""
    grid = SlotGrid(Fraction(24), 30, datetime(2025, 1, 1, tzinfo=timezone.utc))
    rows = {consumer: [1] * len(denominators) for consumer in numerators}
    base = run_scheme(SlotUsageMatrix.from_rows(rows), kepco, grid, "slotted-individual")
    columns = zip(*(numerators[consumer] for consumer in base.consumers))
    return dataclasses.replace(base, slot_columns=tuple(zip(denominators, columns)))


# Few distinct numerators, so that charges repeat across consumers and
# slots; denominators shared across slots, terminating or not. A report
# whose every column is over 100 holds minor units, which are rendered
# cell by cell; the pool then covers negative units, zero, a sub-unit
# charge (0.05) and trailing zeros (12.30 and 12.3, 12.00 and 12).
minor_units = st.sampled_from([0, 5, -5, 1230, -1230, 1200, -1200, -1234])
charge_pools = st.lists(
    st.integers(-(10**12), 10**12) | st.integers(0, 10**5) | minor_units, min_size=1, max_size=4
)
charge_denominators = st.sampled_from([60_000, 7, 100, 3 * 10**6, 1])
slot_denominators = st.lists(charge_denominators, min_size=30, max_size=30) | st.just([100] * 30)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_slot_charge_texts_match_per_cell_oracles(kepco, data):
    slots = 30
    pool = data.draw(charge_pools)
    dens = data.draw(slot_denominators)
    numerators = {
        f"c{index}": data.draw(st.lists(st.sampled_from(pool), min_size=slots, max_size=slots))
        for index in range(data.draw(st.integers(1, 5)))
    }
    payload = json.loads(to_json(report_to_dict(_report_with_charges(kepco, numerators, dens))))
    for entry in payload["consumers"]:
        values = [Fraction(n, d) for n, d in zip(numerators[entry["id"]], dens)]
        assert entry["slot_charges"] == [desk_format_fixed(v, 2) for v in values]
        assert entry["slot_charges_exact"] == [desk_exact_str(v) for v in values]


def test_minor_unit_slot_charges_match_the_desk_oracles(kepco):
    # The same units in a report of minor-unit columns only, rendered cell
    # by cell, and in one with a p/q column too, rendered through the memo.
    units = [-1234, -5, 0, 5, 1230, -1230, 1200, -1200, 10**20 + 1, -(10**20)]
    numerators = {f"c{index}": [u] * 30 for index, u in enumerate(units)}
    for dens in ([100] * 30, [100] * 29 + [7]):
        report = _report_with_charges(kepco, numerators, dens)
        payload = to_json(report_to_dict(report))
        entries = json.loads(payload)["consumers"]
        for entry in entries:
            value = Fraction(numerators[entry["id"]][0], 100)
            assert entry["slot_charges"][:29] == [desk_format_fixed(value, 2)] * 29
            assert entry["slot_charges_exact"][:29] == [desk_exact_str(value)] * 29
        assert '"-12.34"' in payload and '"-13.66"' not in payload
        # Rows read in another order than write_json's give the same texts.
        rows = report_to_dict(report)["consumers"][::-1]
        assert [list(row["slot_charges_exact"]) for row in rows][::-1] == [
            entry["slot_charges_exact"] for entry in entries
        ]


def test_slot_charge_past_display_limit_is_input_error(kepco):
    huge = 10 ** (sys.get_int_max_str_digits() + 5)
    numerators = {"a": [1] * 29 + [huge], "b": [huge] + [1] * 29}
    report = _report_with_charges(kepco, numerators, [60_000] * 30)
    with pytest.raises(ValueError, match=r"^amount too large to display: more than \d+ digits$"):
        report_to_dict(report)


@pytest.mark.parametrize("den", [7, 10**MONEY_PLACES])
def test_a_late_unprintable_slot_charge_writes_nothing(kepco, monkeypatch, capsys, den):
    # Over 7 the charges are p/q prices, rendered through the memo; over
    # 100 they are minor units, rendered cell by cell as they are written.
    # Over four chunks of text come before the last consumer's last
    # charge, and that charge has more digits than Python prints: the
    # payload refuses it before the first chunk is written.
    numerators = {
        f"c{index:03d}": [123_457 * index + slot for slot in range(30)] for index in range(300)
    }
    mark = 987_654_321
    numerators["c299"][-1] = mark
    text = to_json(report_to_dict(_report_with_charges(kepco, numerators, [den] * 30)))
    assert text.index(json.dumps(fixed_text(mark, den, MONEY_PLACES))) > 4 * JSON_CHUNK_CHARS
    numerators["c299"][-1] = 10 ** (sys.get_int_max_str_digits() + 5)
    report = _report_with_charges(kepco, numerators, [den] * 30)
    error = f"amount too large to display: more than {sys.get_int_max_str_digits()} digits"
    stream = io.StringIO()
    with pytest.raises(ValueError, match=f"^{error}$"):
        write_json(report_to_dict(report), stream)
    assert stream.getvalue() == ""
    monkeypatch.setattr(cli, "run_scheme", lambda *args: report)
    argv = ["simulate", "--schedule", str(FIXTURES / "kepco_residential.json")]
    argv += ["--trace", str(FIXTURES / "three_consumer_slot_exact.csv"), "--json"]
    assert cli.run_cli(argv) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_rendering_a_comparison_holds_no_list_of_slot_charges(kepco):
    # A seeded comparison of 200 consumers x 120 six-hour slots, drawn as
    # the benchmark's traces are: heavy-tailed usages of three decimals, a
    # tenth of the cells empty. Rendering it to a stream adds about
    # 1.4 MiB to the comparison it reads, most of it the memo of distinct
    # slot prices; formatting every slot charge's texts before the first
    # write added about 3.2 MiB.
    rng = random.Random(3)
    rows = {}
    for index in range(200):
        scale = rng.lognormvariate(0.0, 0.6)
        rows[f"c{index:04d}"] = [
            0 if rng.random() < 0.1 else exact(f"{scale * rng.lognormvariate(-0.2, 0.9):.3f}")
            for _ in range(120)
        ]
    grid = SlotGrid(Fraction(6), 30, datetime(2025, 1, 1, tzinfo=timezone.utc))
    comparison = compare_schemes(SlotUsageMatrix.from_rows(rows), kepco, grid)
    del rows
    payload = comparison_to_dict(comparison)
    text = to_json(payload)
    assert to_json(payload) == text  # its rows are rendered anew on each pass
    assert len(json.loads(text)["schemes"]["slotted-group"]["consumers"]) == 200
    del payload, text

    class Null:
        def write(self, text):
            pass

    tracemalloc.start()
    try:
        write_json(comparison_to_dict(comparison), Null())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"
