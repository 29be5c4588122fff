"""File formats and report rendering.

Schedule files are JSON::

    {"currency": "KRW",
     "base_period_days": 30,
     "tiers": [{"upper_kwh": 100, "rate": "60.7"}, ...,
               {"upper_kwh": null, "rate": "709.5"}]}

Rates and bounds are read as exact rationals; "60.7" becomes 607/10, not
a float. On emission, values whose decimal form does not terminate are
written to SCHEDULE_PLACES decimals together with a lossless
``*_exact`` p/q field, which the parser prefers when present. Parsing an
emitted file therefore reproduces the schedule exactly.

Consumption traces are CSV with header ``consumer_id,interval_start,
energy_kwh`` (an optional trailing ``interval_end`` column turns rows
into interval readings that may span slot boundaries). Timestamps are
RFC 3339 date-times with an explicit UTC offset (see parse_rfc3339);
energies are decimal or p/q strings, parsed exactly.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction
from itertools import repeat, starmap
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TextIO, Union

from .amounts import (
    MONEY_PLACES,
    decimal_form,
    energy_amount,
    exact_str,
    exact_text,
    fixed_text,
    format_energy,
    format_fixed,
    format_money,
    too_large_error,
    units_text,
)
from .errors import BillingError, ScheduleError, TraceError
from .grouping import AllocationResult
from .simulate import (
    BillingReport,
    MeterReading,
    SchemeComparison,
    ShiftReport,
    SlotGrid,
)
from .tariff import (
    HOURS_PER_DAY,
    TariffSchedule,
    progressive_price,
    tier_breakdown,
    validate_schedule,
)

PathLike = Union[str, Path]

TRACE_HEADER = ["consumer_id", "interval_start", "energy_kwh"]

# Decimals of the display form of a schedule number that does not
# terminate; its lossless p/q form is written beside it.
SCHEDULE_PLACES = 6


def _iso_tail(tail: str) -> Optional[str]:
    """The fraction and offset that follow an RFC 3339 time's seconds,
    such as ``.5Z`` or ``+09:00``, as ``fromisoformat`` reads them on
    every Python version: six fraction digits and ``+HH:MM``. "" if there
    is no offset, None if *tail* is not a fraction and offset."""
    fraction = ""
    if tail[:1] == ".":
        end = len(tail) - len(tail[1:].lstrip("0123456789"))
        if not 2 <= end <= 7:
            return None
        fraction, tail = tail[:end].ljust(7, "0"), tail[end:]
    if tail in ("Z", "z"):
        return fraction + "+00:00"
    if not tail:
        return ""
    if len(tail) == 6 and tail[0] in "+-" and tail[3] == ":" and tail[4:] < "60":
        return fraction + tail
    return None


def parse_rfc3339(text: str) -> datetime:
    """Parse an RFC 3339 date-time, as UTC.

    The grammar is the same on every Python version: ``YYYY-MM-DD``, then
    ``T``, ``t`` or a space, then ``HH:MM:SS``, an optional ``.`` and 1
    to 6 digits, then ``Z``, ``z`` or ``+HH:MM`` / ``-HH:MM``, with blanks
    around it stripped. The separators are checked here by position, and
    ``datetime.fromisoformat`` reads the digit fields, and checks their
    ranges, from the one form that every version reads alike.
    """
    raw = text.strip()
    tail = raw[19:]
    tail = "+00:00" if tail in ("Z", "z") else _iso_tail(tail)
    # raw[4:17:3] is the five separators, at 4, 7, 10, 13 and 16. Hours
    # stop at 23, so 24:00 is refused here, not left to fromisoformat.
    if (
        tail is None
        or raw[4:17:3] not in ("--T::", "--t::", "-- ::")
        or raw[11] == "2" and raw[12] == "4"
        or not raw.isascii()
    ):
        raise ValueError(f"not an RFC 3339 timestamp: {text!r}")
    try:
        # A stamp with no offset is read as UTC here, so that a bad field
        # is reported before the missing offset.
        stamp = datetime.fromisoformat(raw[:19] + (tail or "+00:00"))
        if stamp.tzinfo is not timezone.utc:
            stamp = stamp.astimezone(timezone.utc)
    except (ValueError, OverflowError) as err:
        # OverflowError: the UTC time lies outside the datetime range.
        raise ValueError(f"not an RFC 3339 timestamp: {text!r}") from err
    if not tail:
        # fromisoformat reads a stamp cut short after the minutes' colon,
        # "...T00:00:", as a time with an offset.
        if len(raw) < 19:
            raise ValueError(f"not an RFC 3339 timestamp: {text!r}")
        raise ValueError(f"timestamp {text!r} has no UTC offset")
    return stamp


def format_rfc3339(stamp: datetime) -> str:
    utc = stamp.astimezone(timezone.utc)
    if utc.microsecond:
        return utc.strftime("%Y-%m-%dT%H:%M:%S.%fZ")
    return utc.strftime("%Y-%m-%dT%H:%M:%SZ")


# ----------------------------------------------------------------------
# Schedule files
# ----------------------------------------------------------------------


def _read_text(path: Path, error: type[BillingError]) -> str:
    """The UTF-8 text of *path*; a file that cannot be read or decoded
    raises *error* naming the path."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as err:
        raise error(f"{path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise error(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from err


def parse_schedule_file(path: PathLike) -> TariffSchedule:
    """Load and validate a schedule JSON file.

    Parse errors carry the file position; validation errors from
    validate_schedule pass through unchanged.
    """
    path = Path(path)
    text = _read_text(path, ScheduleError)
    try:
        # Floats never enter: JSON number literals are kept as strings and
        # re-parsed exactly.
        raw = json.loads(text, parse_float=str)
    except json.JSONDecodeError as err:
        raise ScheduleError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    except ValueError as err:
        # The one other ValueError: an integer literal longer than int() reads.
        raise ScheduleError(
            f"{path}: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from err
    except RecursionError as err:
        raise ScheduleError(f"{path}: arrays or objects nested too deeply") from err
    return validate_schedule(raw)


def _number_fields(name: str, value: Fraction) -> dict:
    """A schedule number: JSON int, decimal string, or display + p/q pair.

    A number too long to print raises the display-limit error here, while
    the payload is built, not once its JSON is partly written.
    """
    lossless = exact_str(value)
    if value.denominator == 1:
        return {name: int(value)}
    fields = {name: lossless}
    if "/" in lossless:
        fields[name] = format_fixed(value, SCHEDULE_PLACES)
        fields[f"{name}_exact"] = lossless
    return fields


def schedule_to_dict(schedule: TariffSchedule) -> dict:
    """JSON-ready description of a schedule, losslessly round-trippable."""
    tiers = []
    for tier in schedule.tiers:
        entry: dict = {}
        if tier.upper_bound is None:
            entry["upper_kwh"] = None
        else:
            entry.update(_number_fields("upper_kwh", tier.upper_bound))
        entry.update(_number_fields("rate", tier.rate))
        tiers.append(entry)
    out = {
        "currency": schedule.currency,
        **_number_fields("base_period_days", schedule.base_hours / HOURS_PER_DAY),
        "tiers": tiers,
    }
    if schedule.allow_rate_decrease:
        out["allow_rate_decrease"] = True
    return out


def emit_schedule(schedule: TariffSchedule, path: PathLike):
    Path(path).write_text(to_json(schedule_to_dict(schedule)), encoding="utf-8")


# ----------------------------------------------------------------------
# Trace CSV
# ----------------------------------------------------------------------


# The checked fields of one reading: consumer id, start, energy and end.
ReadingFields = tuple[str, datetime, Fraction, Optional[datetime]]


class _TraceReadings:
    """The checked readings of one trace CSV, read once, as a stream.

    ``fields`` yields each reading's checked ``(consumer, start, energy,
    end)`` in file order, and ``slot_partition`` reads it directly.
    Iterating yields the same readings, from the same pass over the file,
    as MeterReadings built by their constructor. ``len()`` is the number
    of readings read so far, so a caller handed the stream can still
    count them, and ``close()`` closes the file before the end.
    """

    def __init__(self, path: Path):
        self.count = 0
        self.fields = _read_trace(path, self)

    def __iter__(self) -> Iterator[MeterReading]:
        return starmap(MeterReading, self.fields)

    def __len__(self) -> int:
        return self.count

    def close(self):
        self.fields.close()


def _header_width(row: list[str]) -> int:
    """The number of fields of each row under the header *row*."""
    header = [cell.strip() for cell in row]
    if header not in (TRACE_HEADER, TRACE_HEADER + ["interval_end"]):
        raise ValueError(
            f"bad header {header!r}, expected {','.join(TRACE_HEADER)} with optional interval_end"
        )
    return len(header)


# A byte that is not UTF-8, as text read with errors="surrogateescape" holds it.
_SURROGATE = re.compile("[\udc80-\udcff]")


def _line_ends(last: bytes, block: bytes) -> int:
    """The CRs, LFs and CRLFs that end lines in *block*, after byte *last*."""
    return block.count(b"\n") + block.count(b"\r") - (last + block).count(b"\r\n")


def _trace_error(path: Path, line: int, message: str, row: Optional[list] = None) -> TraceError:
    """The error for a fault of the row of *path* that ends on *line*, or
    for the file's first byte that is not UTF-8, if that lies in the row.

    The rows in front are clean, so the byte lies in the row if it lies on
    or before *line*. The file is decoded again up to it, 64 KiB at a
    time, only for a row that holds a surrogate, or that the csv module
    refused (*row* None). A trace that is not a regular file, such as a
    pipe, cannot be read again, so such a row is reported at its line.
    """
    if row is None or _SURROGATE.search("".join(row)):
        if not path.is_file():
            return TraceError(f"{path}:{line}: {message if row is None else 'not UTF-8 text'}")
        decoder = codecs.getincrementaldecoder("utf-8")()
        offset = ends = 0  # bytes decoded, and the line ends among them
        last = b""
        with path.open("rb") as handle:
            while ends < line:
                block = handle.read(1 << 16)
                held = len(decoder.getstate()[0])  # bytes of a character cut short
                try:
                    decoder.decode(block, not block)
                except UnicodeDecodeError as err:
                    if ends + _line_ends(last, block[: max(err.start - held, 0)]) < line:
                        byte = offset - held + err.start
                        return TraceError(f"{path}: not UTF-8 text ({err.reason} at byte {byte})")
                    break
                if not block:
                    break
                ends += _line_ends(last, block)
                offset, last = offset + len(block), block[-1:]
    return TraceError(f"{path}:{line}: {message}")


def _read_trace(path: Path, stream: _TraceReadings) -> Iterator[ReadingFields]:
    """The body of ``iter_trace_csv``: the checked fields of each reading,
    each counted in *stream*.

    The file is opened once, as UTF-8 with ``newline=""``, so rows end
    only at CR or LF, not at form feeds, U+2028 or the other Unicode line
    boundaries. A byte that is not UTF-8 reaches the csv reader as a lone
    surrogate, which fails its row's checks, so the row's fault is then
    reported as the byte (see _trace_error). A row the csv module refuses,
    such as one with a field past ``csv.field_size_limit()``, and a file
    that cannot be read raise TraceError too. Every error in a row names
    the line the row ends on, the csv reader's ``line_num``.
    """
    # Each distinct energy string is parsed and checked once per file,
    # and each distinct consumer id is kept once.
    energies: dict[str, Fraction] = {}
    consumers: dict[str, str] = {}
    width = has_end = None  # set by the header, row 1
    try:
        with path.open(encoding="utf-8", errors="surrogateescape", newline="") as handle:
            reader = csv.reader(handle)
            try:
                for row in reader:
                    # A row of the right width with a consumer id is neither
                    # the header, blank nor short; anything else takes the
                    # slower checks, in the same order.
                    if len(row) != width or not (consumer := row[0].strip()):
                        if width is None:
                            width = _header_width(row)
                            has_end = width == 4
                            continue
                        if not "".join(row).strip():
                            continue
                        if len(row) != width:
                            raise ValueError(f"expected {width} fields, got {len(row)}")
                        raise ValueError("empty consumer_id")
                    known = consumers.get(consumer)
                    if known is None:
                        consumer.encode("utf-8")  # refuses a lone surrogate
                        known = consumers[consumer] = consumer
                    start = parse_rfc3339(row[1])
                    energy = energies.get(row[2])
                    if energy is None:
                        energy = energies[row[2]] = energy_amount(row[2].strip())
                    end = parse_rfc3339(row[3]) if has_end and row[3].strip() else None
                    if end is not None and end <= start:
                        raise ValueError("reading end must be after its start")
                    stream.count += 1
                    yield known, start, energy, end
            except ValueError as err:
                raise _trace_error(path, reader.line_num, str(err), row) from err
            except csv.Error as err:
                raise _trace_error(path, reader.line_num, str(err)) from err
    except OSError as err:
        raise TraceError(f"{path}: {err.strerror or err}") from err
    if width is None:
        raise TraceError(f"{path}: missing header")


def iter_trace_csv(path: PathLike) -> _TraceReadings:
    """The meter readings of a trace CSV, one at a time, in file order.

    The file is read as a stream, one row at a time, and every row is
    checked once, as it is read, in this order: blank rows are skipped,
    then the field count, the consumer id, the start stamp, the energy,
    the end stamp and ``end > start`` are checked. So the first faulty
    row in file order is the one reported; a byte that is not UTF-8 is
    the fault of the row it lies in, in place of any other. A caller that
    stops at a fault of its own leaves the later rows unread. Readings
    share one ``str`` per distinct consumer id.

    The result can be iterated once, for MeterReadings, or its
    ``fields`` read once, for the same readings as plain ``(consumer,
    start, energy, end)`` tuples; both partitions in ``simulate`` read the
    latter, so the CLI opens a trace, file or pipe, once. Its ``len()``
    counts the readings read so far. Close it, for example with
    ``contextlib.closing``, to close the file before the last row.
    """
    return _TraceReadings(Path(path))


def parse_trace_csv(path: PathLike) -> list[MeterReading]:
    """Every meter reading of a trace CSV, in file order: the list of
    ``iter_trace_csv(path)``, checked in the same order."""
    return list(iter_trace_csv(path))


# ----------------------------------------------------------------------
# JSON report shapes
# ----------------------------------------------------------------------


def _money(value: Fraction) -> dict:
    return {"display": format_money(value), "exact": exact_str(value)}


def _energy(value: Fraction) -> dict:
    return {"display": format_energy(value), "exact": exact_str(value)}


def _par_dict(par: Optional[Fraction]) -> Optional[dict]:
    if par is None:
        return None
    return {"display": format_fixed(par, 4), "exact": exact_str(par)}


def _grid_dict(grid: SlotGrid) -> dict:
    return {
        "slot_hours": exact_str(grid.slot_hours),
        "period_days": grid.period_days,
        "period_start": format_rfc3339(grid.period_start),
        "slots": grid.slot_count,
    }


def demand_dict(report: BillingReport) -> dict:
    demand = report.demand
    return {
        "slot_loads_kwh": [format_energy(load) for load in demand.slot_loads],
        "peak_kwh": _energy(demand.peak),
        "mean_kwh": _energy(demand.mean),
        "par": _par_dict(demand.par),
    }


class _SlotTexts:
    """One consumer's slot-charge texts, a list that write_json writes.

    ``render(index)`` renders the texts of the consumer at *index* anew
    each time the list is iterated, so that no report's worth of texts
    is held.
    """

    __slots__ = ("render", "index")

    def __init__(self, render: Callable[[int], Iterable[str]], index: int):
        self.render, self.index = render, index

    def __iter__(self) -> Iterator[str]:
        return iter(self.render(self.index))


class _MinorUnitRows:
    """Renders a consumer's row of a report's minor-unit columns.

    A row's display texts are formatted cell by cell. Its lossless texts
    are its display texts with trailing zeros trimmed (``12.30`` is
    ``12.3`` and ``12.00`` is ``12``, as ``units_text(..., trim=True)``
    gives), and write_json writes them just after the display texts. So
    the display texts of the last row rendered are kept, and trimmed,
    not formatted again.
    """

    def __init__(self, columns: list[tuple[int, ...]]):
        self.columns = columns
        self.index, self.texts = -1, []

    def display(self, index: int) -> list[str]:
        if index != self.index:
            row = map(itemgetter(index), self.columns)
            self.index, self.texts = index, list(map(units_text, row, repeat(MONEY_PLACES)))
        return self.texts

    def lossless(self, index: int) -> Iterator[str]:
        return map(str.rstrip, map(str.rstrip, self.display(index), repeat("0")), repeat("."))


def _slot_charge_texts(report: BillingReport) -> tuple[Callable[[int], Iterable[str]], ...]:
    """How to render the slot charges of the consumer at an index: as
    display texts, and as lossless texts.

    A report whose every slot column is over ``10**MONEY_PLACES``, as
    every slotted-group report's is, holds minor units, and its texts are
    formatted cell by cell as they are written (see _MinorUnitRows). Only
    the largest numerator of each column is formatted here, which proves
    that every other one prints. In any other report a charge repeats
    often, so each distinct numerator of a denominator is rendered here,
    once, and the denominator is factored once per column. A charge whose
    lossless text is its display text, such as ``12.34``, keeps one
    ``str`` for both. So every text that can fail to print fails here,
    before any write.
    """
    columns = [column for _, column in report.slot_columns]
    if all(den == 10**MONEY_PLACES for den, _ in report.slot_columns):
        for column in columns:
            units_text(max(column, key=abs, default=0), MONEY_PLACES)
        rows = _MinorUnitRows(columns)
        return rows.display, rows.lossless
    texts: dict[int, tuple[dict[int, str], dict[int, str]]] = {}
    fixed_memos, exact_memos = [], []
    for den, column in report.slot_columns:
        fixed, lossless = texts.setdefault(den, ({}, {}))
        form = decimal_form(den)
        for num in set(column).difference(fixed):
            fixed[num] = text = fixed_text(num, den, MONEY_PLACES)
            exact = exact_text(num, den, form)
            lossless[num] = text if exact == text else exact
        fixed_memos.append(fixed)
        exact_memos.append(lossless)
    return tuple(
        lambda index, memos=memos: map(dict.__getitem__, memos, map(itemgetter(index), columns))
        for memos in (fixed_memos, exact_memos)
    )


def report_to_dict(report: BillingReport) -> dict:
    """The JSON payload of *report*: its grid and demand, and its scheme's
    own figures from _scheme_dict."""
    return {**_scheme_dict(report), "grid": _grid_dict(report.grid), "demand": demand_dict(report)}


def _scheme_dict(report: BillingReport) -> dict:
    """The figures of *report* that are its scheme's own, each formatted,
    or proven printable, before it returns. Each consumer's slot charges
    are lists that are rendered only as write_json writes them."""
    charges: dict = {}
    if report.slot_columns is not None:
        fixed, lossless = _slot_charge_texts(report)
        charges = {"slot_charges": fixed, "slot_charges_exact": lossless}
    consumers = []
    for index, consumer in enumerate(report.consumers):
        entry = {key: _SlotTexts(render, index) for key, render in charges.items()}
        entry["id"] = consumer
        entry["total"] = {
            "billed": format_money(report.billed_totals[consumer]),
            "exact": exact_str(report.consumer_totals[consumer]),
        }
        consumers.append(entry)
    out = {
        "scheme": report.scheme.value,
        "currency": report.currency,
        "consumers": consumers,
        "aggregate": {
            "billed": format_money(report.aggregate_billed),
            "exact": exact_str(report.aggregate_exact),
        },
    }
    if report.policy is not None:
        out["allocation_policy"] = report.policy.value
    if report.group_slot_prices is not None:
        out["group_slot_prices"] = [
            format_money(price) for price in report.group_slot_prices
        ]
        out["group_slot_prices_exact"] = [
            exact_str(price) for price in report.group_slot_prices
        ]
    if report.zero_filled is not None:
        out["zero_filled_cells"] = report.zero_filled
    return out


def _comparison_rows(comparison: SchemeComparison) -> list[tuple[str, list[str]]]:
    """Each consumer's row, then the aggregate's, of billed money texts:
    monthly, slotted-individual, slotted-group, slot premium, group saving."""
    reports = (comparison.monthly, comparison.slotted_individual, comparison.slotted_group)
    rows = []
    for c in comparison.monthly.consumers:
        monthly, slotted, grouped = (report.billed_totals[c] for report in reports)
        rows.append((c, [monthly, slotted, grouped, slotted - monthly, slotted - grouped]))
    totals = [report.aggregate_billed for report in reports]
    rows.append(("aggregate", [*totals, comparison.slot_premium, comparison.group_saving]))
    return [(label, list(map(format_money, values))) for label, values in rows]


def comparison_to_dict(comparison: SchemeComparison) -> dict:
    """The JSON payload of *comparison*. The three schemes share one grid
    and one demand, so those are written once, at the top level."""
    keys = ("monthly", "slotted_individual", "slotted_group", "slot_premium", "group_saving")
    *rows, (_, aggregate) = _comparison_rows(comparison)
    return {
        "currency": comparison.monthly.currency,
        "grid": _grid_dict(comparison.monthly.grid),
        "consumers": [{"id": consumer, **dict(zip(keys, texts))} for consumer, texts in rows],
        "aggregate": dict(zip(keys, aggregate)),
        "allocation_policy": comparison.slotted_group.policy.value,
        "demand": demand_dict(comparison.monthly),
        "schemes": {
            report.scheme.value: _scheme_dict(report)
            for report in (
                comparison.monthly,
                comparison.slotted_individual,
                comparison.slotted_group,
            )
        },
    }


# The figures a shift changes: JSON key, text label, JSON form, and the
# report's before, after and delta fields.
_SHIFT_CHANGES = (
    ("allocated", "allocated (group scheme)", format_money,
     attrgetter("allocated_before", "allocated_after", "allocated_delta")),
    ("slotted_individual", "slotted-individual", _money,
     attrgetter("individual_before", "individual_after", "individual_delta")),
    ("group_aggregate", "group aggregate", format_money,
     attrgetter("group_billed_before", "group_billed_after", "group_billed_delta")),
)


def shift_to_dict(report: ShiftReport) -> dict:
    out = {
        "consumer": report.consumer,
        "from_slot": report.from_slot,
        "to_slot": report.to_slot,
        "amount_kwh": _energy(report.amount),
        "par": {"before": _par_dict(report.par_before), "after": _par_dict(report.par_after)},
    }
    for key, _, form, figures in _SHIFT_CHANGES:
        out[key] = dict(zip(("before", "after", "delta"), map(form, figures(report))))
    return out


def bill_to_dict(schedule: TariffSchedule, usage) -> dict:
    return {
        "currency": schedule.currency,
        "price": format_money(progressive_price(schedule, usage)),
        "breakdown": [
            {"tier": number, "energy_kwh": exact_str(span), "charge": format_money(charge)}
            for number, span, charge in tier_breakdown(schedule, usage)
        ],
    }


def allocation_to_dict(result: AllocationResult) -> dict:
    return {
        "policy": result.policy.value,
        "shares": {c: format_money(v) for c, v in result.shares.items()},
        "total": format_money(result.total),
        "adjustments_minor_units": {c: units for c, units in result.adjustments},
    }


_escape = json.encoder.encode_basestring_ascii

# Characters that write_json gathers before each write to its stream.
JSON_CHUNK_CHARS = 64 * 1024


def _write_json(value, indent: str, write: Callable[[str], object]) -> None:
    """Pass the ``json.dumps(indent=2, sort_keys=True)`` text of *value*
    to *write*, piece by piece.

    *indent* is the indentation of the line *value* starts on. Strings
    are escaped by the routine ``json.dumps`` uses, and ``json.dumps``
    itself writes the few other leaves and empty containers.
    """
    if isinstance(value, str):
        write(_escape(value))
    elif isinstance(value, dict) and value:
        inner = indent + "  "
        separator = "{\n" + inner
        for key in sorted(value):
            write(separator + _escape(key) + ": ")
            _write_json(value[key], inner, write)
            separator = ",\n" + inner
        write("\n" + indent + "}")
    elif isinstance(value, (list, tuple, _SlotTexts)) and value:
        inner = indent + "  "
        separator = ",\n" + inner
        write("[\n" + inner)
        if isinstance(value, _SlotTexts) or all(isinstance(item, str) for item in value):
            # Slot charges and loads are long lists of strings: one join.
            write(separator.join(map(_escape, value)))
        else:
            for index, item in enumerate(value):
                if index:
                    write(separator)
                _write_json(item, inner, write)
        write("\n" + indent + "]")
    else:
        write(json.dumps(value))


def to_json(payload: dict) -> str:
    """*payload* as ``json.dumps(payload, indent=2, sort_keys=True)``, plus
    a newline. Dict keys must be strings.

    This is write_json's text, gathered into one string.
    """
    out = io.StringIO()
    write_json(payload, out)
    return out.getvalue()


def write_json(payload: dict, stream: TextIO) -> None:
    """Write ``to_json(payload)`` to *stream* as it is rendered, in
    writes of about JSON_CHUNK_CHARS characters, so that only one chunk
    of the text is held at a time. The chunks also keep a line-buffered
    stream, such as stdout on a terminal, from flushing at every piece
    that holds a newline.

    A list is written with one join when its items are strings, which a
    report's slot-charge lists (_SlotTexts) always are; they are rendered
    here, as they are written. An int with more digits than Python
    converts to text raises the display-limit error, after the chunks
    before it have been written. The payloads built here refuse such an
    int while they are built (see _number_fields), and prove every slot
    charge printable (see _slot_charge_texts), so none of them fails
    part way.
    """
    chunk: list[str] = []
    size = 0

    def write(piece: str) -> None:
        nonlocal size
        chunk.append(piece)
        size += len(piece)
        if size >= JSON_CHUNK_CHARS:
            stream.write("".join(chunk))
            chunk.clear()
            size = 0

    try:
        _write_json(payload, "", write)
    except ValueError:
        # A payload holds only dicts, lists, strings, ints, bools and None,
        # so the one ValueError left is an int too long to print.
        raise too_large_error() from None
    write("\n")
    stream.write("".join(chunk))


# ----------------------------------------------------------------------
# Human-readable tables
# ----------------------------------------------------------------------


def render_schedule_summary(schedule: TariffSchedule) -> str:
    lines = [
        f"currency: {schedule.currency}",
        f"base period: {exact_str(schedule.base_hours / HOURS_PER_DAY)} days",
        f"progressive: {'yes' if schedule.is_progressive else 'no'}",
    ]
    previous = Fraction(0)
    for number, tier in enumerate(schedule.tiers, start=1):
        if tier.upper_bound is None:
            span = f"above {format_energy(previous)} kWh"
        else:
            span = f"{format_energy(previous)} to {format_energy(tier.upper_bound)} kWh"
            previous = tier.upper_bound
        lines.append(f"tier {number}: {span} at {exact_str(tier.rate)}/kWh")
    return "\n".join(lines)


def render_bill(schedule: TariffSchedule, usage) -> str:
    """Price line plus one row per tier that received energy."""
    rows = tier_breakdown(schedule, usage)
    lines = [format_money(progressive_price(schedule, usage))]
    for number, span, charge in rows:
        rate = schedule.tiers[number - 1].rate
        lines.append(
            f"tier {number}: {format_energy(span)} kWh @ {exact_str(rate)} = "
            f"{format_money(charge)} {schedule.currency}"
        )
    return "\n".join(lines)


def render_allocation(result: AllocationResult) -> str:
    return ",".join(format_money(share) for share in result.shares.values())


def _par_text(par: Optional[Fraction]) -> str:
    return "undefined" if par is None else format_fixed(par, 4)


def _demand_line(report: BillingReport) -> str:
    demand = report.demand
    return (
        f"peak {format_energy(demand.peak)} kWh, mean {format_energy(demand.mean)} "
        f"kWh, PAR {_par_text(demand.par)}"
    )


def _table(rows: list[tuple[str, list[str]]], least: Iterable[int]) -> list[str]:
    """Rows of a label and figure texts as aligned lines. Labels are
    left-aligned; each figure column is right-aligned to its *least*
    width, or to its widest figure, so that every figure stays aligned."""
    width = max(len(label) for label, _ in rows)
    columns = zip(*(texts for _, texts in rows))
    widths = [max(low, *map(len, texts)) for low, texts in zip(least, columns)]
    return [
        f"{label:<{width}}  " + "  ".join(map(str.rjust, texts, widths)) for label, texts in rows
    ]


def render_report(report: BillingReport) -> str:
    lines = [f"scheme: {report.scheme.value}"]
    if report.policy is not None:
        lines[0] += f" (policy {report.policy.value})"
    grid = report.grid
    lines.append(
        f"period: {format_rfc3339(grid.period_start)} for {grid.period_days} days, "
        f"{exact_str(grid.slot_hours)}h slots ({grid.slot_count} slots)"
    )
    billed = [(c, [format_money(report.billed_totals[c])]) for c in report.consumers]
    aggregate = ("aggregate", [format_money(report.aggregate_billed)])
    lines += _table([("consumer", ["billed"]), *billed, aggregate], (12,))
    lines[-1] += f" {report.currency}"
    if report.zero_filled:
        lines.append(f"note: {report.zero_filled} consumer-slot cells had no readings")
    lines.append(_demand_line(report))
    return "\n".join(lines)


def render_comparison(comparison: SchemeComparison) -> str:
    header = ("consumer", ["monthly", "slotted-ind", "slotted-group", "premium", "saving"])
    lines = _table([header, *_comparison_rows(comparison)], (12, 12, 13, 10, 10))
    lines.append(f"currency: {comparison.monthly.currency}")
    lines.append(_demand_line(comparison.monthly))
    return "\n".join(lines)


def render_shift(report: ShiftReport) -> str:
    lines = [
        f"shift: {report.consumer} moves {format_energy(report.amount)} kWh "
        f"from slot {report.from_slot} to slot {report.to_slot}"
    ]
    for _, label, _, figures in _SHIFT_CHANGES:
        before, after, delta = map(format_money, figures(report))
        lines.append(f"{label}: {before} -> {after} (delta {delta})")
    lines.append(f"PAR: {_par_text(report.par_before)} -> {_par_text(report.par_after)}")
    return "\n".join(lines)
