"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately written as straight-line code over plain
(bounds, rates) lists, with different algorithms than the package uses:
the price oracle walks one minimal energy quantum at a time, the desk
calculator prices via the cumulative clip formula, and the remainder
allocator repeatedly scans for the largest remainder instead of sorting
once. The partition oracle measures time in Fraction seconds, where the
package counts integer microseconds. The demand oracle adds a slot's
cells one Fraction at a time, where the package puts each slot column on
one integer quantum. The shift oracle bills both whole matrices, where
the package reprices only the two changed columns. The
text oracles render a reduced Fraction, where the package renders integer
numerators over unreduced, shared denominators. The group price oracle
builds the schedule widened by the group size and prices the pooled
usage on it, where the package prices the pooled usage over N on the
unwidened table and multiplies by N. The trace parser oracle builds every
reading through MeterReading's checking constructor, where the package
checks each row once and builds its readings unchecked; both number a row
by the line it ends on. The bad-byte oracle finds a byte that is not
UTF-8 by decoding the whole file, and checks the rows in front of it
from that prefix, where the package reads the file once and decodes
again only up to the byte, to report it. The JSON oracle
is ``json.dumps``, where the package writes reports with its own writer.
The energy oracle reads every string with ``Fraction(str)``, where the
package reads plain decimals from their digits. The slot-charge text
oracles render each cell on its own, where the package renders each
distinct charge of a denominator once.
If the package and these agree, both routes would have to be wrong in
the same way.
"""

import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from progtariff import (
    AllocationPolicy,
    DemandMetrics,
    MeterReading,
    SchemeKind,
    ShiftReport,
    TraceError,
    energy_amount,
    parse_rfc3339,
    progressive_price,
    run_scheme,
    scale_schedule,
)
from progtariff.amounts import MAX_DECIMAL_EXPONENT

MINOR = 100  # minor currency units per whole unit


def quantum_price(bounds, rates, usage):
    """Accumulate the price one minimal energy quantum at a time.

    The quantum is 1/lcm of all denominators, so every tier boundary and
    the usage itself sit on the quantum grid and no step straddles two
    tiers. Exact by construction.
    """
    dens = [usage.denominator] + [b.denominator for b in bounds if b is not None]
    scale = math.lcm(*dens)
    steps = usage.numerator * (scale // usage.denominator)
    int_bounds = [None if b is None else b.numerator * (scale // b.denominator) for b in bounds]
    counts = [0] * len(rates)
    for step in range(1, steps + 1):
        for index, bound in enumerate(int_bounds):
            if bound is None or step <= bound:
                counts[index] += 1
                break
    quantum = Fraction(1, scale)
    return sum((rate * count for rate, count in zip(rates, counts)), Fraction(0)) * quantum


def clip_price(bounds, rates, usage):
    """Price via sum_i rate_i * (min(u, b_i) - b_{i-1})+, no tier walk."""
    total = Fraction(0)
    previous = Fraction(0)
    for bound, rate in zip(bounds, rates):
        top = usage if bound is None else min(usage, bound)
        if top > previous:
            total += rate * (top - previous)
        if bound is not None:
            previous = bound
    return total


def widened_group_price(slot_schedule, usages):
    """Collective price of a slot's usages on the schedule widened by N.

    usages is a list of exact Fractions, one per group member, idle
    members included. Builds a whole new schedule whose tier ranges are
    N times wider and prices the pooled usage on it.
    """
    widened = scale_schedule(slot_schedule, len(usages))
    return progressive_price(widened, sum(usages, Fraction(0)))


def round_half_up_minor(value):
    """Half-up to minor units, returned in minor units (int)."""
    return math.floor(value * MINOR + Fraction(1, 2))


def remainder_allocate(group_price, individual_prices):
    """Largest-remainder split of group_price, in minor units per consumer.

    individual_prices is a list of (consumer_id, exact_price). Returns a
    dict id -> minor units. Scans for the current largest remainder each
    round (ties to the smallest id) instead of pre-sorting.
    """
    total = sum((price for _, price in individual_prices), Fraction(0))
    if total == 0:
        return {consumer: 0 for consumer, _ in individual_prices}
    raw = {c: group_price * price / total for c, price in individual_prices}
    units = {c: math.floor(value * MINOR) for c, value in raw.items()}
    remainders = {c: raw[c] * MINOR - units[c] for c in units}
    target = round_half_up_minor(group_price)
    while sum(units.values()) < target:
        best = max(sorted(remainders), key=lambda c: remainders[c])
        units[best] += 1
        remainders[best] -= 1
    return units


def desk_schemes(rows, bounds, rates, slots):
    """All three schemes for a small matrix, computed the long way.

    rows: dict id -> list of slot usages (exact Fractions).
    Returns (monthly, slotted, group_slot_prices, allocations) where
    monthly and slotted map id -> exact total, group_slot_prices is a
    per-slot list, and allocations maps id -> total billed minor units
    under the exact-sum policy.
    """
    consumers = sorted(rows)
    slot_bounds = [None if b is None else b / slots for b in bounds]
    group_bounds = [
        None if b is None else b * len(consumers) for b in slot_bounds
    ]

    monthly = {
        c: clip_price(bounds, rates, sum(rows[c], Fraction(0))) for c in consumers
    }
    slotted = {
        c: sum((clip_price(slot_bounds, rates, u) for u in rows[c]), Fraction(0))
        for c in consumers
    }
    group_prices = []
    allocated = {c: 0 for c in consumers}
    for slot in range(slots):
        pooled = sum((rows[c][slot] for c in consumers), Fraction(0))
        collective = clip_price(group_bounds, rates, pooled)
        group_prices.append(collective)
        prices = [(c, clip_price(slot_bounds, rates, rows[c][slot])) for c in consumers]
        if all(price == 0 for _, price in prices):
            continue
        units = remainder_allocate(collective, prices)
        for consumer, value in units.items():
            allocated[consumer] += value
    return monthly, slotted, group_prices, allocated


def _seconds_between(start, end):
    delta = end - start
    return Fraction(delta.days * 86400 + delta.seconds) + Fraction(
        delta.microseconds, 10**6
    )


def desk_partition(readings, grid):
    """Slot partition on exact Fraction seconds, one reading at a time.

    Offsets are Fractions of a second from the period start; a point
    reading lands in floor(offset / slot_seconds), and an interval
    reading's energy is split by the Fraction-second overlap of each
    slot it touches. Returns (consumers, usage, observed) with usage as
    a tuple of rows of Fractions. Raises ValueError with the engine's
    messages for readings outside the period and overlapping intervals.
    """
    slot_seconds = grid.slot_hours * 3600
    period_seconds = _seconds_between(grid.period_start, grid.period_end)
    consumers = sorted({reading.consumer for reading in readings})
    cells = {}
    observed = set()
    intervals = {}

    for reading in readings:
        offset = _seconds_between(grid.period_start, reading.start)
        if offset < 0 or offset >= period_seconds:
            raise ValueError(
                f"reading for {reading.consumer!r} at {reading.start.isoformat()} "
                "lies outside the billing period"
            )
        if reading.end is None:
            slot = math.floor(offset / slot_seconds)
            key = (reading.consumer, slot)
            cells[key] = cells.get(key, Fraction(0)) + reading.energy
            observed.add(key)
            continue
        end_offset = _seconds_between(grid.period_start, reading.end)
        if end_offset > period_seconds:
            raise ValueError(
                f"reading for {reading.consumer!r} ending {reading.end.isoformat()} "
                "lies outside the billing period"
            )
        intervals.setdefault(reading.consumer, []).append((offset, end_offset))
        duration = end_offset - offset
        slot = math.floor(offset / slot_seconds)
        while slot * slot_seconds < end_offset and slot < grid.slot_count:
            lo = max(offset, slot * slot_seconds)
            hi = min(end_offset, (slot + 1) * slot_seconds)
            if hi > lo:
                key = (reading.consumer, slot)
                cells[key] = cells.get(key, Fraction(0)) + reading.energy * (hi - lo) / duration
                observed.add(key)
            slot += 1

    for consumer, spans in intervals.items():
        spans.sort()
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            if next_start < prev_end:
                raise ValueError(f"overlapping interval readings for consumer {consumer!r}")

    usage = tuple(
        tuple(cells.get((consumer, slot), Fraction(0)) for slot in range(grid.slot_count))
        for consumer in consumers
    )
    return tuple(consumers), usage, observed


def usage_rows(matrix):
    """Every consumer's cells of a SlotUsageMatrix as Fractions, one tuple
    per consumer, read from its integer columns."""
    columns = [[Fraction(units, quantum) for units in cells] for quantum, cells in matrix.columns]
    return tuple(zip(*columns))


def desk_demand(matrix):
    """Slot loads, peak, mean and peak-to-average ratio of a usage matrix,
    each load a Fraction sum of its slot's cells. The ratio is None when
    the matrix holds no load."""
    loads = tuple(
        sum((row[slot] for row in usage_rows(matrix)), Fraction(0))
        for slot in range(matrix.slots)
    )
    peak = max(loads)
    mean = sum(loads, Fraction(0)) / matrix.slots
    par = None if mean == 0 else peak / mean
    return DemandMetrics(slot_loads=loads, peak=peak, mean=mean, par=par)


def desk_shift(matrix, schedule, grid, consumer, from_slot, to_slot, amount,
               policy="exact-sum"):
    """A what-if shift priced on both whole matrices.

    Bills the input matrix and the shifted one under the slotted-group
    and slotted-individual schemes, and takes each one's demand metrics
    with desk_demand, then reads the consumer's figures off the four reports. Raises the
    same errors as the engine, in the same order: the amount, then the
    shift itself, then the policy, then the grid.
    """
    moved = energy_amount(amount)
    shifted = matrix.with_shift(consumer, from_slot, to_slot, moved)
    policy = AllocationPolicy(policy)
    sides = []
    for billed in (matrix, shifted):
        group = run_scheme(billed, schedule, grid, SchemeKind.SLOTTED_GROUP, policy)
        solo = run_scheme(billed, schedule, grid, SchemeKind.SLOTTED_INDIVIDUAL)
        sides.append((group, solo, desk_demand(billed)))
    (group_before, solo_before, demand_before), (group_after, solo_after, demand_after) = sides
    allocated_before = group_before.billed_totals[consumer]
    allocated_after = group_after.billed_totals[consumer]
    individual_before = solo_before.consumer_totals[consumer]
    individual_after = solo_after.consumer_totals[consumer]
    return ShiftReport(
        consumer=consumer,
        from_slot=from_slot,
        to_slot=to_slot,
        amount=moved,
        allocated_before=allocated_before,
        allocated_after=allocated_after,
        allocated_delta=allocated_after - allocated_before,
        individual_before=individual_before,
        individual_after=individual_after,
        individual_delta=individual_after - individual_before,
        group_billed_before=group_before.aggregate_billed,
        group_billed_after=group_after.aggregate_billed,
        group_billed_delta=group_after.aggregate_billed - group_before.aggregate_billed,
        par_before=demand_before.par,
        par_after=demand_after.par,
    )


def _too_large():
    return ValueError(
        "amount too large to display: more than "
        f"{sys.get_int_max_str_digits()} digits"
    )


def desk_format_fixed(value, places):
    """A Fraction with exactly *places* decimals, rounding half away from zero."""
    den = value.denominator
    units = (2 * abs(value.numerator) * 10**places + den) // (2 * den)
    sign = "-" if (value.numerator < 0 and units > 0) else ""
    try:
        if places == 0:
            return f"{sign}{units}"
        whole, frac = divmod(units, 10**places)
        return f"{sign}{whole}.{frac:0{places}d}"
    except ValueError:
        raise _too_large() from None


def desk_exact_str(value):
    """A Fraction as a terminating decimal when one exists, else p/q."""
    den = value.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    places = max(twos, fives)
    try:
        if den != 1:
            return f"{value.numerator}/{value.denominator}"
        if places == 0:
            return str(value.numerator)
        quantum = 10**places
        units = value.numerator * (quantum // value.denominator)
        sign = "-" if units < 0 else ""
        whole, frac = divmod(abs(units), quantum)
        return f"{sign}{whole}.{frac:0{places}d}"
    except ValueError:
        raise _too_large() from None


def _desk_echo(text):
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def desk_exact(text):
    """A string read as an exact number by Fraction's own parser, every
    string alike: the exponent cap first, then underscores refused (as
    Python 3.10's parser does), then ``Fraction(str)``, whose refusal of
    an integer past ``sys.int_max_str_digits`` keeps its own message.
    Raises ValueError with the package's messages."""
    stripped = text.strip()
    mark = max(stripped.rfind("e"), stripped.rfind("E"))
    if mark >= 0:
        try:
            exponent = int(stripped[mark + 1 :])
        except ValueError:
            pass
        else:
            if abs(exponent) > MAX_DECIMAL_EXPONENT:
                raise ValueError(
                    f"decimal exponent beyond +/-{MAX_DECIMAL_EXPONENT}: "
                    f"{_desk_echo(text)}"
                )
    if "_" in stripped:
        raise ValueError(f"not a decimal or p/q number: {_desk_echo(text)}")
    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as err:
        if str(err).startswith("Exceeds the limit"):
            raise ValueError(
                f"more than {sys.get_int_max_str_digits()} digits in {_desk_echo(text)}"
            ) from err
        raise ValueError(f"not a decimal or p/q number: {_desk_echo(text)}") from err


TRACE_HEADER = ["consumer_id", "interval_start", "energy_kwh"]


def _desk_trace_rows(text):
    """The csv rows of trace *text*, each with the line it ends on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    return [(row, reader.line_num) for row in reader]


def _desk_check_rows(path, rows, readings):
    """Check trace *rows*, the header first, row by row, appending each
    reading to *readings*. Raises TraceError with the package's messages,
    in the package's order."""
    (first, line_no), *rows = rows
    header = [cell.strip() for cell in first]
    if header not in (TRACE_HEADER, TRACE_HEADER + ["interval_end"]):
        raise TraceError(
            f"{path}:{line_no}: bad header {header!r}, expected {','.join(TRACE_HEADER)}"
            " with optional interval_end"
        )
    has_end = len(header) == 4
    for row, line_no in rows:
        if not "".join(row).strip():
            continue
        if len(row) != len(header):
            raise TraceError(
                f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
            )
        consumer = row[0].strip()
        if not consumer:
            raise TraceError(f"{path}:{line_no}: empty consumer_id")
        try:
            start = parse_rfc3339(row[1])
        except ValueError as err:
            raise TraceError(f"{path}:{line_no}: {err}") from err
        try:
            energy = energy_amount(row[2].strip())
        except ValueError as err:
            raise TraceError(f"{path}:{line_no}: {err}") from err
        end = None
        if has_end and row[3].strip():
            try:
                end = parse_rfc3339(row[3])
            except ValueError as err:
                raise TraceError(f"{path}:{line_no}: {err}") from err
        try:
            readings.append(
                MeterReading(consumer=consumer, start=start, energy=energy, end=end)
            )
        except ValueError as err:
            raise TraceError(f"{path}:{line_no}: {err}") from err


def desk_parse_trace_csv(path):
    """Read a trace CSV row by row, building each reading through the
    checking MeterReading constructor. Raises TraceError with the
    package's messages, in the package's order."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise TraceError(f"{path}: {err.strerror or err}") from err
    rows = _desk_trace_rows(text)
    if not rows:
        raise TraceError(f"{path}: missing header")
    readings = []
    _desk_check_rows(path, rows, readings)
    return readings


def desk_read_trace(path):
    """The readings of a trace CSV, in file order, up to its first fault,
    and the fault's TraceError text (None if there is none).

    A byte that is not UTF-8 is found by a strict decode of the whole
    file. The text in front of it is decoded, a lone surrogate appended
    in its place, and the rows checked as desk_parse_trace_csv checks
    them, except the last, which holds the surrogate and is dropped
    unchecked; if they pass, the byte is the fault.
    """
    path = Path(path)
    data = path.read_bytes()
    fault = None
    try:
        rows = _desk_trace_rows(data.decode("utf-8"))
    except UnicodeDecodeError as bad:
        rows = _desk_trace_rows(data[: bad.start].decode("utf-8") + "\udcff")[:-1]
        fault = f"{path}: not UTF-8 text ({bad.reason} at byte {bad.start})"
    else:
        if not rows:
            fault = f"{path}: missing header"
    readings = []
    try:
        if rows:
            _desk_check_rows(path, rows, readings)
    except TraceError as err:
        fault = str(err)
    return readings, fault


def desk_to_json(payload):
    """A report payload as the CLI prints it with --json."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
