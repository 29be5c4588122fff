"""Trace ingestion, slot partitioning, pricing schemes, and what-if shifts.

Three schemes are computed over the same per-consumer, per-slot usage
matrix:

* ``monthly-individual``: each consumer's period total priced with the
  tariff as quoted.
* ``slotted-individual``: the tariff rescaled onto one slot and applied
  to every consumer and slot separately. Per slot this uses higher tiers
  sooner, so a consumer never pays less than under the monthly scheme.
* ``slotted-group``: the slot tariff widened by the group size, applied
  to the pooled slot usage, and the collective price allocated back to
  consumers in proportion to their stand-alone prices.

All charges are exact rationals; per-consumer bills are rounded to minor
units only at the report boundary, and scheme aggregates are the sums of
those rounded bills (what the consumers actually pay).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .amounts import (
    MONEY_PLACES,
    ExactLike,
    echo_value,
    energy_amount,
    exact,
    round_money,
)
from .errors import InternalCheckError, SimulationError
from .grouping import (
    AllocationPolicy,
    add_share,
    allocate_units,
    price_group,
    quantize,
    quantize_cells,
)
from .tariff import (
    HOURS_PER_DAY,
    Column,
    TariffSchedule,
    progressive_price,
    scale_schedule,
    slot_factor,
)


def _require_utc(stamp: datetime, label: str) -> datetime:
    if stamp.tzinfo is timezone.utc:
        return stamp
    if stamp.tzinfo is None or stamp.utcoffset() is None:
        raise ValueError(f"{label} must be timezone-aware")
    return stamp.astimezone(timezone.utc)


_MICROSECOND = timedelta(microseconds=1)

# Most slots a grid may hold; without a cap "--slot-hours 1e-30" asks for
# 2.4e31 cells per consumer. A one-minute grid over 366 days fits.
MAX_SLOTS = 10**6
# Most consumer-slot cells a partition may hold: a grid under MAX_SLOTS
# can still ask for 10**6 zero-filled cells per consumer. A month of
# 2,000 consumers on 6-hour slots holds 240,000.
MAX_CELLS = 10**6


@dataclass(frozen=True, slots=True)
class MeterReading:
    """One meter delta: energy consumed starting at a UTC timestamp.

    ``end`` is optional; when present the energy is spread over
    [start, end) and may be split across slot boundaries, otherwise the
    reading is a point delta assigned to the slot containing ``start``.

    The constructor checks every field, and it is the only way one is
    built. The CLI builds none: the partition reads a trace stream's
    checked fields instead.
    """

    consumer: str
    start: datetime
    energy: Fraction
    end: Optional[datetime] = None

    def __post_init__(self):
        if not self.consumer or not isinstance(self.consumer, str):
            raise ValueError("consumer id must be a non-empty string")
        object.__setattr__(self, "start", _require_utc(self.start, "reading start"))
        object.__setattr__(self, "energy", energy_amount(self.energy))
        if self.end is not None:
            end = _require_utc(self.end, "reading end")
            if end <= self.start:
                raise ValueError("reading end must be after its start")
            object.__setattr__(self, "end", end)


@dataclass(frozen=True)
class SlotGrid:
    """Partition of a billing period into equal slots.

    ``slot_hours`` must divide 24 so each day holds a whole number of
    slots; the period then spans ``period_days`` days from
    ``period_start`` (UTC).
    """

    slot_hours: Fraction
    period_days: int
    period_start: datetime

    def __post_init__(self):
        slot_factor(self.slot_hours, self.period_days)
        object.__setattr__(self, "slot_hours", exact(self.slot_hours))
        object.__setattr__(
            self, "period_start", _require_utc(self.period_start, "period start")
        )
        try:
            self.period_end
        except OverflowError:
            # Too long from the first datetime is too long from any start.
            start = self.period_start
            start = "any start" if start == FIRST_MIDNIGHT else start.isoformat()
            raise ValueError(
                f"a {self.period_days}-day period from {start} ends past the last datetime"
            ) from None
        if self.slot_count > MAX_SLOTS:
            raise ValueError(f"the grid would hold more than {MAX_SLOTS} slots")

    @property
    def slots_per_day(self) -> int:
        return int(Fraction(HOURS_PER_DAY) / self.slot_hours)

    @property
    def slot_count(self) -> int:
        return self.slots_per_day * self.period_days

    @property
    def slot_seconds(self) -> Fraction:
        return self.slot_hours * 3600

    @property
    def period_end(self) -> datetime:
        return self.period_start + timedelta(days=self.period_days)

    @property
    def factor(self) -> Fraction:
        return slot_factor(self.slot_hours, self.period_days)


@dataclass(frozen=True)
class SlotUsageMatrix:
    """Per-consumer, per-slot energy grid, stored as integer slot columns.

    Consumers are in sorted id order. ``columns[s]`` is ``(quantum,
    units)``: cell ``(i, s)`` is ``units[i] / quantum`` kWh, and the
    quantum is the lcm of the column's cell denominators in lowest terms.
    ``flags`` holds one row of bytes per consumer: 1 where a reading
    reached the cell, 0 where it was zero-filled. The constructor checks
    ids, containers and shape, never a cell; ``from_rows`` checks every cell.
    """

    consumers: tuple[str, ...]
    columns: tuple[Column, ...]
    flags: tuple[bytes, ...]

    def __post_init__(self):
        ids, columns, flags = self.consumers, self.columns, self.flags
        if not all(isinstance(part, tuple) for part in (ids, columns, flags)):
            raise SimulationError("consumers, columns and flags must be tuples")
        for consumer in ids:
            if not consumer or not isinstance(consumer, str):
                raise SimulationError(f"consumer id must be a non-empty string, got {consumer!r}")
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise SimulationError("consumer ids must be unique and sorted")
        if not columns:
            raise SimulationError("matrix needs at least one slot")
        for pair in columns:
            if not (isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[1], tuple)):
                raise SimulationError("every column must be a tuple of a quantum and a units tuple")
            if len(pair[1]) != len(ids):
                raise SimulationError("every column needs one unit per consumer")
        if any(not isinstance(row, bytes) for row in flags):
            raise SimulationError("every row of flags must be bytes")
        if len(flags) != len(ids) or any(len(row) != len(columns) for row in flags):
            raise SimulationError("every consumer needs one row of flags, one per slot")

    @classmethod
    def from_rows(
        cls, rows: Mapping[str, Sequence[ExactLike]], slots: Optional[int] = None
    ) -> "SlotUsageMatrix":
        """Build from a consumer->usages mapping, sorting consumers by id.
        Every cell is checked, and every cell counts as observed."""
        consumers = tuple(sorted(rows))
        if slots is None:
            if not consumers:
                raise SimulationError("empty matrix needs an explicit slot count")
            slots = len(rows[consumers[0]])
        for consumer in consumers:
            if len(rows[consumer]) != slots:
                raise SimulationError(
                    f"consumer {consumer!r}: expected {slots} slots, got {len(rows[consumer])}"
                )
        cells = [[energy_amount(cell) for cell in rows[consumer]] for consumer in consumers]
        columns = tuple(quantize([row[slot] for row in cells]) for slot in range(slots))
        return cls(consumers, columns, (b"\1" * slots,) * len(consumers))

    @property
    def slots(self) -> int:
        return len(self.columns)

    @cached_property
    def observed(self) -> frozenset[tuple[str, int]]:
        """The cells that received at least one reading."""
        rows = zip(self.consumers, self.flags)
        return frozenset((c, slot) for c, row in rows for slot, flag in enumerate(row) if flag)

    @property
    def zero_filled(self) -> int:
        """How many cells no reading reached."""
        return self.slots * len(self.consumers) - sum(row.count(1) for row in self.flags)

    def index_of(self, consumer: str) -> int:
        try:
            return self.consumers.index(consumer)
        except ValueError:
            raise SimulationError(f"unknown consumer {consumer!r}") from None

    def column(self, slot: int) -> dict[str, Fraction]:
        if not 0 <= slot < self.slots:
            raise SimulationError(f"slot {slot} out of range 0..{self.slots - 1}")
        quantum, units = self.columns[slot]
        return {c: Fraction(unit, quantum) for c, unit in zip(self.consumers, units)}

    def with_shift(
        self, consumer: str, from_slot: int, to_slot: int, amount: ExactLike
    ) -> "SlotUsageMatrix":
        """New matrix with *amount* moved between two of a consumer's slots.
        Only those two columns are rebuilt; the others are shared."""
        moved = energy_amount(amount)
        row = self.index_of(consumer)
        for label, slot in (("from_slot", from_slot), ("to_slot", to_slot)):
            if not isinstance(slot, int) or isinstance(slot, bool) or not 0 <= slot < self.slots:
                raise SimulationError(f"{label} {slot} out of range 0..{self.slots - 1}")
        quantum, units = self.columns[from_slot]
        available = Fraction(units[row], quantum)
        if moved > available:
            raise SimulationError(
                f"cannot shift {echo_value(moved)} kWh out of slot {from_slot}: "
                f"only {echo_value(available)} available"
            )
        moved_num, moved_den = moved.as_integer_ratio()
        columns = list(self.columns)
        for slot, sign in ((from_slot, -1), (to_slot, 1)):
            quantum, units = columns[slot]
            nums, dens = list(units), [quantum] * len(units)
            add_share(nums, dens, row, sign * moved_num, moved_den)
            columns[slot] = quantize_cells(nums, dens)
        return SlotUsageMatrix(self.consumers, tuple(columns), self.flags)


class SchemeKind(Enum):
    MONTHLY_INDIVIDUAL = "monthly-individual"
    SLOTTED_INDIVIDUAL = "slotted-individual"
    SLOTTED_GROUP = "slotted-group"


@dataclass(frozen=True)
class DemandMetrics:
    """Aggregate load per slot plus peak, mean, and peak-to-average ratio.

    ``par`` is None when the period has no load at all (0/0 is reported
    as undefined, never as 0 or 1).
    """

    slot_loads: tuple[Fraction, ...]
    peak: Fraction
    mean: Fraction
    par: Optional[Fraction]


@dataclass(frozen=True)
class BillingReport:
    """One scheme's charges over a usage matrix.

    ``consumer_totals`` are exact sums of the consumer's slot charges;
    ``billed_totals`` round each total to minor units, and
    ``aggregate_billed`` sums the rounded bills. For the group scheme
    ``group_slot_prices`` holds the exact collective price of every slot
    (before allocation) and ``policy`` names the allocation policy used.

    Slot charges are kept as the integers the billing run computed them
    on, in the usage matrix's form: ``slot_columns[s]`` is ``(denominator,
    numerators)``, and the charge of the i-th consumer in slot ``s`` is
    ``numerators[i] / denominator``, not necessarily in lowest terms.
    Under ``slotted-individual`` these are the slot's stand-alone price
    columns; under ``slotted-group`` the denominator is
    ``10**MONEY_PLACES`` and the numerators are allocated shares in minor
    units. They are None for the monthly scheme, which has no per-slot
    structure.

    Under ``slotted-group`` each slot charge is the consumer's allocated
    share of that slot's collective price, already rounded to minor
    units, so ``consumer_totals`` are sums of per-slot minor-unit shares.
    They are not exact shares of the collective price: the per-slot
    rounding can drift a total off the consumer's exact proportional
    share, by less than one minor unit per slot.
    """

    scheme: SchemeKind
    currency: str
    grid: SlotGrid
    consumers: tuple[str, ...]
    slot_columns: Optional[tuple[Column, ...]]
    consumer_totals: dict[str, Fraction]
    billed_totals: dict[str, Fraction]
    aggregate_billed: Fraction
    aggregate_exact: Fraction
    group_slot_prices: Optional[tuple[Fraction, ...]]
    policy: Optional[AllocationPolicy]
    demand: DemandMetrics
    zero_filled: int


@dataclass(frozen=True)
class SchemeComparison:
    """All three schemes side by side, with billed-amount deltas.

    ``slot_premium`` is what slotting alone adds on top of the monthly
    bill; ``group_saving`` is what grouping takes back off the slotted
    bill. Both are differences of billed (minor-unit) totals.
    """

    monthly: BillingReport
    slotted_individual: BillingReport
    slotted_group: BillingReport
    slot_premium: Fraction
    group_saving: Fraction

    @property
    def demand(self) -> DemandMetrics:
        return self.monthly.demand


@dataclass(frozen=True)
class ShiftReport:
    """Effect of moving one consumer's energy between two slots.

    ``allocated_*`` track the consumer's billed total under the group
    scheme, ``individual_*`` the exact (unrounded) total under the
    slotted-individual scheme, and ``group_billed_*`` the whole group's
    billed aggregate. The input matrix is never modified.
    """

    consumer: str
    from_slot: int
    to_slot: int
    amount: Fraction
    allocated_before: Fraction
    allocated_after: Fraction
    allocated_delta: Fraction
    individual_before: Fraction
    individual_after: Fraction
    individual_delta: Fraction
    group_billed_before: Fraction
    group_billed_after: Fraction
    group_billed_delta: Fraction
    par_before: Optional[Fraction]
    par_after: Optional[Fraction]


def slot_partition(readings: Iterable[MeterReading], grid: SlotGrid) -> SlotUsageMatrix:
    """Assign readings to grid slots, preserving total energy exactly.

    Point readings land in the slot containing their timestamp; interval
    readings are split across slots in proportion to time overlap. Every
    reading must lie inside the billing period, and one consumer's
    interval readings must not overlap each other. Cells that received
    no reading hold zero, and the matrix's ``flags`` tell them apart.

    *readings* may be any iterable of MeterReadings, a stream included,
    and each is read once, into its consumer's cell sums, and not kept;
    of a stream from ``fileio.iter_trace_csv`` only the checked
    ``fields`` are read, so no MeterReading is built. A reading outside
    the period is refused as it is read, and so is the first reading of
    a consumer whose row would take the partition past MAX_CELLS cells
    (consumers times slots); overlapping intervals are found at the end.
    Intervals that cross more slot edges than intervals without overlaps
    can are no longer split, so a trace that will be refused for them
    costs about one pass over its rows.
    """
    return _partition(readings, grid, True)[0]


def slot_partition_from_earliest(
    readings: Iterable[MeterReading], slot_hours: ExactLike, period_days: int
) -> tuple[SlotUsageMatrix, SlotGrid]:
    """The matrix and grid of ``slot_partition`` when the period starts at
    midnight UTC of the earliest reading, found in the same one pass.

    The flags are checked before the first reading is read; row faults
    and the cell cap as rows are read; then a period that ends past the
    last datetime, the first reading outside the period in file order,
    and overlapping intervals. An empty trace is refused.
    """
    return _partition(readings, SlotGrid(slot_hours, period_days, FIRST_MIDNIGHT), False)


# The start of a grid whose period starts at the earliest reading, until
# that is read. A period too long to end from it ends from no start.
FIRST_MIDNIGHT = datetime.min.replace(tzinfo=timezone.utc)
_DAY = 86_400 * 10**6  # microseconds


def _outside(consumer: str, start: datetime, stop: Optional[datetime], grid: SlotGrid):
    """The fault of a reading outside *grid*'s period: its start, or else its end."""
    inside = stop is not None and grid.period_start <= start < grid.period_end
    where = f"ending {stop.isoformat()}" if inside else f"at {start.isoformat()}"
    return SimulationError(f"reading for {consumer!r} {where} lies outside the billing period")


def _partition(readings, grid: SlotGrid, known: bool) -> tuple[SlotUsageMatrix, SlotGrid]:
    """The one loop of ``slot_partition`` and ``slot_partition_from_earliest``.

    Time counts in integer microseconds, the resolution of ``datetime``.
    A slot lasts ``num/den`` microseconds, so a point reading at offset
    ``t`` lands in slot ``t * den // num``, and interval offsets scaled by
    ``den`` meet slot edges ``k * num`` on integers. Shares are added by
    ``grouping.add_share``, and columns built by ``grouping.quantize_cells``.
    Energies are integer pairs, from a stream not always in lowest terms;
    ``quantize_cells`` reduces each column whatever the terms of its cells.

    Without a *known* origin, time counts from the first datetime and slot
    ``k`` lands in cell ``k % slot_count``; a reading past the period from
    the earliest start so far is not added, so no interval spans more than
    a period. At the end each row is turned to start at that start's day.
    """
    fields = getattr(readings, "fields", None)
    if fields is None:
        fields = ((r.consumer, r.start, r.energy.as_integer_ratio(), r.end) for r in readings)
    slot_count = grid.slot_count
    origin = grid.period_start
    period = (grid.period_end - origin) // _MICROSECOND
    slot_length = grid.slot_seconds * 10**6
    num, den = slot_length.numerator, slot_length.denominator
    # consumer -> the numerator, denominator and flag of each of its cells
    rows: dict[str, tuple[list[int], list[int], bytearray]] = {}
    # consumer -> its interval spans; a span that starts where the last
    # one ended extends it, which keeps a contiguous run as one span
    intervals: dict[str, list[tuple[int, int]]] = {}
    # (day from the origin, reading) of each reading whose last instant is
    # on a later day than every earlier reading's, kept while the latest is
    # inside the period from the earliest start so far. The first reading
    # past the final period is among them, and there are at most
    # period_days + 1 of them.
    late: list[tuple[int, tuple]] = []
    latest = -1  # the day of the last of them
    first = 0 if known else math.inf  # the earliest start's offset
    crossed = 0  # the slot edges inside the intervals split so far

    for consumer, start, (energy_num, energy_den), stop in fields:
        cells = rows.get(consumer)
        if cells is None:
            if (len(rows) + 1) * slot_count > MAX_CELLS:
                raise SimulationError(
                    f"{len(rows) + 1} consumers on {slot_count} slots would need "
                    f"more than {MAX_CELLS} cells"
                )
            cells = rows[consumer] = ([0] * slot_count, [1] * slot_count, bytearray(slot_count))
        nums, dens, flags = cells
        # The same integer as (start - origin) // _MICROSECOND, at less cost
        delta = start - origin
        offset = last = (delta.days * 86400 + delta.seconds) * 10**6 + delta.microseconds
        if stop is not None:
            delta = stop - origin
            end = (delta.days * 86400 + delta.seconds) * 10**6 + delta.microseconds
            last = end - 1
        if known:
            if offset < 0 or last >= period:
                raise _outside(consumer, start, stop, grid)
        else:
            if offset < first:
                first = offset
            day = last // _DAY
            beyond = first // _DAY + grid.period_days  # the first day past the period
            if day > latest and latest < beyond:
                latest = day
                late.append((day, (consumer, start, stop)))
            if day >= beyond:
                continue
        slot = offset * den // num
        if stop is not None:
            spans = intervals.setdefault(consumer, [])
            if spans and spans[-1][1] == offset:
                spans[-1] = (spans[-1][0], end)
            else:
                spans.append((offset, end))
            low, high = offset * den, end * den
            if high > (slot + 1) * num:
                # Intervals that neither overlap nor leave the period cross
                # each of a consumer's slot edges at most once. Past that
                # bound the trace will be refused at the end, so the rest
                # are only recorded as spans, not split.
                crossed += (high - 1) // num - slot
                if crossed > len(rows) * slot_count:
                    continue
                # One piece per slot overlapped, overlap/span of the energy
                # in lowest terms. A reading inside one slot stays whole
                # below, which keeps the cell's lcm small.
                span = high - low
                for slot in range(slot, (high - 1) // num + 1):
                    overlap = min(high, (slot + 1) * num) - max(low, slot * num)
                    common = math.gcd(overlap, span)
                    piece_num = energy_num * (overlap // common)
                    cell = slot % slot_count
                    add_share(nums, dens, cell, piece_num, energy_den * (span // common))
                    flags[cell] = 1
                continue
        slot %= slot_count
        add_share(nums, dens, slot, energy_num, energy_den)
        flags[slot] = 1

    if not known:
        if not late:
            raise SimulationError("empty trace: pass --period-start explicitly")
        grid = SlotGrid(grid.slot_hours, grid.period_days, origin + timedelta(days=first // _DAY))
        for day, reading in late:
            if day >= first // _DAY + grid.period_days:
                raise _outside(*reading, grid)
    for consumer, spans in intervals.items():
        spans.sort()
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            if next_start < prev_end:
                raise SimulationError(
                    f"overlapping interval readings for consumer {consumer!r}"
                )

    consumers = tuple(sorted(rows))
    ordered = [rows[consumer] for consumer in consumers]
    columns = ((1, ()),) * slot_count
    if ordered:
        numerators = zip(*(nums for nums, _, _ in ordered))
        denominators = zip(*(dens for _, dens, _ in ordered))
        columns = tuple(map(quantize_cells, numerators, denominators))
    turn = first // _DAY * grid.slots_per_day % slot_count
    columns = columns[turn:] + columns[:turn]
    flag_rows = tuple(bytes(flags[turn:] + flags[:turn]) for _, _, flags in ordered)
    return SlotUsageMatrix(consumers, columns, flag_rows), grid


def demand_metrics(matrix: SlotUsageMatrix) -> DemandMetrics:
    """Aggregate slot loads and the peak-to-average ratio."""
    loads = tuple(Fraction(sum(units), quantum) for quantum, units in matrix.columns)
    peak = max(loads)
    mean = sum(loads, Fraction(0)) / len(loads)
    par = None if mean == 0 else peak / mean
    return DemandMetrics(slot_loads=loads, peak=peak, mean=mean, par=par)


def _row_sums(columns: Iterable[Column]) -> list[Fraction]:
    """Exact row sums of (denominator, integers) columns: usage, prices or
    shares. Columns that share a denominator are added as integers first,
    so a row sum costs one Fraction per distinct denominator."""
    groups: dict[int, list[Sequence[int]]] = {}
    for denominator, values in columns:
        groups.setdefault(denominator, []).append(values)
    dens = list(groups)
    sums = zip(*(map(sum, zip(*group)) for group in groups.values()))
    return [sum(map(Fraction, row, dens), Fraction(0)) for row in sums]


def check_period(schedule: TariffSchedule, period_days: int):
    """Refuse a *schedule* that is not quoted for a grid of *period_days*."""
    days = schedule.base_hours / HOURS_PER_DAY
    if days != period_days:
        raise SimulationError(
            f"schedule is quoted for {echo_value(days)} days but the grid covers {period_days}"
        )


class _Billing:
    """One usage matrix billed under one schedule on one grid.

    Each piece is computed at most once and shared by every scheme that
    reads it: the compiled slot schedule, the stand-alone price column of
    every usage column, and the demand. The price columns come from one
    ``TierTable.prices`` call, so each distinct cell usage is priced once
    per billing run and equal cells share one price. Every total is a row
    sum of columns: usage for the monthly scheme, prices or shares for the
    slotted ones.
    """

    def __init__(self, matrix: SlotUsageMatrix, schedule: TariffSchedule, grid: SlotGrid):
        check_period(schedule, grid.period_days)
        if matrix.slots != grid.slot_count:
            raise SimulationError(
                f"matrix has {matrix.slots} slots but the grid defines {grid.slot_count}"
            )
        self.matrix = matrix
        self.schedule = schedule
        self.grid = grid
        self.table = scale_schedule(schedule, grid.factor).table

    @cached_property
    def prices(self) -> tuple[Column, ...]:
        """Every consumer's stand-alone price in every slot, one column per slot."""
        return tuple(self.table.prices(self.matrix.columns))

    @cached_property
    def demand(self) -> DemandMetrics:
        return demand_metrics(self.matrix)

    def bill_slot(
        self, usage: Column, prices: Column, policy: AllocationPolicy
    ) -> tuple[Column, Fraction]:
        """Collective price of one slot's usage column, allocated by its
        price column.

        Returns the ``(10**MONEY_PLACES, shares)`` column of every
        consumer's share in minor units, and the checked collective price.
        """
        group_num, group_den = price_group(self.table, usage, prices)
        shares, _ = allocate_units(group_num, group_den, prices[1], policy)
        return (10**MONEY_PLACES, shares), Fraction(group_num, group_den)

    def report(
        self, scheme: SchemeKind, policy: AllocationPolicy = AllocationPolicy.EXACT_SUM
    ) -> BillingReport:
        columns: Optional[tuple[Column, ...]] = None
        group_prices: Optional[tuple[Fraction, ...]] = None
        used_policy: Optional[AllocationPolicy] = None
        if scheme is SchemeKind.MONTHLY_INDIVIDUAL:
            # Each consumer's period usage is priced on its own: one quantum
            # for all of them would be the lcm of every cell denominator.
            usages = _row_sums(self.matrix.columns)
            sums = [progressive_price(self.schedule, usage) for usage in usages]
        else:
            if scheme is SchemeKind.SLOTTED_INDIVIDUAL:
                columns = self.prices
            else:
                used_policy = policy
                pairs = zip(self.matrix.columns, self.prices)
                bills = (self.bill_slot(usage, prices, policy) for usage, prices in pairs)
                columns, group_prices = zip(*bills)
            sums = _row_sums(columns)
        totals = dict(zip(self.matrix.consumers, sums))
        billed = {consumer: round_money(total) for consumer, total in totals.items()}
        return BillingReport(
            scheme=scheme,
            currency=self.schedule.currency,
            grid=self.grid,
            consumers=self.matrix.consumers,
            slot_columns=columns,
            consumer_totals=totals,
            billed_totals=billed,
            aggregate_billed=sum(billed.values(), Fraction(0)),
            aggregate_exact=sum(totals.values(), Fraction(0)),
            group_slot_prices=group_prices,
            policy=used_policy,
            demand=self.demand,
            zero_filled=self.matrix.zero_filled,
        )


def run_scheme(
    matrix: SlotUsageMatrix,
    schedule: TariffSchedule,
    grid: SlotGrid,
    scheme: SchemeKind | str,
    policy: AllocationPolicy | str = AllocationPolicy.EXACT_SUM,
) -> BillingReport:
    """Bill the matrix under one scheme.

    The schedule must be quoted for the grid's period. Every collective
    slot price is checked by ``grouping.price_group``.
    """
    scheme = SchemeKind(scheme)
    policy = AllocationPolicy(policy)
    return _Billing(matrix, schedule, grid).report(scheme, policy)


def compare_schemes(
    matrix: SlotUsageMatrix,
    schedule: TariffSchedule,
    grid: SlotGrid,
    policy: AllocationPolicy | str = AllocationPolicy.EXACT_SUM,
) -> SchemeComparison:
    """Run all three schemes and difference their billed totals.

    The schemes share one demand computation and one pricing of every
    slot cell.
    """
    policy = AllocationPolicy(policy)
    billing = _Billing(matrix, schedule, grid)
    monthly = billing.report(SchemeKind.MONTHLY_INDIVIDUAL)
    slotted = billing.report(SchemeKind.SLOTTED_INDIVIDUAL)
    grouped = billing.report(SchemeKind.SLOTTED_GROUP, policy)
    if schedule.is_progressive:
        for consumer in matrix.consumers:
            if slotted.consumer_totals[consumer] < monthly.consumer_totals[consumer]:
                raise InternalCheckError(
                    f"consumer {consumer!r}: slotted total fell below the monthly total"
                )
    return SchemeComparison(
        monthly=monthly,
        slotted_individual=slotted,
        slotted_group=grouped,
        slot_premium=slotted.aggregate_billed - monthly.aggregate_billed,
        group_saving=slotted.aggregate_billed - grouped.aggregate_billed,
    )


def what_if_shift(
    matrix: SlotUsageMatrix,
    schedule: TariffSchedule,
    grid: SlotGrid,
    consumer: str,
    from_slot: int,
    to_slot: int,
    amount: ExactLike,
    policy: AllocationPolicy | str = AllocationPolicy.EXACT_SUM,
) -> ShiftReport:
    """Evaluate one hypothetical shift without touching the input matrix.

    Every slot is billed once, and each slot the shift changes is billed
    again. Shares are summed in minor units, individual prices exactly.
    """
    moved = energy_amount(amount)
    shifted = matrix.with_shift(consumer, from_slot, to_slot, moved)
    policy = AllocationPolicy(policy)
    billing = _Billing(matrix, schedule, grid)
    index = matrix.consumers.index(consumer)

    def figures(usage: Column, prices: Column) -> tuple[int, int, Column]:
        """The consumer's share and the group's shares summed, in minor
        units, and the consumer's stand-alone price as a one-cell column."""
        (_, shares), _ = billing.bill_slot(usage, prices, policy)
        return shares[index], sum(shares), (prices[0], (prices[1][index],))

    def totals(side: list[tuple[int, int, Column]]) -> tuple[int, int, Fraction]:
        shares, group_shares, solo = zip(*side)
        return sum(shares), sum(group_shares), _row_sums(solo)[0]

    before = list(map(figures, matrix.columns, billing.table.prices(matrix.columns)))
    after = before.copy()
    for slot in {from_slot, to_slot}:
        [prices] = billing.table.prices([shifted.columns[slot]])
        after[slot] = figures(shifted.columns[slot], prices)
    allocated_before, group_before, individual_before = totals(before)
    allocated_after, group_after, individual_after = totals(after)

    minor = 10**MONEY_PLACES
    return ShiftReport(
        consumer=consumer,
        from_slot=from_slot,
        to_slot=to_slot,
        amount=moved,
        allocated_before=Fraction(allocated_before, minor),
        allocated_after=Fraction(allocated_after, minor),
        allocated_delta=Fraction(allocated_after - allocated_before, minor),
        individual_before=individual_before,
        individual_after=individual_after,
        individual_delta=individual_after - individual_before,
        group_billed_before=Fraction(group_before, minor),
        group_billed_after=Fraction(group_after, minor),
        group_billed_delta=Fraction(group_after - group_before, minor),
        par_before=billing.demand.par,
        par_after=demand_metrics(shifted).par,
    )
