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
from itertools import repeat
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence

from .amounts import (
    MONEY_PLACES,
    ExactLike,
    echo_value,
    energy_amount,
    round_money,
    scale_value,
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

    The constructor checks every field. ``fileio.iter_trace_csv`` checks
    each row itself and builds its readings, when it is asked for them,
    with ``_checked``, so no field is checked twice.
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

    @classmethod
    def _checked(
        cls, consumer: str, start: datetime, energy: Fraction, end: Optional[datetime]
    ) -> "MeterReading":
        """A reading from fields the caller has already checked.

        The caller guarantees what the constructor would check: a
        non-empty ``str`` consumer id, ``start`` and ``end`` in UTC with
        ``end`` after ``start`` or None, and a non-negative Fraction.
        """
        reading = object.__new__(cls)
        _set_consumer(reading, consumer)
        _set_start(reading, start)
        _set_energy(reading, energy)
        _set_end(reading, end)
        return reading


# The slot setters bypass the frozen __setattr__ and the checks.
_set_consumer = MeterReading.consumer.__set__
_set_start = MeterReading.start.__set__
_set_energy = MeterReading.energy.__set__
_set_end = MeterReading.end.__set__


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
        hours = scale_value(self.slot_hours)
        # slot_factor re-checks the divides-24 rule and the day count.
        slot_factor(hours, self.period_days)
        object.__setattr__(self, "slot_hours", hours)
        object.__setattr__(
            self, "period_start", _require_utc(self.period_start, "period start")
        )
        try:
            self.period_end
        except OverflowError:
            raise ValueError(
                f"a {self.period_days}-day period from "
                f"{self.period_start.isoformat()} ends past the last datetime"
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


@dataclass(frozen=True, init=False)
class SlotUsageMatrix:
    """Per-consumer, per-slot energy grid, stored as integer slot columns.

    Consumers are in sorted id order. ``columns[s]`` is ``(quantum,
    units)``: cell ``(i, s)`` is ``units[i] / quantum`` kWh, and the
    quantum is the lcm of the column's cell denominators in lowest terms.
    ``flags``, if recorded, holds one row of bytes per consumer: 1 where a
    reading reached the cell, 0 where it was zero-filled. ``usage`` and
    ``observed`` are derived from these on first read. The constructor
    checks every id and cell; ``_checked`` builds from checked columns.
    """

    consumers: tuple[str, ...]
    slots: int
    columns: tuple[Column, ...]
    flags: Optional[tuple[bytes, ...]]

    def __init__(
        self,
        consumers: Sequence[str],
        slots: int,
        usage: Sequence[Sequence[ExactLike]],
        observed: Optional[Iterable[tuple[str, int]]] = None,
    ):
        if not isinstance(slots, int) or isinstance(slots, bool) or slots < 1:
            raise SimulationError("matrix needs at least one slot")
        consumers = tuple(consumers)
        for consumer in consumers:
            if not consumer or not isinstance(consumer, str):
                raise SimulationError(f"consumer id must be a non-empty string, got {consumer!r}")
        if list(consumers) != sorted(set(consumers)):
            raise SimulationError("consumer ids must be unique and sorted")
        if len(usage) != len(consumers):
            raise SimulationError("one usage row per consumer required")
        rows = []
        for consumer, row in zip(consumers, usage):
            if len(row) != slots:
                raise SimulationError(
                    f"consumer {consumer!r}: expected {slots} slots, got {len(row)}"
                )
            rows.append([energy_amount(cell) for cell in row])
        columns = tuple(map(quantize, zip(*rows))) if rows else ((1, ()),) * slots
        flags = None
        if observed is not None:
            cells = frozenset(observed)
            flags = tuple(bytes((c, s) in cells for s in range(slots)) for c in consumers)
            if sum(row.count(1) for row in flags) != len(cells):
                raise SimulationError(
                    "every observed cell must be a (consumer, slot) of the matrix"
                )
        self.__dict__.update(consumers=consumers, slots=slots, columns=columns, flags=flags)

    @classmethod
    def from_rows(
        cls, rows: Mapping[str, Sequence[ExactLike]], slots: Optional[int] = None
    ) -> "SlotUsageMatrix":
        """Build from a consumer->usages mapping, sorting consumers by id."""
        consumers = tuple(sorted(rows))
        if slots is None:
            if not consumers:
                raise SimulationError("empty matrix needs an explicit slot count")
            slots = len(rows[consumers[0]])
        return cls(consumers=consumers, slots=slots, usage=[rows[c] for c in consumers])

    @classmethod
    def _checked(
        cls, consumers: tuple[str, ...], slots: int, columns: tuple, flags: Optional[tuple]
    ) -> "SlotUsageMatrix":
        """A matrix from fields the caller has already checked: at least one
        slot, unique non-empty consumer ids in sorted order, one column per
        slot in lowest terms, and one row of flags per consumer or None."""
        matrix = object.__new__(cls)
        matrix.__dict__.update(consumers=consumers, slots=slots, columns=columns, flags=flags)
        return matrix

    @cached_property
    def usage(self) -> tuple[tuple[Fraction, ...], ...]:
        """Every consumer's cells as Fractions, one row per consumer."""
        columns = (map(Fraction, units, repeat(quantum)) for quantum, units in self.columns)
        return tuple(zip(*columns))

    @cached_property
    def observed(self) -> Optional[frozenset[tuple[str, int]]]:
        """The cells that received at least one reading, if recorded."""
        if self.flags is None:
            return None
        rows = zip(self.consumers, self.flags)
        return frozenset((c, slot) for c, row in rows for slot, flag in enumerate(row) if flag)

    @property
    def zero_filled(self) -> Optional[int]:
        """How many cells no reading reached, if observation is recorded."""
        if self.flags is None:
            return None
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
        return SlotUsageMatrix._checked(self.consumers, self.slots, tuple(columns), self.flags)


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
    units. ``slot_charges`` is derived from them as Fractions on first
    read. Both are None for the monthly scheme, which has no per-slot
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
    zero_filled: Optional[int]

    @cached_property
    def slot_charges(self) -> Optional[dict[str, tuple[Fraction, ...]]]:
        """Every consumer's exact charge in every slot."""
        if self.slot_columns is None:
            return None
        columns = (map(Fraction, values, repeat(den)) for den, values in self.slot_columns)
        return dict(zip(self.consumers, zip(*columns)))


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
    per_consumer_premium: dict[str, Fraction]
    per_consumer_saving: dict[str, Fraction]
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

    *readings* may be any iterable of MeterReadings, a stream included.
    A stream from ``fileio.iter_trace_csv`` is read through its
    ``fields``, the checked ``(consumer, start, energy, end)`` of each
    reading, so no MeterReading is built; from any other iterable the
    same four fields are read off each reading. Either way one loop reads
    them once and keeps no reading: each one is added straight into its
    consumer's per-slot cell sums. Consumers get rows in the order they
    first appear and are sorted by id at the end. A reading outside the
    period is refused as it is read, and so is the first reading of a
    consumer whose row would take the partition past MAX_CELLS cells
    (consumers times slots); overlapping intervals are found once every
    reading is read.

    Time is counted in integer microseconds from the period start, the
    resolution of ``datetime``. A slot lasts ``num/den`` microseconds, so
    a point reading at offset ``t`` lands in slot ``t * den // num``, and
    interval offsets scaled by ``den`` meet slot edges ``k * num`` on
    integers. A point reading, or each piece of an interval, is an
    integer share of its cell, added by ``grouping.add_share`` over the
    lcm of the cell's own denominators. Each slot's column is built from
    its cells by ``grouping.quantize_cells``, with one lcm and one gcd
    per column.
    """
    fields = getattr(readings, "fields", None)
    if fields is None:
        fields = map(attrgetter("consumer", "start", "energy", "end"), readings)
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

    for consumer, start, energy, stop in fields:
        cells = rows.get(consumer)
        if cells is None:
            if (len(rows) + 1) * slot_count > MAX_CELLS:
                raise SimulationError(
                    f"{len(rows) + 1} consumers on {slot_count} slots would need "
                    f"more than {MAX_CELLS} cells"
                )
            cells = rows[consumer] = ([0] * slot_count, [1] * slot_count, bytearray(slot_count))
        nums, dens, flags = cells
        energy_num, energy_den = energy.as_integer_ratio()
        # The same integer as (start - origin) // _MICROSECOND, at less cost
        delta = start - origin
        offset = (delta.days * 86400 + delta.seconds) * 10**6 + delta.microseconds
        if offset < 0 or offset >= period:
            raise SimulationError(
                f"reading for {consumer!r} at {start.isoformat()} "
                "lies outside the billing period"
            )
        slot = offset * den // num
        if stop is not None:
            delta = stop - origin
            end = (delta.days * 86400 + delta.seconds) * 10**6 + delta.microseconds
            if end > period:
                raise SimulationError(
                    f"reading for {consumer!r} ending {stop.isoformat()} "
                    "lies outside the billing period"
                )
            spans = intervals.setdefault(consumer, [])
            if spans and spans[-1][1] == offset:
                spans[-1] = (spans[-1][0], end)
            else:
                spans.append((offset, end))
            low, high = offset * den, end * den
            if high > (slot + 1) * num:
                # One piece per slot overlapped, overlap/span of the energy
                # in lowest terms. A reading inside one slot stays whole
                # below, which keeps the cell's lcm small.
                span = high - low
                for slot in range(slot, (high - 1) // num + 1):
                    overlap = min(high, (slot + 1) * num) - max(low, slot * num)
                    common = math.gcd(overlap, span)
                    piece_num = energy_num * (overlap // common)
                    add_share(nums, dens, slot, piece_num, energy_den * (span // common))
                    flags[slot] = 1
                continue
        add_share(nums, dens, slot, energy_num, energy_den)
        flags[slot] = 1

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
    flag_rows = tuple(bytes(flags) for _, _, flags in ordered)
    return SlotUsageMatrix._checked(consumers, slot_count, columns, flag_rows)


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


def _check_grid(matrix: SlotUsageMatrix, schedule: TariffSchedule, grid: SlotGrid):
    if schedule.base_hours != HOURS_PER_DAY * grid.period_days:
        raise SimulationError(
            f"schedule is quoted for {echo_value(schedule.base_hours)} hours but "
            f"the grid covers {HOURS_PER_DAY * grid.period_days}"
        )
    if matrix.slots != grid.slot_count:
        raise SimulationError(
            f"matrix has {matrix.slots} slots but the grid defines {grid.slot_count}"
        )


class _Billing:
    """One usage matrix billed under one schedule on one grid.

    Each piece is computed at most once and shared by every scheme that
    reads it: the compiled slot schedule, the stand-alone price column of
    every usage column, and the demand. Every total is a row sum of
    columns: usage for the monthly scheme, prices or shares for the
    slotted ones.
    """

    def __init__(self, matrix: SlotUsageMatrix, schedule: TariffSchedule, grid: SlotGrid):
        _check_grid(matrix, schedule, grid)
        self.matrix = matrix
        self.schedule = schedule
        self.grid = grid
        self.progressive = schedule.is_progressive
        self.table = scale_schedule(schedule, grid.factor).table

    @cached_property
    def prices(self) -> tuple[Column, ...]:
        """Every consumer's stand-alone price in every slot, one column per slot."""
        return tuple(map(self.table.prices, self.matrix.columns))

    @cached_property
    def demand(self) -> DemandMetrics:
        return demand_metrics(self.matrix)

    def bill_slot(
        self, slot: int, usage: Column, prices: Column, policy: AllocationPolicy
    ) -> tuple[Column, Fraction]:
        """Collective price of one slot's usage column, allocated by its
        price column.

        Returns the ``(10**MONEY_PLACES, shares)`` column of every
        consumer's share in minor units, and the collective price. For a
        progressive schedule the collective price is checked against the
        sum of the individual prices.
        """
        denominator, numerators = prices
        group_num, group_den = price_group(self.table, usage, len(self.matrix.consumers))
        if self.progressive and group_num * denominator > sum(numerators) * group_den:
            raise InternalCheckError(
                f"slot {slot}: collective price {Fraction(group_num, group_den)} "
                "exceeds the sum of individual prices"
            )
        shares, _ = allocate_units(group_num, group_den, numerators, policy)
        return (10**MONEY_PLACES, shares), Fraction(group_num, group_den)

    def allocated(
        self, policy: AllocationPolicy
    ) -> tuple[tuple[Column, ...], tuple[Fraction, ...]]:
        """Every slot's share column and collective price, from bill_slot."""
        slots = enumerate(zip(self.matrix.columns, self.prices))
        shares, prices = zip(*(self.bill_slot(slot, *pair, policy) for slot, pair in slots))
        return shares, prices

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
                columns, group_prices = self.allocated(policy)
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

    The schedule must be quoted for the grid's period. For the group
    scheme the collective slot price is checked against the sum of
    individual prices (it can never exceed it for a progressive
    schedule); a violation raises InternalCheckError since it would mean
    the engine itself is wrong.
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
    premium = {
        c: slotted.billed_totals[c] - monthly.billed_totals[c]
        for c in matrix.consumers
    }
    saving = {
        c: slotted.billed_totals[c] - grouped.billed_totals[c]
        for c in matrix.consumers
    }
    return SchemeComparison(
        monthly=monthly,
        slotted_individual=slotted,
        slotted_group=grouped,
        per_consumer_premium=premium,
        per_consumer_saving=saving,
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

    The input matrix is billed once. A shift changes only the columns of
    its two slots, so only those columns of the shifted matrix are
    priced and allocated again, and every billed "after" figure is the
    "before" figure plus the change on them: allocated shares in integer
    minor units, individual prices as exact rationals.
    """
    moved = energy_amount(amount)
    shifted = matrix.with_shift(consumer, from_slot, to_slot, moved)
    policy = AllocationPolicy(policy)
    billing = _Billing(matrix, schedule, grid)
    shares, _ = billing.allocated(policy)
    index = matrix.consumers.index(consumer)

    def solo(prices: Column) -> Fraction:
        denominator, numerators = prices
        return Fraction(numerators[index], denominator)

    allocated_before = sum(units[index] for _, units in shares)
    group_before = sum(sum(units) for _, units in shares)
    (individual_before,) = _row_sums((den, (nums[index],)) for den, nums in billing.prices)
    allocated_after, group_after = allocated_before, group_before
    individual_after = individual_before
    for slot in sorted({from_slot, to_slot}):
        usage = shifted.columns[slot]
        prices = billing.table.prices(usage)
        (_, after), _ = billing.bill_slot(slot, usage, prices, policy)
        _, before = shares[slot]
        allocated_after += after[index] - before[index]
        group_after += sum(after) - sum(before)
        individual_after += solo(prices) - solo(billing.prices[slot])

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
