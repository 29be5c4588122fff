import itertools
import json
import math
import random
import re
import tracemalloc
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progtariff import (
    MONEY_PLACES,
    InternalCheckError,
    MeterReading,
    SchemeKind,
    SimulationError,
    SlotGrid,
    SlotUsageMatrix,
    compare_schemes,
    demand_metrics,
    exact_str,
    format_money,
    group_slot_price,
    parse_trace_csv,
    progressive_price,
    proportional_allocation,
    run_scheme,
    scale_schedule,
    simulate,
    slot_partition,
    slot_partition_from_earliest,
    what_if_shift,
)
from progtariff.fileio import report_to_dict, to_json
from progtariff.grouping import price_group, quantize

from conftest import FIXTURES, KEPCO_TIERS, make_schedule
from oracles import (
    desk_demand,
    desk_partition,
    desk_schemes,
    desk_shift,
    usage_rows,
    widened_group_price,
)

UTC = timezone.utc


def ts(day=1, hour=0, minute=0):
    return datetime(2025, 1, day, hour, minute, tzinfo=UTC)


@pytest.fixture
def month_matrix():
    """Two consumers, same pattern every day: c1 0.6 kWh and c2 1.2 kWh in
    each of the first two slots. Pooled morning load crosses the widened
    first tier; c2 alone crosses the slot first tier."""
    day_c1 = [Fraction(3, 5), Fraction(3, 5), Fraction(0), Fraction(0)]
    day_c2 = [Fraction(6, 5), Fraction(6, 5), Fraction(0), Fraction(0)]
    return SlotUsageMatrix.from_rows(
        {"c1": day_c1 * 30, "c2": day_c2 * 30}
    )


# ----------------------------------------------------------------------
# slot_partition
# ----------------------------------------------------------------------


def test_grid_admits_one_minute_slots_for_a_leap_year():
    from progtariff.simulate import MAX_SLOTS

    assert SlotGrid(Fraction(1, 60), 366, ts()).slot_count == 527040 <= MAX_SLOTS
    with pytest.raises(ValueError, match=f"more than {MAX_SLOTS} slots"):
        SlotGrid(Fraction(24, MAX_SLOTS + 1), 1, ts())
    assert SlotGrid(Fraction(24, MAX_SLOTS), 1, ts()).slot_count == MAX_SLOTS


def test_grid_refuses_a_zero_slot_length_by_its_name():
    with pytest.raises(ValueError) as caught:
        SlotGrid(0, 30, ts())
    assert str(caught.value) == "slot_hours must be > 0, got 0"


def test_grid_refuses_a_period_past_the_last_datetime():
    last = datetime(9999, 12, 1, tzinfo=UTC)
    assert SlotGrid(Fraction(6), 30, last).period_end == datetime(9999, 12, 31, tzinfo=UTC)
    with pytest.raises(ValueError, match="ends past the last datetime"):
        SlotGrid(Fraction(6), 31, last)


def test_partition_single_point_reading(month_grid):
    matrix = slot_partition(
        [MeterReading("a", ts(), Fraction(5, 6))], month_grid
    )
    assert usage_rows(matrix)[0][0] == Fraction(5, 6)
    assert sum(map(sum, usage_rows(matrix)), Fraction(0)) == Fraction(5, 6)
    assert matrix.observed == {("a", 0)}
    # A UTC stamp is kept as it is, an offset stamp is converted to UTC,
    # and a naive stamp is refused.
    stamp = ts(hour=7)
    assert MeterReading("a", stamp, 1).start is stamp
    tokyo = datetime(2025, 1, 1, 16, tzinfo=timezone(timedelta(hours=9)))
    reading = MeterReading("a", tokyo, 1, end=tokyo + timedelta(hours=1))
    assert (reading.start, reading.end) == (stamp, ts(hour=8))
    assert reading.start.tzinfo is UTC and reading.end.tzinfo is UTC
    naive = datetime(2025, 1, 1, 7)
    with pytest.raises(ValueError, match="reading start must be timezone-aware"):
        MeterReading("a", naive, 1)
    with pytest.raises(ValueError, match="reading end must be timezone-aware"):
        MeterReading("a", stamp, 1, end=naive)
    with pytest.raises(ValueError, match="^consumer id must be a non-empty string$"):
        MeterReading("", stamp, 1)


def test_partition_point_reading_lands_in_its_slot(month_grid):
    matrix = slot_partition([MeterReading("a", ts(day=2, hour=6), 2)], month_grid)
    assert usage_rows(matrix)[0][5] == 2  # day 2, second slot of the day


def test_partition_month_trace_repeats_daily_pattern(month_grid, month_matrix):
    readings = parse_trace_csv(FIXTURES / "two_consumer_month.csv")
    matrix = slot_partition(readings, month_grid)
    assert matrix.consumers == ("c1", "c2")
    assert usage_rows(matrix) == usage_rows(month_matrix)
    assert sum(map(sum, usage_rows(matrix)), Fraction(0)) == 30 * Fraction(18, 5)
    assert len(matrix.observed) == 120


def test_partition_splits_interval_reading_by_overlap(month_grid):
    # 09:00 to 15:00 straddles the 06:00..12:00 and 12:00..18:00 slots
    # evenly, so the energy splits in half.
    reading = MeterReading("a", ts(hour=9), Fraction(9, 10), end=ts(hour=15))
    matrix = slot_partition([reading], month_grid)
    assert usage_rows(matrix)[0][1] == Fraction(9, 20)
    assert usage_rows(matrix)[0][2] == Fraction(9, 20)


def test_partition_uneven_interval_split(month_grid):
    # 05:00 to 08:00: one third before the slot boundary, two thirds after.
    reading = MeterReading("a", ts(hour=5), Fraction(3, 2), end=ts(hour=8))
    matrix = slot_partition([reading], month_grid)
    assert usage_rows(matrix)[0][0] == Fraction(1, 2)
    assert usage_rows(matrix)[0][1] == Fraction(1)


def test_partition_rejects_reading_before_period(month_grid):
    with pytest.raises(SimulationError, match="outside the billing period"):
        slot_partition(
            [MeterReading("a", datetime(2024, 12, 31, 23, tzinfo=UTC), 1)], month_grid
        )


def test_partition_rejects_reading_past_period_end(month_grid):
    with pytest.raises(SimulationError, match="outside the billing period"):
        slot_partition([MeterReading("a", ts(day=31), 1)], month_grid)
    with pytest.raises(SimulationError, match="outside the billing period"):
        slot_partition(
            [MeterReading("a", ts(day=30, hour=23), 1, end=ts(day=31, hour=1))],
            month_grid,
        )


def test_partition_cell_cap_counts_consumers_times_slots(month_grid, monkeypatch):
    monkeypatch.setattr(simulate, "MAX_CELLS", 2 * month_grid.slot_count)
    readings = [MeterReading("a", ts(), 1), MeterReading("b", ts(day=2), 1)]
    assert sum(map(sum, usage_rows(slot_partition(readings, month_grid))), Fraction(0)) == 2
    readings.append(MeterReading("c", ts(day=3), 1))
    with pytest.raises(SimulationError, match="^3 consumers on 120 slots would need more than 240 cells$"):
        slot_partition(readings, month_grid)


def test_streamed_partition_stops_at_the_first_consumer_past_the_cell_cap(
    month_grid, monkeypatch
):
    monkeypatch.setattr(simulate, "MAX_CELLS", 2 * month_grid.slot_count)
    read = []

    def readings():
        for day, consumer in enumerate("babacd", start=1):
            read.append(consumer)
            yield MeterReading(consumer, ts(day=day), 1)

    stream = readings()
    with pytest.raises(
        SimulationError, match="^3 consumers on 120 slots would need more than 240 cells$"
    ):
        slot_partition(stream, month_grid)
    assert read == list("babac")
    assert next(stream).consumer == "d"


def test_partition_finds_overlaps_with_a_run_of_touching_intervals(month_grid):
    # The first two intervals touch and are kept as one span; the third
    # overlaps the second, in whatever order the three are read.
    run = [
        MeterReading("a", ts(hour=1), 1, end=ts(hour=2)),
        MeterReading("a", ts(hour=2), 1, end=ts(hour=3)),
    ]
    late = MeterReading("a", ts(hour=2, minute=30), 1, end=ts(hour=4))
    for readings in itertools.permutations(run + [late]):
        with pytest.raises(SimulationError, match="^overlapping interval readings for consumer 'a'$"):
            slot_partition(iter(readings), month_grid)
    touching = run + [MeterReading("a", ts(hour=3), 1, end=ts(hour=4))]
    for readings in itertools.permutations(touching):
        assert usage_rows(slot_partition(iter(readings), month_grid))[0][:1] == (3,)


def test_overlapping_intervals_are_refused_without_splitting_them_all(monkeypatch):
    # 100 whole-period intervals of one consumer on 720 one-hour slots.
    # Intervals without overlaps cross each slot edge at most once, so
    # after the first the trace is certain to be refused, and the rest are
    # not split; splitting every one adds 72,000 shares.
    shares = []
    add_share = simulate.add_share
    monkeypatch.setattr(simulate, "add_share", lambda *a: shares.append(a) or add_share(*a))
    readings = [MeterReading("a", ts(), 1, end=ts() + timedelta(days=30))] * 100
    grid = SlotGrid(Fraction(1), 30, ts())
    for partition in (
        lambda: slot_partition(iter(readings), grid),
        lambda: slot_partition_from_earliest(iter(readings), 1, 30),
    ):
        shares.clear()
        with pytest.raises(SimulationError, match="^overlapping interval readings for consumer 'a'$"):
            partition()
        assert len(shares) < 1440


def test_partition_rejects_overlapping_intervals(month_grid):
    readings = [
        MeterReading("a", ts(hour=1), 1, end=ts(hour=4)),
        MeterReading("a", ts(hour=3), 1, end=ts(hour=5)),
    ]
    with pytest.raises(SimulationError, match="overlapping"):
        slot_partition(readings, month_grid)
    # Same spans on different consumers are fine.
    readings[1] = MeterReading("b", ts(hour=3), 1, end=ts(hour=5))
    matrix = slot_partition(readings, month_grid)
    assert sum(map(sum, usage_rows(matrix)), Fraction(0)) == 2


def test_partition_conserves_energy(month_grid, rng):
    readings = []
    total = Fraction(0)
    for index in range(100):
        consumer = f"c{rng.randint(0, 4)}"
        start_hour = rng.randint(0, 719)
        energy = Fraction(rng.randint(0, 50), rng.randint(1, 20))
        span = rng.randint(0, 5)
        start = datetime(2025, 1, 1, tzinfo=UTC).replace(hour=0) + (
            ts(hour=1) - ts(hour=0)
        ) * start_hour
        end = None
        if span and start_hour + span <= 720:
            end = start + (ts(hour=1) - ts(hour=0)) * span
        readings.append(MeterReading(consumer, start, energy, end=end))
        total += energy
    # Interval overlap between two same-consumer readings is possible in
    # this random soup; keep only point readings for half the runs.
    point_only = [r for r in readings if r.end is None]
    matrix = slot_partition(point_only, month_grid)
    assert sum(map(sum, usage_rows(matrix)), Fraction(0)) == sum((r.energy for r in point_only), Fraction(0))


def test_matrix_checks_only_rows_that_are_not_plain_fractions():
    exact_row = (Fraction(1, 3), Fraction(0))
    matrix = SlotUsageMatrix.from_rows({"a": exact_row, "b": [2, "0.5"]})
    assert usage_rows(matrix)[0] == exact_row
    assert usage_rows(matrix)[1] == (Fraction(2), Fraction(1, 2))
    with pytest.raises(ValueError, match=">= 0"):
        SlotUsageMatrix.from_rows({"a": (Fraction(1), Fraction(-1, 3))})
    with pytest.raises(TypeError, match="float"):
        SlotUsageMatrix.from_rows({"a": (0.5,)})


@pytest.mark.parametrize("consumer", ["", 1, None])
def test_matrix_refuses_a_consumer_id_that_is_not_a_non_empty_string(consumer):
    message = f"consumer id must be a non-empty string, got {consumer!r}"
    with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
        SlotUsageMatrix.from_rows({consumer: (Fraction(1),)})


UNITS = "every column needs one unit per consumer"
FLAGS = "every consumer needs one row of flags, one per slot"
TUPLES = "consumers, columns and flags must be tuples"
COLUMN = "every column must be a tuple of a quantum and a units tuple"
BYTES = "every row of flags must be bytes"


@pytest.mark.parametrize(
    "consumers, columns, flags, message",
    [
        (("a",), (), (b"",), "matrix needs at least one slot"),
        (("b", "a"), ((1, (1, 1)),), (b"\1", b"\1"), "consumer ids must be unique and sorted"),
        (("a", "a"), ((1, (1, 1)),), (b"\1", b"\1"), "consumer ids must be unique and sorted"),
        (("a", "b"), ((1, (1,)),), (b"\1", b"\1"), UNITS),
        (("a",), ((1, (1,)), (1, (1, 2))), (b"\1\1",), UNITS),
        ((), ((1, (1,)),), (), UNITS),
        (("a", "b"), ((1, (1, 1)),), (b"\1",), FLAGS),
        (("a",), ((1, (1,)),), (b"\1", b"\1"), FLAGS),
        (("a", "b"), ((1, (1, 1)), (1, (0, 0))), (b"\1\1", b"\1"), FLAGS),
        (("a",), ((1, (1,)),), (b"\1\0",), FLAGS),
        # A list or bytearray anywhere would make the matrix unhashable,
        # unequal to its tuple twin, or mutable after the checks.
        (["a"], ((1, (1,)),), (b"\1",), TUPLES),
        (("a",), [(1, (1,))], (b"\1",), TUPLES),
        (("a",), ((1, (1,)),), [b"\1"], TUPLES),
        (("a",), ([1, (1,)],), (b"\1",), COLUMN),
        (("a",), ((1, [1]),), (b"\1",), COLUMN),
        (("a",), ((1,),), (b"\1",), COLUMN),
        (("a",), ((1, (1,), 2),), (b"\1",), COLUMN),
        (("a",), ((1, (1,)),), (bytearray(b"\1"),), BYTES),
    ],
)
def test_matrix_refuses_a_bad_shape(consumers, columns, flags, message):
    with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
        SlotUsageMatrix(consumers, columns, flags)


@pytest.mark.parametrize(
    "rows, slots, message",
    [
        ({"a": ()}, None, "matrix needs at least one slot"),
        ({}, 0, "matrix needs at least one slot"),
        ({"a": (1,)}, 2, "consumer 'a': expected 2 slots, got 1"),
        ({"a": (1,), "b": (1, 2)}, None, "consumer 'b': expected 1 slots, got 2"),
    ],
)
def test_matrix_from_rows_refuses_a_bad_shape(rows, slots, message):
    with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
        SlotUsageMatrix.from_rows(rows, slots)


def test_an_empty_matrix_needs_a_slot_count():
    with pytest.raises(SimulationError, match="^empty matrix needs an explicit slot count$"):
        SlotUsageMatrix.from_rows({})
    assert SlotUsageMatrix.from_rows({}, slots=2).slots == 2


def test_matrix_attributes_cannot_be_assigned(month_matrix):
    for name in ("consumers", "slots", "columns", "flags", "observed"):
        with pytest.raises(AttributeError):
            setattr(month_matrix, name, None)
    assert month_matrix.slots == 120
    assert usage_rows(month_matrix)[0][0] == Fraction(3, 5)


PARTITION_SLOT_HOURS = [
    Fraction(1, 2), Fraction(1), Fraction(6), Fraction(8), Fraction(24, 7), Fraction(24),
]
# UTC offsets in minutes, including half- and three-quarter-hour zones.
PARTITION_OFFSETS = [0, 60, 330, 345, 540, -210, -300, -570]


def _zone(rng):
    return timezone(timedelta(minutes=rng.choice(PARTITION_OFFSETS)))


def _partition_energy(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(0, 99_999), 1000)
    return Fraction(rng.randint(0, 500), rng.choice([1, 3, 7, 12, 97]))


def _partition_offset(rng, period_us, slot_us):
    """A microsecond offset in [0, period_us), often on or next to a slot edge."""
    if rng.random() < 0.4:
        edge = math.floor(rng.randrange(int(period_us / slot_us) + 1) * slot_us)
        return min(max(edge + rng.choice([-1, 0, 0, 1]), 0), period_us - 1)
    return rng.randrange(period_us)


def _random_partition_case(rng):
    """A grid and a shuffled, valid mix of point and interval readings."""
    hours = rng.choice(PARTITION_SLOT_HOURS)
    days = rng.randint(1, 31)
    start = datetime(
        2025, rng.randint(1, 12), rng.randint(1, 28), rng.randrange(24),
        rng.randrange(60), rng.randrange(60),
        rng.choice([0, rng.randrange(10**6)]), tzinfo=_zone(rng),
    )
    grid = SlotGrid(hours, days, start)
    period_us = days * 86_400 * 10**6
    slot_us = hours * 3600 * 10**6
    origin = grid.period_start

    def stamp(offset_us):
        return (origin + timedelta(microseconds=offset_us)).astimezone(_zone(rng))

    readings = []
    for consumer in rng.sample(["a", "b", "c", "d"], rng.randint(1, 4)):
        # Disjoint intervals between sorted cut points; neighbours may touch.
        cuts = sorted(
            _partition_offset(rng, period_us, slot_us) for _ in range(2 * rng.randint(0, 4))
        )
        if cuts and rng.random() < 0.3:
            cuts[-1] = period_us  # an interval ending exactly at the period end
        for low, high in zip(cuts[::2], cuts[1::2]):
            if high > low:
                readings.append(
                    MeterReading(consumer, stamp(low), _partition_energy(rng), end=stamp(high))
                )
        for _ in range(rng.randint(0, 5)):
            offset = _partition_offset(rng, period_us, slot_us)
            for _ in range(rng.choice([1, 1, 2, 3])):  # several readings in one cell
                readings.append(MeterReading(consumer, stamp(offset), _partition_energy(rng)))
    rng.shuffle(readings)
    return grid, readings, period_us, stamp


def _partition_error(readings, grid):
    """The message slot_partition and the oracle raise, as a pair."""
    with pytest.raises(SimulationError) as engine:
        slot_partition(readings, grid)
    with pytest.raises(ValueError) as oracle:
        desk_partition(readings, grid)
    return str(engine.value), str(oracle.value)


def test_partition_matches_fraction_seconds_oracle():
    rng = random.Random(20251018)
    for _ in range(400):
        grid, readings, _, _ = _random_partition_case(rng)
        matrix = slot_partition(readings, grid)
        consumers, usage, observed = desk_partition(readings, grid)
        assert matrix.consumers == consumers
        assert usage_rows(matrix) == usage
        assert matrix.observed == observed
        # from_rows builds the same columns from Fraction rows.
        rows = dict(zip(consumers, usage))
        assert SlotUsageMatrix.from_rows(rows, grid.slot_count).columns == matrix.columns


def test_partition_errors_match_fraction_seconds_oracle():
    rng = random.Random(20251019)
    for index in range(120):
        grid, readings, period_us, stamp = _random_partition_case(rng)
        kind = index % 4
        if kind == 0:  # a point reading before the period start
            bad = MeterReading("z", stamp(-rng.choice([1, rng.randint(1, 10**9)])), 1)
        elif kind == 1:  # a point reading at or after the period end
            bad = MeterReading("z", stamp(period_us + rng.choice([0, 1, 10**9])), 1)
        elif kind == 2:  # an interval that ends after the period end
            bad = MeterReading(
                "z", stamp(period_us - rng.randint(1, 10**9)), 1,
                end=stamp(period_us + rng.choice([1, rng.randint(1, 10**9)])),
            )
        else:  # two intervals of one consumer that overlap
            low = rng.randrange(period_us - 2)
            high = rng.randint(low + 2, period_us)
            middle = rng.randint(low + 1, high - 1)
            readings.append(MeterReading("z", stamp(low), 1, end=stamp(middle + 1)))
            bad = MeterReading("z", stamp(middle), 1, end=stamp(high))
        readings.insert(rng.randint(0, len(readings)), bad)
        engine, oracle = _partition_error(readings, grid)
        assert engine == oracle
        assert ("overlapping" in engine) == (kind == 3)


def _midnight(stamp):
    return stamp.replace(hour=0, minute=0, second=0, microsecond=0)


def test_partition_from_earliest_matches_oracle_from_earliest_midnight():
    # Without a period start the partition is the oracle's on the grid from
    # midnight UTC of the earliest reading, or fails with its first fault.
    # The cases' grids start off midnight, so their last hours often lie
    # past that period; points before and after it and intervals ending
    # past it are mixed in too.
    rng = random.Random(20261019)
    day_us = 86_400 * 10**6
    outcomes = []
    for _ in range(600):
        grid, readings, period_us, stamp = _random_partition_case(rng)
        for _ in range(rng.choice([0, 0, 1, 2])):
            kind = rng.randrange(3)
            if kind == 0:
                extra = MeterReading("z", stamp(-rng.randint(1, 3 * day_us)), 1)
            elif kind == 1:
                extra = MeterReading("y", stamp(period_us + rng.randint(0, 3 * day_us)), 1)
            else:
                low = stamp(period_us - rng.randint(1, day_us))
                extra = MeterReading("x", low, 1, end=stamp(period_us + rng.randint(1, day_us)))
            readings.insert(rng.randint(0, len(readings)), extra)
        if not readings:
            with pytest.raises(SimulationError, match="empty trace"):
                slot_partition_from_earliest(readings, grid.slot_hours, grid.period_days)
            continue
        midnight = _midnight(min(reading.start for reading in readings))
        oracle_grid = SlotGrid(grid.slot_hours, grid.period_days, midnight)
        try:
            expected = desk_partition(readings, oracle_grid)
        except ValueError as fault:
            with pytest.raises(SimulationError) as engine:
                slot_partition_from_earliest(readings, grid.slot_hours, grid.period_days)
            assert str(engine.value) == str(fault)
            outcomes.append("fault")
            continue
        matrix, found = slot_partition_from_earliest(readings, grid.slot_hours, grid.period_days)
        assert found == oracle_grid
        assert (matrix.consumers, usage_rows(matrix), matrix.observed) == expected
        # "later": the first reading lies on a later day than the earliest.
        outcomes.append("later" if midnight < _midnight(readings[0].start) else "first")
    assert min(outcomes.count(kind) for kind in ("fault", "later", "first")) >= 40


@st.composite
def _partition_traces(draw):
    """A small grid and a valid trace of decimal point readings, decimal
    interval readings, or point readings of unrelated ``p/q`` energies."""
    grid = SlotGrid(draw(st.sampled_from(PARTITION_SLOT_HOURS)), draw(st.integers(1, 3)), ts())
    period_us = grid.period_days * 86_400 * 10**6
    kind = draw(st.sampled_from(["point", "interval", "p/q"]))
    denominators = st.integers(1, 999_999) if kind == "p/q" else st.just(1000)
    energies = st.builds(Fraction, st.integers(0, 5_000_000), denominators)

    def stamp(offset_us):
        return grid.period_start + timedelta(microseconds=offset_us)

    readings = []
    for consumer in draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True)):
        if kind == "interval":
            cuts = sorted(draw(st.lists(st.integers(0, period_us), min_size=2, max_size=8, unique=True)))
            for low, high in zip(cuts[::2], cuts[1::2]):
                readings.append(MeterReading(consumer, stamp(low), draw(energies), end=stamp(high)))
        else:
            for offset in draw(st.lists(st.integers(0, period_us - 1), min_size=1, max_size=8)):
                readings.append(MeterReading(consumer, stamp(offset), draw(energies)))
    return grid, readings


@st.composite
def _streamed_partition_traces(draw):
    """A small grid and a valid trace whose consumers first appear out of
    id order. Each consumer has a run of touching interval readings, in
    either order, and several point readings of unrelated ``p/q`` energies
    in one cell."""
    grid = SlotGrid(draw(st.sampled_from(PARTITION_SLOT_HOURS)), draw(st.integers(1, 3)), ts())
    period_us = grid.period_days * 86_400 * 10**6
    energies = st.builds(Fraction, st.integers(0, 5_000_000), st.integers(1, 999_999))

    def stamp(offset_us):
        return grid.period_start + timedelta(microseconds=offset_us)

    readings = []
    for consumer in draw(st.permutations("abcd").filter(lambda ids: list(ids) != sorted(ids))):
        cuts = sorted(set(draw(st.lists(st.integers(0, period_us), max_size=5))))
        run = [
            MeterReading(consumer, stamp(low), draw(energies), end=stamp(high))
            for low, high in zip(cuts, cuts[1:])
        ]
        readings += run[::-1] if draw(st.booleans()) else run
        offset = draw(st.integers(0, period_us - 1))
        for _ in range(draw(st.integers(1, 4))):
            readings.append(MeterReading(consumer, stamp(offset), draw(energies)))
    return grid, readings


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_streamed_partition_traces())
def test_streamed_partition_matches_fraction_seconds_oracle(case):
    grid, readings = case
    matrix = slot_partition(iter(readings), grid)
    consumers, usage, observed = desk_partition(readings, grid)
    assert (matrix.consumers, usage_rows(matrix), matrix.observed) == (consumers, usage, observed)
    rows = dict(zip(consumers, usage))
    assert SlotUsageMatrix.from_rows(rows, grid.slot_count).columns == matrix.columns


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_partition_traces(), st.data())
def test_partition_columns_are_the_oracle_columns_in_lowest_terms(case, data):
    grid, readings = case
    matrix = slot_partition(readings, grid)
    consumers, usage, observed = desk_partition(readings, grid)
    assert matrix.zero_filled == len(consumers) * grid.slot_count - len(observed)
    for slot, (quantum, units) in enumerate(matrix.columns):
        cells = [row[slot] for row in usage]
        assert (quantum, units) == quantize(cells)
        assert quantum == math.lcm(*(cell.denominator for cell in cells))
        assert math.gcd(quantum, *units) == 1

    # A shift rebuilds its two columns and shares every other one.
    slots = st.integers(0, grid.slot_count - 1)
    consumer, from_slot, to_slot = data.draw(st.sampled_from(consumers)), data.draw(slots), data.draw(slots)
    row = consumers.index(consumer)
    amount = usage[row][from_slot] * data.draw(st.builds(Fraction, st.integers(0, 7), st.just(7)))
    shifted = matrix.with_shift(consumer, from_slot, to_slot, amount)
    moved = [list(cells) for cells in usage]
    moved[row][from_slot] -= amount
    moved[row][to_slot] += amount
    for slot, column in enumerate(shifted.columns):
        if slot in (from_slot, to_slot):
            assert column == quantize([cells[slot] for cells in moved])
            assert math.gcd(column[0], *column[1]) == 1
        else:
            assert column is matrix.columns[slot]
    assert shifted.zero_filled == matrix.zero_filled
    assert shifted.observed == matrix.observed == observed


# ----------------------------------------------------------------------
# demand metrics
# ----------------------------------------------------------------------


def test_demand_uniform_load_has_par_one():
    matrix = SlotUsageMatrix.from_rows({"a": [1, 1, 1, 1], "b": [2, 2, 2, 2]})
    metrics = demand_metrics(matrix)
    assert metrics.par == 1
    assert metrics.peak == metrics.mean == 3


def test_demand_single_burst():
    matrix = SlotUsageMatrix.from_rows({"a": [4, 0, 0, 0]})
    metrics = demand_metrics(matrix)
    assert metrics.peak == 4
    assert metrics.mean == 1
    assert metrics.par == 4


def test_demand_all_zero_par_undefined():
    matrix = SlotUsageMatrix.from_rows({"a": [0, 0]})
    assert demand_metrics(matrix).par is None


def test_demand_empty_consumer_set_is_zero_load():
    matrix = SlotUsageMatrix.from_rows({}, slots=4)
    metrics = demand_metrics(matrix)
    assert metrics.slot_loads == (Fraction(0),) * 4
    assert metrics.par is None


def _demand_case(rng, kind):
    """A random matrix with a schedule and grid that fit it."""
    days = rng.randint(1, 3)
    slots = 4 * days
    consumers = 0 if kind == "empty" else rng.randint(1, 12)
    rows = {}
    for i in range(consumers):
        if kind == "decimal":
            row = [Fraction(rng.randint(0, 40000), 1000) for _ in range(slots)]
        elif kind == "p/q":
            # Unrelated denominators put each column on a large quantum.
            row = [Fraction(rng.randint(0, 10**7), rng.randint(1, 10**6 - 1)) for _ in range(slots)]
        else:
            row = [Fraction(0)] * slots
        rows[f"c{i}"] = row
    matrix = SlotUsageMatrix.from_rows(rows, slots)
    grid = SlotGrid(Fraction(6), days, ts())
    return matrix, make_schedule(KEPCO_TIERS, base_days=days), grid


def test_demand_matches_desk_oracle():
    """Every route to the demand metrics agrees with Fraction column sums."""
    rng = random.Random(47)
    kinds = ["decimal", "p/q", "all-zero", "empty"]
    for case in range(80):
        kind = kinds[case % len(kinds)]
        matrix, schedule, grid = _demand_case(rng, kind)
        expected = desk_demand(matrix)
        assert (expected.par is None) == (kind in ("all-zero", "empty")), case
        assert demand_metrics(matrix) == expected, case
        assert compare_schemes(matrix, schedule, grid).demand == expected, case
        for scheme in SchemeKind:
            assert run_scheme(matrix, schedule, grid, scheme).demand == expected, case


# ----------------------------------------------------------------------
# matrix shifts
# ----------------------------------------------------------------------


def test_with_shift_moves_energy_and_preserves_total(month_matrix):
    shifted = month_matrix.with_shift("c2", 1, 2, Fraction(6, 5))
    assert usage_rows(shifted)[1][1] == 0
    assert usage_rows(shifted)[1][2] == Fraction(6, 5)
    assert sum(usage_rows(shifted)[1]) == sum(usage_rows(month_matrix)[1])
    # original untouched
    assert usage_rows(month_matrix)[1][1] == Fraction(6, 5)


def test_with_shift_rejects_overdraw(month_matrix):
    with pytest.raises(SimulationError, match="only"):
        month_matrix.with_shift("c2", 1, 2, Fraction(2))


def test_with_shift_rejects_unknown_consumer_and_slot(month_matrix):
    with pytest.raises(SimulationError, match="unknown consumer"):
        month_matrix.with_shift("nobody", 0, 1, 0)
    with pytest.raises(SimulationError, match="out of range"):
        month_matrix.with_shift("c1", 0, 500, 0)


# ----------------------------------------------------------------------
# run_scheme
# ----------------------------------------------------------------------


def test_monthly_scheme_single_consumer(kepco, month_grid):
    matrix = SlotUsageMatrix.from_rows({"one": [Fraction(350)] + [0] * 119})
    report = run_scheme(matrix, kepco, month_grid, "monthly-individual")
    assert report.consumer_totals["one"] == 51480
    assert format_money(report.billed_totals["one"]) == "51480.00"
    assert report.slot_columns is None


def test_group_scheme_single_populated_slot(kepco, month_grid, slot_usages):
    rows = {c: [u] + [0] * 119 for c, u in slot_usages}
    matrix = SlotUsageMatrix.from_rows(rows)
    report = run_scheme(matrix, kepco, month_grid, "slotted-group")
    assert report.group_slot_prices[0] == Fraction(933, 2)
    assert format_money(report.aggregate_billed) == "466.50"
    assert report.policy.value == "exact-sum"


def test_uniform_consumption_slotted_equals_monthly(kepco, month_grid):
    matrix = SlotUsageMatrix.from_rows({"flat": [Fraction(7, 4)] * 120})
    slotted = run_scheme(matrix, kepco, month_grid, SchemeKind.SLOTTED_INDIVIDUAL)
    monthly = run_scheme(matrix, kepco, month_grid, SchemeKind.MONTHLY_INDIVIDUAL)
    assert slotted.consumer_totals["flat"] == monthly.consumer_totals["flat"]


def test_run_scheme_rejects_grid_mismatch(kepco):
    grid = SlotGrid(Fraction(6), 7, ts())
    matrix = SlotUsageMatrix.from_rows({"a": [1] * 28})
    with pytest.raises(SimulationError, match="quoted for"):
        run_scheme(matrix, kepco, grid, "monthly-individual")
    week_schedule = make_schedule([(None, "60.7")], base_days=7)
    short = SlotUsageMatrix.from_rows({"a": [1] * 4})
    with pytest.raises(SimulationError, match="grid defines"):
        run_scheme(short, week_schedule, grid, "monthly-individual")


def test_non_progressive_schedule_skips_collective_guard(month_grid):
    # Decreasing rates invert the grouping effect: pooling can cost MORE.
    # The engine must accept the schedule (it was explicitly allowed) and
    # not trip the convexity guard.
    schedule = make_schedule(
        [(Fraction(5, 6) * 120, "100"), (None, "1")], allow_rate_decrease=True
    )
    matrix = SlotUsageMatrix.from_rows(
        {"a": [Fraction(5, 3)] + [0] * 119, "b": [0] * 120}
    )
    report = run_scheme(matrix, schedule, month_grid, "slotted-group")
    individual = run_scheme(matrix, schedule, month_grid, "slotted-individual")
    assert report.group_slot_prices[0] > individual.aggregate_exact


# ----------------------------------------------------------------------
# compare_schemes
# ----------------------------------------------------------------------


def test_compare_three_consumer_slot(kepco, month_grid, slot_usages):
    rows = {c: [u] + [0] * 119 for c, u in slot_usages}
    matrix = SlotUsageMatrix.from_rows(rows)
    comparison = compare_schemes(matrix, kepco, month_grid)
    assert format_money(comparison.slotted_individual.aggregate_billed) == "518.16"
    assert format_money(comparison.slotted_group.aggregate_billed) == "466.50"
    assert format_money(comparison.group_saving) == "51.66"
    assert format_money(comparison.monthly.aggregate_billed) == "303.50"


def test_compare_checks_claim_1_and_names_the_consumer(kepco, month_grid, monkeypatch):
    # One unit more on every monthly price puts "b", whose slot usage stays
    # in the first tier, below its monthly total; "a" stays far above it.
    monkeypatch.setattr(simulate, "progressive_price", lambda *args: progressive_price(*args) + 1)
    matrix = SlotUsageMatrix.from_rows({"a": [5] + [0] * 119, "b": [Fraction(1, 2)] + [0] * 119})
    message = "consumer 'b': slotted total fell below the monthly total"
    with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
        compare_schemes(matrix, kepco, month_grid)


def test_zero_filled_cells_reach_the_report(kepco, month_grid):
    readings = parse_trace_csv(FIXTURES / "three_consumer_slot_exact.csv")
    matrix = slot_partition(readings, month_grid)
    report = run_scheme(matrix, kepco, month_grid, "slotted-group")
    assert report.zero_filled == 3 * 120 - 3
    # Every cell handed to from_rows counts as observed.
    direct = SlotUsageMatrix.from_rows({"a": [1] * 120, "b": [0] * 120})
    assert direct.observed == {(c, slot) for c in "ab" for slot in range(120)}
    assert run_scheme(direct, kepco, month_grid, "slotted-group").zero_filled == 0


def test_decimal_trace_variant_reproduces_same_displays(kepco, month_grid):
    # The truncated-decimal trace stays exact as written and lands on the
    # same displayed figures as the p/q variant.
    for name in ("three_consumer_slot.csv", "three_consumer_slot_exact.csv"):
        matrix = slot_partition(parse_trace_csv(FIXTURES / name), month_grid)
        comparison = compare_schemes(matrix, kepco, month_grid)
        assert format_money(comparison.slotted_individual.aggregate_billed) == "518.16"
        assert format_money(comparison.slotted_group.aggregate_billed) == "466.50"
        assert format_money(comparison.group_saving) == "51.66"


def test_compare_all_zero_matrix(kepco, month_grid):
    matrix = SlotUsageMatrix.from_rows({"a": [0] * 120, "b": [0] * 120})
    comparison = compare_schemes(matrix, kepco, month_grid)
    for report in (
        comparison.monthly,
        comparison.slotted_individual,
        comparison.slotted_group,
    ):
        assert format_money(report.aggregate_billed) == "0.00"


def test_compare_scheme_ordering_random(kepco, rng):
    """Monthly <= slotted-individual per consumer, and the collective slot
    price never beats the individual sum; exact, pre-rounding."""
    grid = SlotGrid(Fraction(6), 1, ts())
    for _ in range(40):
        rows = {
            f"c{i}": [
                Fraction(rng.randint(0, 40), rng.randint(1, 12)) for _ in range(4)
            ]
            for i in range(rng.randint(1, 3))
        }
        matrix = SlotUsageMatrix.from_rows(rows)
        day_schedule = make_schedule(
            [(10, "60.7"), (20, "125.9"), (None, "187.9")], base_days=1
        )
        comparison = compare_schemes(matrix, day_schedule, grid)
        for consumer in matrix.consumers:
            assert (
                comparison.slotted_individual.consumer_totals[consumer]
                >= comparison.monthly.consumer_totals[consumer]
            )
        for slot in range(4):
            denominator, numerators = comparison.slotted_individual.slot_columns[slot]
            column_individual = Fraction(sum(numerators), denominator)
            assert comparison.slotted_group.group_slot_prices[slot] <= column_individual


def test_compare_reports_are_deterministic(kepco, month_grid, slot_usages):
    from progtariff.fileio import comparison_to_dict, to_json

    rows = {c: [u] + [0] * 119 for c, u in slot_usages}
    first = compare_schemes(SlotUsageMatrix.from_rows(rows), kepco, month_grid)
    second = compare_schemes(SlotUsageMatrix.from_rows(rows), kepco, month_grid)
    assert to_json(comparison_to_dict(first)) == to_json(comparison_to_dict(second))


# ----------------------------------------------------------------------
# what_if_shift
# ----------------------------------------------------------------------


def test_shift_of_zero_changes_nothing(kepco, month_grid, month_matrix):
    report = what_if_shift(month_matrix, kepco, month_grid, "c2", 0, 3, 0)
    assert report.allocated_delta == 0
    assert report.individual_delta == 0
    assert report.group_billed_delta == 0
    assert report.par_before == report.par_after


def test_shift_into_idle_slot_cuts_allocated_cost(kepco, month_grid, month_matrix):
    """Moving c2's second-slot load into a slot where c1 draws nothing puts
    the pooled load back inside the widened first tier, so c2's allocated
    bill drops."""
    report = what_if_shift(month_matrix, kepco, month_grid, "c2", 1, 2, Fraction(6, 5))
    assert report.allocated_delta < 0
    assert report.allocated_after < report.allocated_before
    assert report.group_billed_delta < 0


def test_shift_into_quietest_slot_can_raise_shifters_allocated_bill():
    """Shifting into the group's quiet slot does not always help the shifter.

    c1 moves part of its peak slot into the group's quietest slot, which
    stays the quietest. The group's billed aggregate falls by 550.26, yet
    c1's allocated bill rises by 23.35: shares are weighted by stand-alone
    prices, and the move raises c1's weight in the slot it moves into.
    """
    schedule = make_schedule(KEPCO_TIERS, base_days=1)
    grid = SlotGrid(Fraction(6), 1, ts())
    matrix = SlotUsageMatrix.from_rows(
        {
            "c0": ["94.32", "96.55", "20.35", "88.51"],
            "c1": ["14.27", "21.63", "9.44", "6.33"],
        }
    )
    amount = Fraction("4.326")
    assert usage_rows(matrix)[1].index(max(usage_rows(matrix)[1])) == 1
    for usage in (matrix, matrix.with_shift("c1", 1, 2, amount)):
        slot_loads = demand_metrics(usage).slot_loads
        assert min(slot_loads) == slot_loads[2]
    report = what_if_shift(matrix, schedule, grid, "c1", 1, 2, amount)
    assert report.allocated_delta == Fraction("23.35")
    assert report.group_billed_delta == Fraction("-550.26")


def _ratios(top):
    return st.builds(Fraction, st.integers(0, top), st.integers(1, 12))


@st.composite
def progressive_schedules(draw):
    """A convex schedule: rising bounds, rates that never fall."""
    count = draw(st.integers(1, 5))
    steps = draw(st.lists(_ratios(120).filter(bool), min_size=count - 1, max_size=count - 1))
    rises = draw(st.lists(_ratios(300), min_size=count, max_size=count))
    bounds = list(itertools.accumulate(steps))
    rates = list(itertools.accumulate(rises))
    return make_schedule([*zip(bounds, rates), (None, rates[-1])])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(progressive_schedules(), st.lists(_ratios(400), min_size=1, max_size=5), st.data())
def test_group_shift_toward_balance_never_raises_group_price(schedule, source, data):
    """Paper claim 3 at the group level.

    One member moves ``a`` kWh from slot s to slot t, where the pooled
    usages satisfy ``P_t + a <= P_s``. Both pooled usages stay within
    [P_t, P_s] and their sum is unchanged, so by convexity the exact group
    price of the two slots cannot rise.
    """
    size = len(source)
    ids = [f"c{index}" for index in range(size)]
    shifter = data.draw(st.integers(0, size - 1))
    amount = source[shifter] * data.draw(_ratios(12)) / 12
    # The target slot's usages fill at most what the source keeps.
    room = sum(source) - amount
    weights = data.draw(st.lists(st.integers(0, 12), min_size=size, max_size=size))
    target = [room * weight / (12 * size) for weight in weights]
    assert sum(target) + amount <= sum(source)

    def pair_price(from_cells, to_cells):
        return group_slot_price(schedule, dict(zip(ids, from_cells))) + group_slot_price(
            schedule, dict(zip(ids, to_cells))
        )

    moved_source, moved_target = list(source), list(target)
    moved_source[shifter] -= amount
    moved_target[shifter] += amount
    assert pair_price(moved_source, moved_target) <= pair_price(source, target)


def test_shift_within_one_tier_is_free_individually(kepco, month_grid, month_matrix):
    # 1.2 -> 1.0 and 1.2 -> 1.4 both stay inside the slot tier (5/6, 5/3],
    # so under individual slot pricing the move costs exactly nothing.
    report = what_if_shift(month_matrix, kepco, month_grid, "c2", 0, 1, Fraction(1, 5))
    assert report.individual_delta == 0


def test_shift_preserves_consumer_total(kepco, month_grid, month_matrix):
    shifted = month_matrix.with_shift("c2", 1, 3, Fraction(1, 2))
    assert sum(usage_rows(shifted)[1]) == sum(usage_rows(month_matrix)[1])


def test_shift_rejects_bad_arguments(kepco, month_grid, month_matrix):
    with pytest.raises(SimulationError, match="only"):
        what_if_shift(month_matrix, kepco, month_grid, "c2", 2, 0, 1)
    with pytest.raises(SimulationError, match="unknown consumer"):
        what_if_shift(month_matrix, kepco, month_grid, "zz", 0, 1, 0)


@pytest.mark.parametrize("policy", ["exact-sum", "independent"])
@pytest.mark.parametrize("from_slot, to_slot, calls", [(0, 3, 122), (1, 1, 121)])
def test_shift_bills_every_slot_once_and_each_changed_slot_again(
    kepco, month_grid, month_matrix, monkeypatch, policy, from_slot, to_slot, calls
):
    # 120 slots, plus the distinct slots the shift changes.
    billed = []

    def counting(*args):
        billed.append(args)
        return price_group(*args)

    monkeypatch.setattr(simulate, "price_group", counting)
    what_if_shift(month_matrix, kepco, month_grid, "c2", from_slot, to_slot, "1/2", policy)
    assert month_matrix.slots == 120 and len(billed) == calls


def test_shift_holds_one_slot_of_columns_beyond_the_matrix(kepco):
    # Beside the two matrices, the shift holds three small figures per slot
    # and the price memo, and prices and allocates one slot at a time: every
    # slot's price and share columns would take about 6 MiB here, one
    # slot's take under 1 MiB.
    rng = random.Random(25)
    rows = {
        f"c{n:04d}": [Fraction(rng.randint(0, 5000), 1000) for _ in range(120)]
        for n in range(1000)
    }
    rows["c0000"][0] = Fraction(3)
    matrix = SlotUsageMatrix.from_rows(rows)
    del rows
    grid = SlotGrid(Fraction(6), 30, ts())
    tracemalloc.start()
    try:
        report = what_if_shift(matrix, kepco, grid, "c0000", 0, 1, Fraction(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.amount == 2
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def _shift_schedule(rng, days):
    """KEPCO, a random convex schedule, or one with a falling rate, all
    quoted for *days* days."""
    kind = rng.choice(["kepco", "kepco", "random", "falling"])
    if kind == "kepco":
        return make_schedule(KEPCO_TIERS, base_days=days)
    if kind == "falling":
        return make_schedule(
            [(50, "100"), (150, "20"), (None, "1")],
            base_days=days,
            allow_rate_decrease=True,
        )
    tiers, bound, rate = [], Fraction(0), Fraction(rng.randint(0, 90), rng.randint(1, 7))
    for _ in range(rng.randint(0, 4)):
        bound += Fraction(rng.randint(1, 150), rng.randint(1, 9))
        tiers.append((bound, rate))
        rate += Fraction(rng.randint(0, 300), rng.randint(1, 9))
    return make_schedule([*tiers, (None, rate)], base_days=days)


def _shift_cell(rng, scale):
    """A slot cell up to about six first-tier slot bounds: zero, p/q or
    three decimals."""
    style = rng.random()
    if style < 0.2:
        return Fraction(0)
    den = rng.randint(1, 60) if style < 0.6 else 1000
    return Fraction(rng.randint(0, math.ceil(6 * scale * den)), den)


def _random_shift_case(rng, kind):
    slot_hours = rng.choice([1, 6, 8, 24])
    days = rng.randint(1, 3 if slot_hours == 1 else 5)
    grid = SlotGrid(Fraction(slot_hours), days, ts())
    slots = grid.slot_count
    # About the KEPCO first-tier bound of one slot.
    scale = Fraction(100 * slot_hours, 24 * days)
    ids = rng.sample([f"m{i:02d}" for i in range(20)], rng.randint(1, 8))
    rows = {c: [_shift_cell(rng, scale) for _ in range(slots)] for c in ids}
    for slot in rng.sample(range(slots), rng.randint(0, slots // 3)):
        for row in rows.values():
            row[slot] = Fraction(0)
    consumer = rng.choice(ids)
    from_slot = rng.randrange(slots)
    to_slot = from_slot if kind == "same" else rng.randrange(slots)
    if kind == "idle":
        # Nobody but the mover uses energy in the target slot.
        for other, row in rows.items():
            if other != consumer:
                row[to_slot] = Fraction(0)
    if kind in ("random", "idle") and rows[consumer][from_slot] == 0:
        rows[consumer][from_slot] = Fraction(rng.randint(1, 5000), 1000)
    available = rows[consumer][from_slot]
    if kind == "zero":
        amount = Fraction(0)
    elif kind == "whole":
        amount = available
    else:
        amount = available * Fraction(rng.randint(0, 1000), 1000)
    matrix = SlotUsageMatrix.from_rows(rows)
    policy = rng.choice(["exact-sum", "independent"])
    schedule = _shift_schedule(rng, days)
    return matrix, schedule, grid, consumer, from_slot, to_slot, amount, policy


def test_shift_matches_whole_matrix_oracle():
    rng = random.Random(44)
    kinds = ["random", "random", "same", "zero", "whole", "idle"]
    for case in range(330):
        args = _random_shift_case(rng, kinds[case % len(kinds)])
        *rest, policy = args
        assert what_if_shift(*rest, policy=policy) == desk_shift(*args), case


def _shift_error(shift, args):
    *rest, policy = args
    with pytest.raises(Exception) as caught:
        shift(*rest, policy=policy)
    return type(caught.value), str(caught.value)


def test_shift_errors_match_whole_matrix_oracle():
    rng = random.Random(45)
    for case in range(90):
        matrix, schedule, grid, consumer, from_slot, to_slot, _, policy = (
            _random_shift_case(rng, "random")
        )
        fault = case % 3
        amount = usage_rows(matrix)[matrix.consumers.index(consumer)][from_slot] + Fraction(1, rng.randint(1, 1000))
        if fault == 1:
            amount = Fraction(0)
            bad = rng.choice([-1, matrix.slots, matrix.slots + 7])
            from_slot, to_slot = rng.choice([(bad, to_slot), (from_slot, bad)])
        elif fault == 2:
            consumer = "nobody"
        if rng.random() < 0.3:
            # A grid mismatch must not mask the shift's own error.
            schedule = make_schedule(KEPCO_TIERS, base_days=grid.period_days + 1)
        args = (matrix, schedule, grid, consumer, from_slot, to_slot, amount, policy)
        error = _shift_error(what_if_shift, args)
        assert error == _shift_error(desk_shift, args), case
        assert error[0] is SimulationError


# ----------------------------------------------------------------------
# slot charges kept as integers, against a per-cell recomputation
# ----------------------------------------------------------------------


def _slot_charge_case(rng, kind):
    """A random matrix and day-based schedule; *kind* picks the cells."""
    days = rng.randint(1, 2)
    slots = 4 * days
    grid = SlotGrid(Fraction(6), days, ts())
    first = Fraction(rng.randint(5, 30), rng.choice([1, 3]))
    second = first + Fraction(rng.randint(1, 60), rng.choice([1, 7]))
    top_rate = rng.choice(["187.9", "709.5", "1000/3"])
    schedule = make_schedule(
        [(first, "60.7"), (second, "125.9"), (None, top_rate)], base_days=days
    )
    consumers = 0 if kind == "empty" else rng.randint(1, 5)
    rows = {}
    for i in range(consumers):
        if kind == "decimal":
            row = [Fraction(rng.randint(0, 40000), 1000) for _ in range(slots)]
        else:
            row = [Fraction(rng.randint(0, 60), rng.randint(1, 12)) for _ in range(slots)]
        rows[f"c{i}"] = row
    if kind == "zero-columns":
        for slot in rng.sample(range(slots), rng.randint(1, slots - 1)):
            for row in rows.values():
                row[slot] = Fraction(0)
    matrix = SlotUsageMatrix.from_rows(rows, slots)
    return matrix, schedule, grid


def _slot_charges(report):
    """Every consumer's exact charge in every slot, from the report's
    slot columns."""
    columns = ([Fraction(num, den) for num in nums] for den, nums in report.slot_columns)
    return dict(zip(report.consumers, zip(*columns)))


def test_slot_charges_match_per_cell_recomputation():
    """The integer slot charges, their totals and their text agree with
    pricing, pooling and allocating every cell on its own."""
    rng = random.Random(46)
    kinds = ["p/q", "decimal", "zero-columns", "empty"]
    seen_ratio_text = seen_decimal_text = 0
    for case in range(120):
        kind = kinds[case % len(kinds)]
        matrix, schedule, grid = _slot_charge_case(rng, kind)
        slot_schedule = scale_schedule(schedule, grid.factor)
        consumers = matrix.consumers
        slotted = run_scheme(matrix, schedule, grid, "slotted-individual")
        charges = _slot_charges(slotted)
        for consumer, row in zip(consumers, usage_rows(matrix)):
            assert charges[consumer] == tuple(
                progressive_price(slot_schedule, cell) for cell in row
            ), case
        reports = [slotted]
        for policy in ("exact-sum", "independent"):
            grouped = run_scheme(matrix, schedule, grid, "slotted-group", policy)
            reports.append(grouped)
            if not consumers:
                assert grouped.group_slot_prices == (Fraction(0),) * matrix.slots
                continue
            for slot, cells in enumerate(zip(*usage_rows(matrix))):
                column = dict(zip(consumers, cells))
                price = widened_group_price(slot_schedule, list(cells))
                assert grouped.group_slot_prices[slot] == price, case
                solo = {c: progressive_price(slot_schedule, u) for c, u in column.items()}
                shares = proportional_allocation(price, solo, policy).shares
                denominator, numerators = grouped.slot_columns[slot]
                assert {
                    c: Fraction(num, denominator) for c, num in zip(consumers, numerators)
                } == shares
        for report in reports:
            assert len(report.slot_columns) == matrix.slots
            for denominator, numerators in report.slot_columns:
                assert len(numerators) == len(consumers)
                if report.scheme is SchemeKind.SLOTTED_GROUP:
                    assert denominator == 10**MONEY_PLACES
            slot_charges = _slot_charges(report)
            assert set(slot_charges) == set(consumers)
            entries = json.loads(to_json(report_to_dict(report)))["consumers"]
            for consumer, entry in zip(consumers, entries):
                charges = slot_charges[consumer]
                assert report.consumer_totals[consumer] == sum(charges, Fraction(0)), case
                assert entry["slot_charges"] == [format_money(c) for c in charges]
                texts = [exact_str(charge) for charge in charges]
                assert entry["slot_charges_exact"] == texts
                seen_ratio_text += sum("/" in text for text in texts)
                seen_decimal_text += sum("." in text for text in texts)
    assert seen_ratio_text and seen_decimal_text


# ----------------------------------------------------------------------
# desk-oracle spot check (the exhaustive sweep lives in the acceptance suite)
# ----------------------------------------------------------------------


def test_run_scheme_matches_desk_calculation(rng):
    day_schedule = make_schedule(
        [(Fraction(10, 3), "60.7"), (Fraction(20, 3), "125.9"), (None, "187.9")],
        base_days=1,
    )
    bounds = [tier.upper_bound for tier in day_schedule.tiers]
    rates = [tier.rate for tier in day_schedule.tiers]
    grid = SlotGrid(Fraction(6), 1, ts())
    for _ in range(60):
        rows = {
            f"c{i}": [Fraction(rng.randint(0, 20), 4) for _ in range(4)]
            for i in range(rng.randint(1, 3))
        }
        matrix = SlotUsageMatrix.from_rows(rows)
        monthly, slotted, group_prices, allocated = desk_schemes(rows, bounds, rates, 4)
        run_monthly = run_scheme(matrix, day_schedule, grid, "monthly-individual")
        run_slotted = run_scheme(matrix, day_schedule, grid, "slotted-individual")
        run_group = run_scheme(matrix, day_schedule, grid, "slotted-group")
        assert run_monthly.consumer_totals == monthly
        assert run_slotted.consumer_totals == slotted
        assert list(run_group.group_slot_prices) == group_prices
        assert {
            c: total * 100 for c, total in run_group.consumer_totals.items()
        } == allocated
