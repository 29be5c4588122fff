"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with -s to
see them). Every numeric check is exact: rational equality or exact
display-string match, no tolerances anywhere.
"""

import itertools
import random
import time
from datetime import datetime, timezone
from fractions import Fraction

from progtariff import (
    SlotGrid,
    SlotUsageMatrix,
    compare_schemes,
    format_energy,
    format_money,
    group_slot_price,
    individual_slot_prices,
    parse_trace_csv,
    progressive_price,
    proportional_allocation,
    run_scheme,
    scale_schedule,
    slot_factor,
    slot_partition,
    what_if_shift,
)

from conftest import FIXTURES, random_progressive_schedule
from oracles import desk_schemes

UTC = timezone.utc


def report(number, ok, description):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_monthly_worked_example(kepco):
    price = progressive_price(kepco, 350)
    report(1, price == 51480, "350 kWh under the residential table costs exactly 51480")


def test_criterion_2_slot_scaling(kepco):
    scaled = scale_schedule(kepco, slot_factor(6, 30))
    bound = scaled.tiers[0].upper_bound
    ok = bound == Fraction(5, 6) and format_energy(bound) == "0.8333"
    report(2, ok, "6h/30d scaling puts the first tier bound at exactly 5/6 (0.8333)")


def test_criterion_3_slot_scenario_reproduction(kepco, kepco_slot, slot_usages):
    individual = individual_slot_prices(kepco_slot, slot_usages)
    displays = [format_money(price) for price in individual.values()]
    display_sum = sum(
        (Fraction(d.replace(".", "")) for d in displays), Fraction(0)
    ) / 100
    group = group_slot_price(kepco_slot, slot_usages)
    ok = (
        displays == ["312.08", "155.50", "50.58"]
        and format_money(display_sum) == "518.16"
        and format_money(group) == "466.50"
    )
    report(3, ok, "slot prices display 312.08/155.50/50.58 (518.16); group 466.50")


def test_criterion_4_allocation_reproduction():
    prices = [("1", "312.08"), ("2", "155.50"), ("3", "50.58")]
    independent = proportional_allocation("466.50", prices, "independent")
    exact_sum = proportional_allocation("466.50", prices, "exact-sum")
    ind = [format_money(v) for v in independent.shares.values()]
    diffs = [
        abs(a - b)
        for a, b in zip(independent.shares.values(), exact_sum.shares.values())
    ]
    ok = (
        ind == ["280.97", "140.00", "45.54"]
        and exact_sum.total == Fraction(46650, 100)
        and sum(1 for d in diffs if d != 0) <= 1
        and max(diffs) <= Fraction(1, 100)
    )
    report(4, ok, "independent split is 280.97/140.00/45.54; exact-sum hits 466.50")


def test_criterion_5_jensen_suite():
    rng = random.Random(52)
    group_violations = 0
    slot_violations = 0
    vectors = 10_000
    for index in range(vectors):
        schedule = random_progressive_schedule(rng)
        count = rng.randint(1, 8)
        usages = {
            f"c{i}": Fraction(rng.randint(0, 200), rng.randint(1, 16))
            for i in range(count)
        }
        individual = individual_slot_prices(schedule, usages)
        if group_slot_price(schedule, usages) > sum(individual.values(), Fraction(0)):
            group_violations += 1
        # The same vector read as one consumer's per-slot usage over
        # count slots: slotted total can never drop below the period total
        # priced at once.
        slot_schedule = scale_schedule(schedule, Fraction(1, count))
        slotted = sum(
            (progressive_price(slot_schedule, u) for u in usages.values()), Fraction(0)
        )
        monthly = progressive_price(schedule, sum(usages.values(), Fraction(0)))
        if slotted < monthly:
            slot_violations += 1

    # Equality cases, exact: uniform per-slot usage, and a group whose
    # usages all sit inside one tier segment.
    uniform_ok = True
    segment_ok = True
    for _ in range(200):
        schedule = random_progressive_schedule(rng)
        slots = rng.randint(1, 8)
        usage = Fraction(rng.randint(0, 100), rng.randint(1, 12))
        slot_schedule = scale_schedule(schedule, Fraction(1, slots))
        slotted = slots * progressive_price(slot_schedule, usage)
        monthly = progressive_price(schedule, slots * usage)
        uniform_ok = uniform_ok and slotted == monthly

        # Pick a bounded segment [lo, hi] and draw everyone inside it.
        bounds = [Fraction(0)] + [
            t.upper_bound for t in schedule.tiers if t.upper_bound is not None
        ]
        if len(bounds) >= 2:
            pick = rng.randrange(len(bounds) - 1)
            lo, hi = bounds[pick], bounds[pick + 1]
            usages = {
                f"c{i}": lo + (hi - lo) * Fraction(rng.randint(0, 16), 16)
                for i in range(rng.randint(1, 6))
            }
            individual = individual_slot_prices(schedule, usages)
            segment_ok = segment_ok and group_slot_price(schedule, usages) == sum(
                individual.values(), Fraction(0)
            )

    ok = (
        group_violations == 0
        and slot_violations == 0
        and uniform_ok
        and segment_ok
    )
    report(
        5,
        ok,
        f"{vectors} random vectors: 0 collective-vs-individual violations "
        f"(got {group_violations}), 0 slotted-vs-monthly violations "
        f"(got {slot_violations}); equality cases exact",
    )


def test_criterion_6_scaling_homogeneity():
    rng = random.Random(53)
    triples = 1_000
    failures = 0
    for _ in range(triples):
        schedule = random_progressive_schedule(rng)
        factor = Fraction(rng.randint(1, 300), rng.randint(1, 300))
        usage = Fraction(rng.randint(0, 400), rng.randint(1, 24))
        left = progressive_price(scale_schedule(schedule, factor), factor * usage)
        right = factor * progressive_price(schedule, usage)
        if left != right:
            failures += 1
    report(
        6,
        failures == 0,
        f"price(scale(s,f), f*u) == f*price(s,u) exactly on {triples} random triples",
    )


def test_criterion_7_desk_oracle_equivalence(kepco):
    """run_scheme vs the straight-line desk calculation, exact equality.

    Energies come from the 0.25 kWh grid 0..5. Shapes up to 3 consumers
    and 4 slots are all covered; every shape with at most 3 cells is
    enumerated exhaustively over the full grid (19,425 matrices), larger
    shapes get 250 seeded random draws each, since enumerating a 12-cell
    grid (21^12 matrices) is not computable. Every shape also gets 100
    draws from a pool of mixed denominators (quarters, thirds, sevenths
    and three-decimal values), so the cells of one slot sit on different
    quanta. Last, 3 consumers on 8-hour slots over 31 days (93 slots, a
    slot factor of 1/93 that does not terminate) get 20 draws from the
    mixed pool.
    """
    grid_energies = [Fraction(k, 4) for k in range(21)]
    mixed_energies = (
        grid_energies
        + [Fraction(k, 3) for k in range(1, 16)]
        + [Fraction(k, 7) for k in range(1, 36)]
        + [Fraction(text) for text in ("0.001", "0.417", "0.833", "1.234", "2.999", "4.005")]
    )
    rng = random.Random(54)
    period_start = datetime(2025, 1, 1, tzinfo=UTC)

    def check(rows, slots, days=1):
        schedule = scale_schedule(kepco, Fraction(days, 30))
        bounds = [tier.upper_bound for tier in schedule.tiers]
        rates = [tier.rate for tier in schedule.tiers]
        matrix = SlotUsageMatrix.from_rows(rows, slots=slots)
        grid = SlotGrid(Fraction(24 * days, slots), days, period_start)
        monthly, slotted, group_prices, allocated = desk_schemes(
            rows, bounds, rates, slots
        )
        run_monthly = run_scheme(matrix, schedule, grid, "monthly-individual")
        run_slotted = run_scheme(matrix, schedule, grid, "slotted-individual")
        run_group = run_scheme(matrix, schedule, grid, "slotted-group")
        return (
            run_monthly.consumer_totals == monthly
            and run_slotted.consumer_totals == slotted
            and list(run_group.group_slot_prices) == group_prices
            and {c: t * 100 for c, t in run_group.consumer_totals.items()} == allocated
        )

    def draws(pool, cells, count):
        return (tuple(rng.choice(pool) for _ in range(cells)) for _ in range(count))

    checked = 0
    mismatches = 0

    def check_all(flats, consumers, slots, days=1):
        nonlocal checked, mismatches
        ids = [f"c{i}" for i in range(consumers)]
        for flat in flats:
            rows = {
                ids[i]: list(flat[i * slots : (i + 1) * slots])
                for i in range(consumers)
            }
            checked += 1
            if not check(rows, slots, days):
                mismatches += 1

    for consumers in (1, 2, 3):
        for slots in (1, 2, 3, 4):
            cells = consumers * slots
            if cells <= 3:
                pool = itertools.product(grid_energies, repeat=cells)
            else:
                pool = draws(grid_energies, cells, 250)
            check_all(pool, consumers, slots)
            check_all(draws(mixed_energies, cells, 100), consumers, slots)
    check_all(draws(mixed_energies, 3 * 93, 20), 3, 93, days=31)
    report(
        7,
        mismatches == 0,
        f"desk oracle equivalence on {checked} matrices (0.25 kWh grid, "
        "mixed thirds/sevenths/three-decimal cells, <=3 consumers, <=4 "
        f"slots; 1/93 slot factor): {mismatches} mismatches",
    )


def test_desk_oracle_equivalence_on_random_ratio_matrix(kepco, month_grid):
    """compare_schemes vs the desk calculation on 50 x 120 random p/q cells.

    Numerators and denominators are drawn below 10**6, so nearly every
    cell in a slot has its own denominator and the slot's common quantum
    is large. The print shows the engine's own time for the comparison.
    """
    rng = random.Random(93)
    rows = {
        f"c{index:02d}": [
            Fraction(rng.randrange(10**6), rng.randrange(1, 10**6)) for _ in range(120)
        ]
        for index in range(50)
    }
    matrix = SlotUsageMatrix.from_rows(rows)
    bounds = [tier.upper_bound for tier in kepco.tiers]
    rates = [tier.rate for tier in kepco.tiers]
    started = time.perf_counter()
    comparison = compare_schemes(matrix, kepco, month_grid)
    engine_s = time.perf_counter() - started
    monthly, slotted, group_prices, allocated = desk_schemes(rows, bounds, rates, 120)
    grouped = comparison.slotted_group
    ok = (
        comparison.monthly.consumer_totals == monthly
        and comparison.slotted_individual.consumer_totals == slotted
        and list(grouped.group_slot_prices) == group_prices
        and {c: t * 100 for c, t in grouped.consumer_totals.items()} == allocated
    )
    print(f"compare_schemes on 50x120 random p/q cells: {engine_s:.3f} s")
    assert ok


def test_criterion_8_shift_incentive_on_month_fixture(kepco, month_grid):
    readings = parse_trace_csv(FIXTURES / "two_consumer_month.csv")
    matrix = slot_partition(readings, month_grid)

    # c2 moves its whole second-slot load into a slot where c1 is idle:
    # under collective pricing its allocated bill must strictly drop.
    into_idle = what_if_shift(
        matrix, kepco, month_grid, "c2", 1, 2, Fraction(6, 5)
    )
    # A move between two slots whose usage stays inside one tier is free
    # under individual slot pricing.
    same_tier = what_if_shift(
        matrix, kepco, month_grid, "c2", 0, 1, Fraction(1, 5)
    )
    ok = into_idle.allocated_delta < 0 and same_tier.individual_delta == 0
    report(
        8,
        ok,
        "shift into the idle slot cuts the allocated bill "
        f"({format_money(into_idle.allocated_before)} -> "
        f"{format_money(into_idle.allocated_after)}); same-tier shift is free "
        "under individual slot pricing",
    )
