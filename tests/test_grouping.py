from fractions import Fraction

import pytest

from progtariff import (
    AllocationError,
    AllocationPolicy,
    exact,
    format_money,
    group_saving,
    group_slot_price,
    individual_slot_prices,
    progressive_price,
    proportional_allocation,
    round_money,
)

from conftest import make_schedule, random_fraction, random_progressive_schedule
from oracles import remainder_allocate, widened_group_price

PUBLISHED_PRICES = [("1", "312.08"), ("2", "155.50"), ("3", "50.58")]


# ----------------------------------------------------------------------
# individual and collective slot prices
# ----------------------------------------------------------------------


def test_individual_prices_three_consumers(kepco_slot, slot_usages):
    prices = individual_slot_prices(kepco_slot, slot_usages)
    assert {c: format_money(p) for c, p in prices.items()} == {
        "c1": "312.08",
        "c2": "155.50",
        "c3": "50.58",
    }


def test_individual_prices_all_zero(kepco_slot):
    prices = individual_slot_prices(kepco_slot, {"a": 0, "b": 0})
    assert prices == {"a": Fraction(0), "b": Fraction(0)}


def test_individual_prices_singleton_equals_progressive_price(kepco_slot):
    prices = individual_slot_prices(kepco_slot, {"only": Fraction(5, 4)})
    assert prices["only"] == progressive_price(kepco_slot, Fraction(5, 4))


def test_group_price_three_consumers(kepco_slot, slot_usages):
    price = group_slot_price(kepco_slot, slot_usages)
    assert price == Fraction(933, 2)
    assert format_money(price) == "466.50"


def test_group_price_single_consumer_equals_individual(kepco_slot):
    usage = Fraction(7, 5)
    assert group_slot_price(kepco_slot, {"solo": usage}) == progressive_price(
        kepco_slot, usage
    )


def test_group_price_equal_usages_scales_linearly(kepco_slot):
    usage = Fraction(13, 10)
    group = group_slot_price(kepco_slot, {f"c{i}": usage for i in range(5)})
    assert group == 5 * progressive_price(kepco_slot, usage)


def test_group_price_rejects_empty_group(kepco_slot):
    with pytest.raises(ValueError, match="at least one consumer"):
        group_slot_price(kepco_slot, {})


def test_group_price_rejects_duplicate_ids(kepco_slot):
    with pytest.raises(ValueError, match="duplicate"):
        group_slot_price(kepco_slot, [("a", 1), ("a", 2)])


def test_group_price_permutation_invariant(kepco_slot, rng):
    for _ in range(50):
        usages = [(f"c{i}", random_fraction(rng, max_num=5)) for i in range(6)]
        shuffled = usages[:]
        rng.shuffle(shuffled)
        assert group_slot_price(kepco_slot, usages) == group_slot_price(
            kepco_slot, shuffled
        )


def test_group_never_exceeds_sum_of_individuals(rng):
    """Collective price <= sum of stand-alone prices, for any convex schedule."""
    for _ in range(300):
        schedule = random_progressive_schedule(rng)
        count = rng.randint(1, 8)
        usages = {f"c{i}": random_fraction(rng) for i in range(count)}
        individual = individual_slot_prices(schedule, usages)
        group = group_slot_price(schedule, usages)
        assert group <= sum(individual.values(), Fraction(0))


def _random_falling_schedule(rng):
    """A random schedule whose rates may fall from tier to tier."""
    tier_count = rng.randint(2, 6)
    level = Fraction(0)
    tiers = []
    for _ in range(tier_count - 1):
        level += Fraction(rng.randint(1, 120), rng.randint(1, 12))
        tiers.append((level, Fraction(rng.randint(0, 2000), rng.randint(1, 10))))
    tiers.append((None, Fraction(rng.randint(0, 2000), rng.randint(1, 10))))
    return make_schedule(tiers, allow_rate_decrease=True)


def test_group_price_matches_widened_schedule_oracle(rng):
    """group_slot_price and group_saving price the group on the unwidened
    table; the oracle builds the schedule widened by N. Both agree on
    convex schedules and on schedules with falling rates."""
    falling = 0
    for case in range(400):
        if case % 2:
            schedule = _random_falling_schedule(rng)
            falling += not schedule.is_progressive
        else:
            schedule = random_progressive_schedule(rng)
        count = rng.randint(1, 60)
        max_den = rng.choice([1, 24, 997])
        usages = [(f"c{i}", random_fraction(rng, max_den=max_den)) for i in range(count)]
        expected = widened_group_price(schedule, [usage for _, usage in usages])
        assert group_slot_price(schedule, usages) == expected, case
        result = group_saving(schedule, usages)
        assert result.group_price == expected, case
        assert result.individual_prices == {
            consumer: progressive_price(schedule, usage) for consumer, usage in usages
        }
        assert result.saving == result.individual_total - expected
    assert falling > 100


def test_group_equality_when_usages_share_a_tier_segment(kepco_slot):
    # All usages inside tier 2 of the slot schedule: [5/6, 5/3].
    usages = {"a": Fraction(9, 10), "b": Fraction(6, 5), "c": Fraction(8, 5)}
    individual = individual_slot_prices(kepco_slot, usages)
    assert group_slot_price(kepco_slot, usages) == sum(
        individual.values(), Fraction(0)
    )


# ----------------------------------------------------------------------
# proportional allocation
# ----------------------------------------------------------------------


def test_allocation_independent_reproduces_published_split():
    result = proportional_allocation("466.50", PUBLISHED_PRICES, "independent")
    assert [format_money(v) for v in result.shares.values()] == [
        "280.97",
        "140.00",
        "45.54",
    ]
    assert result.adjustments == ()
    # The independently rounded shares overshoot the group price by one
    # minor unit; that mismatch is why the exact-sum policy exists.
    assert result.total == exact("466.51")


def test_allocation_exact_sum_reconciles_to_group_price():
    result = proportional_allocation("466.50", PUBLISHED_PRICES, "exact-sum")
    assert [format_money(v) for v in result.shares.values()] == [
        "280.96",
        "140.00",
        "45.54",
    ]
    assert result.total == exact("466.50")
    assert result.adjustments == (("2", 1), ("3", 1))


def test_allocation_policies_differ_by_at_most_one_minor_unit():
    independent = proportional_allocation("466.50", PUBLISHED_PRICES, "independent")
    exact_sum = proportional_allocation("466.50", PUBLISHED_PRICES, "exact-sum")
    diffs = [
        abs(a - b)
        for a, b in zip(independent.shares.values(), exact_sum.shares.values())
    ]
    assert sum(1 for d in diffs if d != 0) == 1
    assert max(diffs) == Fraction(1, 100)


def test_allocation_rejects_empty_and_duplicate_ids():
    with pytest.raises(ValueError, match="non-empty string"):
        proportional_allocation("10", [("a", "5"), ("", "5")])
    with pytest.raises(ValueError, match="duplicate"):
        proportional_allocation("10", [("a", "5"), ("a", "5")])


def test_allocation_zero_group_zero_prices():
    for policy in AllocationPolicy:
        result = proportional_allocation(0, [("a", 0), ("b", 0)], policy)
        assert all(v == 0 for v in result.shares.values())


def test_allocation_single_consumer_gets_everything():
    result = proportional_allocation("123.45", [("only", "99.99")])
    assert result.shares == {"only": exact("123.45")}


def test_allocation_rejects_undefined_proportions():
    with pytest.raises(AllocationError, match="all-zero"):
        proportional_allocation("10.00", [("a", 0), ("b", 0)])


def test_allocation_matches_remainder_oracle(rng):
    for _ in range(200):
        count = rng.randint(1, 8)
        prices = [(f"c{i}", random_fraction(rng, max_num=900)) for i in range(count)]
        total = sum((p for _, p in prices), Fraction(0))
        if total == 0:
            continue
        group = total * Fraction(rng.randint(1, 100), 100)
        result = proportional_allocation(group, prices, "exact-sum")
        expected = remainder_allocate(group, prices)
        assert {c: v * 100 for c, v in result.shares.items()} == expected
        assert result.total == round_money(group)


def test_allocation_tie_breaks_by_consumer_id():
    # Equal prices, 0.01 short: both remainders tie at 0.5; "a" wins.
    result = proportional_allocation("0.01", [("b", 1), ("a", 1)], "exact-sum")
    assert result.shares == {"b": Fraction(0), "a": Fraction(1, 100)}


@pytest.mark.parametrize("group", ["0.01", "0.02", "0.04", "0.05", "1.00"])
def test_allocation_ties_go_by_id_whatever_the_input_order(group):
    # Equal prices tie every remainder. As strings "c1" < "c10" < "c9",
    # so the extra units go to c1 first, then c10, not in input order.
    prices = [("c9", Fraction(1)), ("c10", Fraction(1)), ("c1", Fraction(1))]
    result = proportional_allocation(group, prices, "exact-sum")
    assert list(result.shares) == ["c9", "c10", "c1"]
    expected = remainder_allocate(Fraction(group), prices)
    assert {c: share * 100 for c, share in result.shares.items()} == expected
    # Adjustments are listed in input order.
    adjusted = [c for c, _ in result.adjustments]
    assert adjusted == [c for c, _ in prices if c in adjusted]


def test_allocation_dominance_and_order(rng):
    """Raw shares keep the order of prices and never exceed them when the
    group price does not exceed the price sum; zero price means zero share."""
    for _ in range(200):
        schedule = random_progressive_schedule(rng)
        count = rng.randint(2, 6)
        usages = {f"c{i}": random_fraction(rng) for i in range(count)}
        usages["c0"] = Fraction(0)
        individual = individual_slot_prices(schedule, usages)
        group = group_slot_price(schedule, usages)
        total = sum(individual.values(), Fraction(0))
        if total == 0:
            continue
        raw = {c: group * p / total for c, p in individual.items()}
        for consumer, price in individual.items():
            assert raw[consumer] <= price
        ordered = sorted(individual, key=lambda c: individual[c])
        for weaker, stronger in zip(ordered, ordered[1:]):
            assert raw[weaker] <= raw[stronger]
        for policy in AllocationPolicy:
            shares = proportional_allocation(group, individual, policy).shares
            assert shares["c0"] == 0


def test_allocation_independent_total_within_half_unit_per_consumer(rng):
    for _ in range(200):
        count = rng.randint(1, 8)
        prices = [(f"c{i}", random_fraction(rng, max_num=500)) for i in range(count)]
        total = sum((p for _, p in prices), Fraction(0))
        if total == 0:
            continue
        group = total * Fraction(rng.randint(1, 100), 100)
        result = proportional_allocation(group, prices, "independent")
        assert abs(result.total - round_money(group)) <= Fraction(count, 2) * Fraction(
            1, 100
        ) + Fraction(1, 100)


# ----------------------------------------------------------------------
# group_saving
# ----------------------------------------------------------------------


def test_group_saving_three_consumer_slot(kepco_slot, slot_usages):
    result = group_saving(kepco_slot, slot_usages)
    assert result.group_price == Fraction(933, 2)
    assert result.saving == result.individual_total - result.group_price


def test_group_saving_zero_inside_first_tier(kepco_slot):
    usages = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    result = group_saving(kepco_slot, usages)
    assert result.saving == 0


def test_group_saving_positive_when_tier_crossed(kepco_slot):
    usage = Fraction(3, 2)  # crosses the 5/6 bound alone, not pooled
    result = group_saving(kepco_slot, {"idle": Fraction(0), "busy": usage})
    assert result.group_price == widened_group_price(kepco_slot, [Fraction(0), usage])
    assert result.saving > 0


def test_group_saving_never_negative(rng):
    for _ in range(200):
        schedule = random_progressive_schedule(rng)
        usages = {f"c{i}": random_fraction(rng) for i in range(rng.randint(1, 8))}
        assert group_saving(schedule, usages).saving >= 0
