"""Collective tariff application for consumer groups, and price allocation.

For one time slot, a group of N consumers can be billed as a single
virtual consumer: widen the slot tariff's ranges by N and price the
pooled usage u. That price is exactly N * P(u / N) on the unwidened
tariff P, so ``price_group`` computes it on the slot's own table, whose
``prices`` turns the slot's usage column into the stand-alone price
column. Because the price function is convex, the collective price
never exceeds the sum of stand-alone individual prices, the gap is the
group's saving, and inactive members still matter since their unused
low-tier range is what the active members absorb.

The collective price is then split back across consumers in proportion
to their stand-alone prices. Two rounding policies are provided:

* ``independent``: each share rounded half-up on its own. Matches how
  such figures are usually published, but the rounded shares need not
  sum to the rounded group price.
* ``exact-sum``: largest-remainder rounding in minor units, so shares
  sum exactly to the rounded group price. The default for billing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Sequence, Union

from .amounts import MONEY_PLACES, ExactLike, energy_amount, half_up_units, money_amount
from .errors import AllocationError
from .tariff import Column, TariffSchedule, TierTable

UsageVectorLike = Union[Mapping[str, ExactLike], Sequence[tuple[str, ExactLike]]]


class AllocationPolicy(Enum):
    INDEPENDENT = "independent"
    EXACT_SUM = "exact-sum"


@dataclass(frozen=True)
class AllocationResult:
    """Per-consumer display-money shares of a group price.

    ``adjustments`` lists the consumers that received extra minor units
    during exact-sum reconciliation, as (consumer, units) pairs; it is
    empty under the independent policy.
    """

    shares: dict[str, Fraction]
    policy: AllocationPolicy
    adjustments: tuple[tuple[str, int], ...]

    @property
    def total(self) -> Fraction:
        return sum(self.shares.values(), Fraction(0))


@dataclass(frozen=True)
class GroupPricingResult:
    """Individual prices, collective price, and the gap between them.

    All three are exact, unrounded amounts; ``saving`` is the exact
    sum-of-individuals minus the group price and is non-negative for
    every progressive schedule.
    """

    individual_prices: dict[str, Fraction]
    group_price: Fraction
    saving: Fraction
    currency: str

    @property
    def individual_total(self) -> Fraction:
        return sum(self.individual_prices.values(), Fraction(0))


def add_share(nums: list[int], dens: list[int], index: int, num: int, den: int):
    """Add ``num / den`` to the cell ``nums[index] / dens[index]``.

    A zero cell takes the share as it is. Any other cell stays over the
    lcm of the denominators it has received, never their product, and is
    not reduced: ``quantize_cells`` reduces a whole column at once.
    """
    have = dens[index]
    if not nums[index]:
        nums[index], dens[index] = num, den
    elif have == den:
        nums[index] += num
    else:
        common = math.lcm(have, den)
        nums[index] = nums[index] * (common // have) + num * (common // den)
        dens[index] = common


def quantize_cells(nums: Sequence[int], dens: Sequence[int]) -> Column:
    """Put the cells ``nums[i] / dens[i]`` on one quantum, each an integer
    count ``units[i]`` of it.

    The quantum is the lcm of the cells' denominators in lowest terms:
    the lcm of *dens* divided by its gcd with every count, whether or not
    the cells were in lowest terms. Every such quantum in the engine is
    built here.
    """
    common = math.lcm(*set(dens))
    units = [num * (common // den) for num, den in zip(nums, dens)]
    divisor = math.gcd(common, *units)
    if divisor > 1:
        return common // divisor, tuple(unit // divisor for unit in units)
    return common, tuple(units)


def quantize(values: Sequence[Fraction]) -> Column:
    """Put *values* on one quantum, the lcm of their denominators."""
    ratios = [value.as_integer_ratio() for value in values]
    return quantize_cells([num for num, _ in ratios], [den for _, den in ratios])


def price_group(table: TierTable, column: Column, size: int) -> tuple[int, int]:
    """Collective price of a usage column for a group of *size* consumers.

    Returns a numerator and a denominator. The price of the pooled usage
    u on the table widened by *size* is exactly size * P(u / size) on the
    table itself, and u / size is sum(units) / (quantum * size) kWh. An
    empty group pays nothing.
    """
    quantum, units = column
    if not size:
        return 0, 1
    denominator, (numerator,) = table.prices((quantum * size, (sum(units),)))
    return size * numerator, denominator


def _members(
    pairs: UsageVectorLike, convert: Callable[[ExactLike], Fraction]
) -> tuple[list[str], list[Fraction]]:
    """Distinct non-empty consumer ids and their amounts, each checked by
    *convert* (``energy_amount`` or ``money_amount``), in input order."""
    ids: list[str] = []
    amounts = []
    seen = set()
    for consumer, amount in pairs.items() if isinstance(pairs, Mapping) else pairs:
        if not isinstance(consumer, str) or not consumer:
            raise ValueError(f"consumer id must be a non-empty string, got {consumer!r}")
        if consumer in seen:
            raise ValueError(f"duplicate consumer id {consumer!r}")
        seen.add(consumer)
        ids.append(consumer)
        amounts.append(convert(amount))
    return ids, amounts


def _price_slot(
    slot_schedule: TariffSchedule, usages: UsageVectorLike
) -> tuple[dict[str, Fraction], Column]:
    """Every member's stand-alone price, and the slot's usage column."""
    ids, cells = _members(usages, energy_amount)
    column = quantize(cells)
    denominator, numerators = slot_schedule.table.prices(column)
    return {c: Fraction(n, denominator) for c, n in zip(ids, numerators)}, column


def individual_slot_prices(
    slot_schedule: TariffSchedule, usages: UsageVectorLike
) -> dict[str, Fraction]:
    """Price every consumer's slot usage on its own, exactly."""
    return _price_slot(slot_schedule, usages)[0]


def group_slot_price(
    slot_schedule: TariffSchedule, usages: UsageVectorLike
) -> Fraction:
    """Collective price of the pooled usage, tiers widened by group size.

    The group size N counts every consumer in the vector, including
    members with zero usage in this slot; their idle tier range is
    exactly what grouping lets the others use.
    """
    return group_saving(slot_schedule, usages).group_price


def allocate_units(
    group_num: int,
    group_den: int,
    weights: Sequence[int],
    policy: AllocationPolicy,
) -> tuple[list[int], list[int]]:
    """Minor-unit shares of the price group_num/group_den, by weight.

    Share i is proportional to ``weights[i]`` (non-negative integers,
    for example price numerators over one common denominator). Returns
    the shares and the sorted indices that received an extra unit under
    exact-sum reconciliation; between equal remainders the lower index
    comes first, so weights given in consumer id order break ties by id.
    Implements proportional_allocation on integers alone.
    """
    total = sum(weights)
    if total == 0:
        if group_num != 0:
            raise AllocationError(
                "cannot allocate a positive group price over all-zero "
                "individual prices"
            )
        return [0] * len(weights), []
    # Raw share i is group * w_i / total, the integer group_num * w_i over
    # ``scale``; in minor units it is (minor * group_num * w_i) / scale.
    scale = group_den * total
    if policy is AllocationPolicy.INDEPENDENT:
        return [half_up_units(group_num * weight, scale, MONEY_PLACES) for weight in weights], []
    scaled = 10**MONEY_PLACES * group_num
    shares, remainders = [], []
    for weight in weights:
        share, remainder = divmod(scaled * weight, scale)
        shares.append(share)
        remainders.append(remainder)
    target = half_up_units(group_num, group_den, MONEY_PLACES)
    # The floors fall short of the rounded group price by fewer units
    # than there are consumers, so nobody receives two.
    shortfall = target - sum(shares)
    extra = []
    if shortfall:
        # Largest fractional remainder first; the sort is stable, so the
        # lower index breaks ties.
        order = sorted(range(len(weights)), key=remainders.__getitem__, reverse=True)
        extra = sorted(order[:shortfall])
        for index in extra:
            shares[index] += 1
    return shares, extra


def proportional_allocation(
    group_price: ExactLike,
    individual_prices: UsageVectorLike,
    policy: AllocationPolicy | str = AllocationPolicy.EXACT_SUM,
) -> AllocationResult:
    """Split *group_price* across consumers in proportion to their prices.

    Raw share_i = group_price * price_i / sum(prices), computed exactly.
    The independent policy rounds each raw share half-up on its own; the
    exact-sum policy floors every share to minor units and hands the
    remaining units to the largest fractional remainders, ties broken by
    consumer id, so the shares sum exactly to round_money(group_price).

    A zero price sum with a positive group price has no defined
    proportions and raises AllocationError; an all-zero group allocates
    zero to everyone.
    """
    policy = AllocationPolicy(policy)
    group = money_amount(group_price)
    ids, prices = _members(individual_prices, money_amount)
    # allocate_units breaks ties by index, so it takes the consumers in id order.
    ordered = sorted(zip(ids, prices))
    _, weights = quantize([price for _, price in ordered])
    units, extra = allocate_units(group.numerator, group.denominator, weights, policy)
    minor = 10**MONEY_PLACES
    shares = {consumer: Fraction(unit, minor) for (consumer, _), unit in zip(ordered, units)}
    adjusted = {ordered[index][0] for index in extra}
    return AllocationResult(
        shares={consumer: shares[consumer] for consumer in ids},
        policy=policy,
        adjustments=tuple((consumer, 1) for consumer in ids if consumer in adjusted),
    )


def group_saving(
    slot_schedule: TariffSchedule, usages: UsageVectorLike
) -> GroupPricingResult:
    """Individual prices, collective price, and the resulting saving."""
    individual, column = _price_slot(slot_schedule, usages)
    if not individual:
        raise ValueError("group must contain at least one consumer")
    group = Fraction(*price_group(slot_schedule.table, column, len(individual)))
    return GroupPricingResult(
        individual_prices=individual,
        group_price=group,
        saving=sum(individual.values(), Fraction(0)) - group,
        currency=slot_schedule.currency,
    )
