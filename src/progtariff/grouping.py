"""Collective tariff application for consumer groups, and price allocation.

For one time slot, a group of N consumers can be billed as a single
virtual consumer: widen the slot tariff's ranges by N and price the
pooled usage. Because the price function is convex, the collective
price never exceeds the sum of stand-alone individual prices, the gap
is the group's saving, and inactive members still matter since their
unused low-tier range is what the active members absorb.

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
from typing import Mapping, Sequence, Union

from .amounts import MONEY_PLACES, ExactLike, energy_amount, money_amount, round_money
from .errors import AllocationError
from .tariff import TariffSchedule, progressive_price, scale_schedule

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
    every progressive schedule. The ``billed_*`` properties give the
    minor-unit view, where the individual total is the sum of the
    individually rounded bills (the number a published comparison adds
    up to) and the saving is the difference of the billed totals.
    """

    individual_prices: dict[str, Fraction]
    group_price: Fraction
    saving: Fraction
    currency: str

    @property
    def individual_total(self) -> Fraction:
        return sum(self.individual_prices.values(), Fraction(0))

    @property
    def billed_individual_total(self) -> Fraction:
        return sum(
            (round_money(price) for price in self.individual_prices.values()),
            Fraction(0),
        )

    @property
    def billed_group_price(self) -> Fraction:
        return round_money(self.group_price)

    @property
    def billed_saving(self) -> Fraction:
        return self.billed_individual_total - self.billed_group_price


def _normalize_usages(usages: UsageVectorLike) -> list[tuple[str, Fraction]]:
    if isinstance(usages, Mapping):
        pairs = list(usages.items())
    else:
        pairs = [(consumer, amount) for consumer, amount in usages]
    seen = set()
    normalized = []
    for consumer, amount in pairs:
        if not isinstance(consumer, str) or not consumer:
            raise ValueError(f"consumer id must be a non-empty string, got {consumer!r}")
        if consumer in seen:
            raise ValueError(f"duplicate consumer id {consumer!r}")
        seen.add(consumer)
        normalized.append((consumer, energy_amount(amount)))
    return normalized


def individual_slot_prices(
    slot_schedule: TariffSchedule, usages: UsageVectorLike
) -> dict[str, Fraction]:
    """Price every consumer's slot usage on its own, exactly."""
    return {
        consumer: progressive_price(slot_schedule, amount)
        for consumer, amount in _normalize_usages(usages)
    }


def group_slot_price(
    slot_schedule: TariffSchedule, usages: UsageVectorLike
) -> Fraction:
    """Collective price of the pooled usage, tiers widened by group size.

    The group size N counts every consumer in the vector, including
    members with zero usage in this slot; their idle tier range is
    exactly what grouping lets the others use.
    """
    members = _normalize_usages(usages)
    if not members:
        raise ValueError("group must contain at least one consumer")
    pooled = sum((amount for _, amount in members), Fraction(0))
    widened = scale_schedule(slot_schedule, len(members))
    return progressive_price(widened, pooled)


def allocate_units(
    group_num: int,
    group_den: int,
    weights: Sequence[int],
    ids: Sequence[str],
    policy: AllocationPolicy,
) -> tuple[list[int], list[int]]:
    """Minor-unit shares of the price group_num/group_den, by weight.

    Share i is proportional to ``weights[i]`` (non-negative integers,
    for example price numerators over one common denominator). Returns
    the shares and the sorted indices that received an extra unit under
    exact-sum reconciliation; ``ids`` break ties between equal
    remainders. Implements proportional_allocation on integers alone.
    """
    minor = 10**MONEY_PLACES
    total = sum(weights)
    if total == 0:
        if group_num != 0:
            raise AllocationError(
                "cannot allocate a positive group price over all-zero "
                "individual prices"
            )
        return [0] * len(weights), []
    # Raw share i, in minor units, is minor * group * w_i / total, which
    # is the integer (minor * group_num * w_i) over ``scale``.
    scale = group_den * total
    scaled = minor * group_num
    if policy is AllocationPolicy.INDEPENDENT:
        return [(2 * scaled * weight + scale) // (2 * scale) for weight in weights], []
    shares, remainders = [], []
    for weight in weights:
        share, remainder = divmod(scaled * weight, scale)
        shares.append(share)
        remainders.append(remainder)
    target = (2 * scaled + group_den) // (2 * group_den)
    # The floors fall short of the rounded group price by fewer units
    # than there are consumers, so nobody receives two.
    shortfall = target - sum(shares)
    extra = []
    if shortfall:
        # Largest fractional remainder first; consumer id breaks ties.
        order = sorted(range(len(weights)), key=lambda i: (-remainders[i], ids[i]))
        extra = sorted(order[:shortfall])
        for index in extra:
            shares[index] += 1
    return shares, extra


def proportional_allocation(
    group_price: ExactLike,
    individual_prices: Mapping[str, ExactLike] | Sequence[tuple[str, ExactLike]],
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
    if isinstance(individual_prices, Mapping):
        pairs = list(individual_prices.items())
    else:
        pairs = list(individual_prices)
    prices = {}
    for consumer, price in pairs:
        if consumer in prices:
            raise ValueError(f"duplicate consumer id {consumer!r}")
        prices[consumer] = money_amount(price)
    ids = list(prices)
    scale = math.lcm(*(price.denominator for price in prices.values()))
    weights = [price.numerator * (scale // price.denominator) for price in prices.values()]
    units, extra = allocate_units(group.numerator, group.denominator, weights, ids, policy)
    minor = 10**MONEY_PLACES
    return AllocationResult(
        shares={consumer: Fraction(share, minor) for consumer, share in zip(ids, units)},
        policy=policy,
        adjustments=tuple((ids[index], 1) for index in extra),
    )


def group_saving(
    slot_schedule: TariffSchedule, usages: UsageVectorLike
) -> GroupPricingResult:
    """Individual prices, collective price, and the resulting saving."""
    members = _normalize_usages(usages)
    if not members:
        raise ValueError("group must contain at least one consumer")
    individual = individual_slot_prices(slot_schedule, members)
    group = group_slot_price(slot_schedule, members)
    total = sum(individual.values(), Fraction(0))
    return GroupPricingResult(
        individual_prices=individual,
        group_price=group,
        saving=total - group,
        currency=slot_schedule.currency,
    )
