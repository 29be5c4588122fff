"""Progressive (block) tariff schedules and their exact evaluation.

A progressive tariff charges successive blocks of consumption at
increasing per-kWh rates: the first 100 kWh at one rate, the next 100 at
a higher one, and so on, with the last tier open-ended. The price
function is piecewise linear and, as long as rates never decrease,
convex. Schedules can be rescaled exactly, to shrink a monthly tariff
onto a 6-hour slot or to widen a slot tariff for a group of consumers,
and scaling commutes with pricing:

    progressive_price(scale_schedule(s, f), f * u) == f * progressive_price(s, u)

holds as an exact identity for every rational f > 0. That identity is
what makes slot-level and period-level billing comparable at all.

Every schedule is compiled once, at construction, into a TierTable of
plain integers; all pricing reads that table.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .amounts import ExactLike, echo_value, energy_amount, exact, scale_value
from .errors import ScheduleError

HOURS_PER_DAY = 24

# One slot of a consumer x slot grid: (denominator, integers), so that
# cell i is integers[i] / denominator. Usage, stand-alone prices and
# allocated shares are all stored this way. Each column has its own
# denominator: one lcm over a whole matrix of unrelated denominators
# would make every integer in it huge.
Column = tuple[int, Sequence[int]]


@dataclass(frozen=True)
class TariffTier:
    """One consumption block: its cumulative upper bound and its rate.

    ``upper_bound`` is the cumulative kWh level where the tier ends, or
    None for the open-ended last tier. Both are read with ``exact``; a
    bound must be > 0 and a rate >= 0.
    """

    upper_bound: Optional[Fraction]
    rate: Fraction

    def __post_init__(self):
        if self.upper_bound is not None:
            bound = exact(self.upper_bound)
            if bound <= 0:
                raise ScheduleError(f"tier upper bound must be > 0, got {echo_value(bound)}")
            object.__setattr__(self, "upper_bound", bound)
        rate = exact(self.rate)
        if rate < 0:
            raise ScheduleError(f"tier rate must be >= 0, got {echo_value(rate)}")
        object.__setattr__(self, "rate", rate)


class TierTable:
    """A schedule's tiers compiled to integers, for exact pricing by bisection.

    ``bounds`` holds the finite tier bounds in units of 1/``bound_scale``
    kWh, where ``bound_scale`` is the lcm of the bound denominators.
    ``rates`` holds every tier's rate in units of 1/``rate_scale`` per kWh,
    where ``rate_scale`` is the lcm of the rate denominators.
    ``charges[i]`` is the cumulative charge at the lower end of tier i, in
    units of 1/(``bound_scale`` * ``rate_scale``). Integers never
    overflow, so the table is exact for any rational schedule.
    ``progressive`` is True when no rate decreases (a convex price).
    """

    __slots__ = ("bound_scale", "rate_scale", "bounds", "rates", "charges", "progressive")

    def __init__(self, tiers: Sequence[TariffTier]):
        finite = [tier.upper_bound for tier in tiers[:-1]]
        self.bound_scale = math.lcm(*(bound.denominator for bound in finite))
        self.rate_scale = math.lcm(*(tier.rate.denominator for tier in tiers))
        self.bounds = [b.numerator * (self.bound_scale // b.denominator) for b in finite]
        self.rates = [t.rate.numerator * (self.rate_scale // t.rate.denominator) for t in tiers]
        self.progressive = all(a <= b for a, b in zip(self.rates, self.rates[1:]))
        self.charges = [0]
        lower = 0
        for bound, rate in zip(self.bounds, self.rates):
            self.charges.append(self.charges[-1] + rate * (bound - lower))
            lower = bound

    def prices(self, columns: Iterable[Column]) -> Iterator[Column]:
        """Yield the price column of each usage column as it is priced:
        cell ``units[i] / quantum`` kWh costs ``numerators[i] / (quantum *
        bound_scale * rate_scale)``. Usages must be >= 0.

        Each distinct cell usage, a ``(quantum, unit)`` pair, is priced
        once per pass, and equal cells share one numerator ``int``. The
        memo of prices lives as long as the pass.
        """
        scale = self.bound_scale
        rates = self.rates
        # quantum -> its price denominator, tier edges, tier lows, tier
        # base charges and the numerators priced so far, by unit
        memos: dict[int, tuple[int, list[int], list[int], list[int], dict[int, int]]] = {}
        for quantum, units in columns:
            found = memos.get(quantum)
            if found is None:
                # Levels, tier edges and charges all count 1/(quantum *
                # bound_scale) kWh steps, so each price is one bisection
                # and one multiply-add.
                edges = [bound * quantum for bound in self.bounds]
                bases = [charge * quantum for charge in self.charges]
                denominator = quantum * scale * self.rate_scale
                found = memos[quantum] = denominator, edges, [0, *edges], bases, {}
            denominator, edges, lows, bases, memo = found
            numerators = []
            for unit in units:
                price = memo.get(unit)
                if price is None:
                    level = unit * scale
                    tier = bisect_left(edges, level)
                    price = memo[unit] = bases[tier] + rates[tier] * (level - lows[tier])
                numerators.append(price)
            yield denominator, numerators


@dataclass(frozen=True)
class TariffSchedule:
    """An ordered list of tiers plus the billing period they were quoted for.

    Invariants enforced at construction: at least one tier, strictly
    increasing bounds, exactly one unbounded tier and it comes last, and
    non-decreasing rates. The last rule keeps the price function convex;
    a deliberately non-progressive schedule is accepted only with
    ``allow_rate_decrease=True``, and convexity-based sanity checks are
    skipped for it downstream. ``table`` is the schedule compiled for
    pricing.
    """

    tiers: tuple[TariffTier, ...]
    currency: str = "KRW"
    base_hours: Fraction = Fraction(720)
    allow_rate_decrease: bool = False
    table: TierTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tiers = tuple(self.tiers)
        if not tiers:
            raise ScheduleError("schedule needs at least one tier")
        previous = Fraction(0)
        for index, tier in enumerate(tiers, start=1):
            if tier.upper_bound is None:
                if index != len(tiers):
                    raise ScheduleError(
                        f"tier {index}: only the last tier may be unbounded"
                    )
            else:
                if tier.upper_bound <= previous:
                    raise ScheduleError(
                        f"tier {index}: bound {echo_value(tier.upper_bound)} does not "
                        f"increase past {echo_value(previous)}"
                    )
                previous = tier.upper_bound
        if tiers[-1].upper_bound is not None:
            raise ScheduleError("last tier must be unbounded")
        if not self.allow_rate_decrease:
            for index in range(1, len(tiers)):
                if tiers[index].rate < tiers[index - 1].rate:
                    raise ScheduleError(
                        f"tier {index + 1}: rate {echo_value(tiers[index].rate)} decreases; "
                        "pass allow_rate_decrease=True to accept a "
                        "non-progressive schedule"
                    )
        base = scale_value(self.base_hours)
        if not self.currency or not isinstance(self.currency, str):
            raise ScheduleError("currency must be a non-empty string")
        object.__setattr__(self, "tiers", tiers)
        object.__setattr__(self, "base_hours", base)
        object.__setattr__(self, "table", TierTable(tiers))

    @property
    def is_progressive(self) -> bool:
        """True when rates never decrease (convex price function)."""
        return self.table.progressive


def validate_schedule(raw: Mapping) -> TariffSchedule:
    """Build a TariffSchedule from a plain description mapping.

    Expected shape::

        {"currency": "KRW",
         "base_period_days": 30,
         "tiers": [{"upper_kwh": 100, "rate": "60.7"}, ...,
                   {"upper_kwh": null, "rate": "709.5"}]}

    Bounds and rates may be ints or decimal / p-over-q strings; they are
    parsed to exact rationals. A tier may carry ``upper_kwh_exact`` (a
    lossless p/q string) which takes precedence over ``upper_kwh``; the
    same goes for ``rate_exact``. ``"allow_rate_decrease": true`` accepts
    a non-progressive schedule; the field, if present, must be a bool.
    Raises ScheduleError on any violation.
    """
    if not isinstance(raw, Mapping):
        raise ScheduleError(f"schedule description must be a mapping, got {type(raw).__name__}")
    unknown = set(raw) - {
        "currency",
        "base_period_days",
        "base_period_days_exact",
        "tiers",
        "allow_rate_decrease",
    }
    if unknown:
        raise ScheduleError(f"unknown schedule fields: {sorted(unknown)}")
    currency = raw.get("currency", "KRW")
    try:
        base_days = scale_value(
            raw.get("base_period_days_exact", raw.get("base_period_days", 30))
        )
    except (ValueError, TypeError) as err:
        raise ScheduleError(f"base_period_days: {err}") from err
    tiers_raw = raw.get("tiers")
    if not isinstance(tiers_raw, Sequence) or isinstance(tiers_raw, (str, bytes)):
        raise ScheduleError("schedule needs a 'tiers' list")
    tiers = []
    for index, item in enumerate(tiers_raw, start=1):
        if not isinstance(item, Mapping):
            raise ScheduleError(f"tier {index}: expected a mapping")
        bad = set(item) - {"upper_kwh", "upper_kwh_exact", "rate", "rate_exact"}
        if bad:
            raise ScheduleError(f"tier {index}: unknown fields {sorted(bad)}")
        upper = item.get("upper_kwh_exact", item.get("upper_kwh"))
        if "rate" not in item and "rate_exact" not in item:
            raise ScheduleError(f"tier {index}: missing rate")
        rate = item.get("rate_exact", item.get("rate"))
        try:
            tiers.append(TariffTier(upper, rate))
        except (ValueError, TypeError, ScheduleError) as err:
            raise ScheduleError(f"tier {index}: {err}") from err
    allow_rate_decrease = raw.get("allow_rate_decrease", False)
    if not isinstance(allow_rate_decrease, bool):
        raise ScheduleError("allow_rate_decrease must be true or false")
    return TariffSchedule(
        tiers=tuple(tiers),
        currency=currency,
        base_hours=base_days * HOURS_PER_DAY,
        allow_rate_decrease=allow_rate_decrease,
    )


def progressive_price(schedule: TariffSchedule, usage: ExactLike) -> Fraction:
    """Exact price of *usage* kWh under *schedule*.

    Energy inside each tier's range is charged at that tier's rate, and
    whatever exceeds the last bounded tier is charged at the open-ended
    rate. The result is an exact, unrounded currency amount.
    """
    amount = energy_amount(usage)
    column = (amount.denominator, (amount.numerator,))
    [(denominator, (numerator,))] = schedule.table.prices([column])
    return Fraction(numerator, denominator)


def tier_breakdown(
    schedule: TariffSchedule, usage: ExactLike
) -> list[tuple[int, Fraction, Fraction]]:
    """Per-tier (tier number, energy in tier, charge) rows for *usage*.

    Only tiers that actually receive energy appear; numbering is 1-based
    and in schedule order. Energies sum to the usage and charges sum to
    progressive_price, both exactly.
    """
    amount = energy_amount(usage)
    rows = []
    lower = Fraction(0)
    for number, tier in enumerate(schedule.tiers, start=1):
        bound = tier.upper_bound
        upper = amount if bound is None else min(amount, bound)
        if upper > lower:
            rows.append((number, upper - lower, tier.rate * (upper - lower)))
        lower = upper
    return rows


def scale_schedule(schedule: TariffSchedule, factor: ExactLike) -> TariffSchedule:
    """Rescale every tier range by *factor*, keeping rates untouched.

    Shrinking (factor < 1) adapts a tariff to a shorter period, for
    example 1/120 maps a 30-day tariff onto one 6-hour slot. Widening by
    an integer N turns a slot tariff into the collective tariff for a
    group of N consumers. The base period annotation scales along.
    """
    multiplier = scale_value(factor)
    tiers = tuple(
        TariffTier(
            None if tier.upper_bound is None else tier.upper_bound * multiplier,
            tier.rate,
        )
        for tier in schedule.tiers
    )
    return TariffSchedule(
        tiers=tiers,
        currency=schedule.currency,
        base_hours=schedule.base_hours * multiplier,
        allow_rate_decrease=schedule.allow_rate_decrease,
    )


def slot_factor(slot_hours: ExactLike, days_per_period: int) -> Fraction:
    """Factor that maps a whole-period tariff onto one time slot.

    ``slot_hours`` must divide 24 so a day splits into whole slots;
    the factor is then slot_hours / (24 * days_per_period). With 6-hour
    slots and a 30-day period this is exactly 1/120.
    """
    hours = exact(slot_hours)
    if hours.numerator <= 0:
        raise ValueError(f"slot_hours must be > 0, got {echo_value(hours)}")
    if (Fraction(HOURS_PER_DAY) / hours).denominator != 1:
        raise ValueError(f"slot_hours must divide 24 evenly, got {echo_value(hours)}")
    if isinstance(days_per_period, bool) or not isinstance(days_per_period, int):
        raise TypeError("period_days must be an integer")
    if days_per_period < 1:
        raise ValueError(f"period_days must be >= 1, got {days_per_period}")
    return hours / (HOURS_PER_DAY * days_per_period)
