import random
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import pytest

from progtariff import (
    SlotGrid,
    TariffSchedule,
    TariffTier,
    exact,
    scale_schedule,
    slot_factor,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

KEPCO_TIERS = [
    (100, "60.7"),
    (200, "125.9"),
    (300, "187.9"),
    (400, "280.6"),
    (500, "417.7"),
    (None, "709.5"),
]


def make_schedule(tiers, currency="KRW", base_days=30, allow_rate_decrease=False):
    return TariffSchedule(
        tiers=tuple(TariffTier(bound, rate) for bound, rate in tiers),
        currency=currency,
        base_hours=exact(base_days) * 24,
        allow_rate_decrease=allow_rate_decrease,
    )


@pytest.fixture(scope="session")
def kepco():
    return make_schedule(KEPCO_TIERS)


@pytest.fixture(scope="session")
def kepco_slot(kepco):
    """The residential schedule rescaled onto one 6-hour slot."""
    return scale_schedule(kepco, slot_factor(6, 30))


@pytest.fixture(scope="session")
def slot_usages():
    """Three consumers in one slot; prices display as 312.08/155.50/50.58."""
    return [("c1", Fraction(5, 2)), ("c2", Fraction(5, 3)), ("c3", Fraction(5, 6))]


@pytest.fixture
def month_grid():
    return SlotGrid(
        slot_hours=Fraction(6),
        period_days=30,
        period_start=datetime(2025, 1, 1, tzinfo=timezone.utc),
    )


def random_fraction(rng, max_num=400, max_den=24):
    return Fraction(rng.randint(0, max_num), rng.randint(1, max_den))


def random_progressive_schedule(rng, max_tiers=6):
    """A random convex schedule with rational bounds and rates."""
    tier_count = rng.randint(1, max_tiers)
    bounds = []
    level = Fraction(0)
    for _ in range(tier_count - 1):
        level += Fraction(rng.randint(1, 120), rng.randint(1, 12))
        bounds.append(level)
    rate = Fraction(rng.randint(0, 200), rng.randint(1, 10))
    rates = [rate]
    for _ in range(tier_count - 1):
        rate += Fraction(rng.randint(0, 300), rng.randint(1, 10))
        rates.append(rate)
    tiers = [(bound, rate) for bound, rate in zip(bounds, rates)]
    tiers.append((None, rates[-1]))
    return make_schedule(tiers)


@pytest.fixture
def rng():
    return random.Random(20250101)
