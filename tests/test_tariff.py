from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progtariff import (
    ScheduleError,
    TariffTier,
    exact,
    format_energy,
    format_money,
    progressive_price,
    round_money,
    scale_schedule,
    slot_factor,
    tier_breakdown,
    validate_schedule,
)

from conftest import KEPCO_TIERS, make_schedule, random_fraction, random_progressive_schedule
from oracles import clip_price, quantum_price


# ----------------------------------------------------------------------
# validate_schedule
# ----------------------------------------------------------------------


def test_validate_full_residential_table():
    schedule = validate_schedule(
        {
            "currency": "KRW",
            "base_period_days": 30,
            "tiers": [
                {"upper_kwh": 100, "rate": "60.7"},
                {"upper_kwh": 200, "rate": "125.9"},
                {"upper_kwh": 300, "rate": "187.9"},
                {"upper_kwh": 400, "rate": "280.6"},
                {"upper_kwh": 500, "rate": "417.7"},
                {"upper_kwh": None, "rate": "709.5"},
            ],
        }
    )
    assert len(schedule.tiers) == 6
    assert schedule.tiers[0].rate == Fraction(607, 10)
    assert schedule.tiers[1].upper_bound == 200
    assert schedule.tiers[-1].upper_bound is None
    assert schedule.base_hours == 720
    assert schedule.is_progressive


def test_validate_single_free_tier():
    schedule = validate_schedule({"tiers": [{"upper_kwh": None, "rate": 0}]})
    assert progressive_price(schedule, 1000) == 0


def test_validate_rejects_non_increasing_bounds():
    with pytest.raises(ScheduleError, match="does not increase"):
        validate_schedule(
            {
                "tiers": [
                    {"upper_kwh": 100, "rate": 1},
                    {"upper_kwh": 100, "rate": 2},
                    {"upper_kwh": None, "rate": 3},
                ]
            }
        )


@pytest.mark.parametrize(
    "tiers, message",
    [
        ([], "at least one tier"),
        ([{"upper_kwh": 100, "rate": 1}], "last tier must be unbounded"),
        (
            [
                {"upper_kwh": None, "rate": 1},
                {"upper_kwh": None, "rate": 2},
            ],
            "only the last tier may be unbounded",
        ),
        ([{"upper_kwh": None, "rate": -1}], "rate must be >= 0"),
        (
            [{"upper_kwh": -5, "rate": 1}, {"upper_kwh": None, "rate": 1}],
            "tier 1: tier upper bound must be > 0, got -5",
        ),
    ],
)
def test_validate_rejects_malformed_tiers(tiers, message):
    with pytest.raises(ScheduleError, match=message):
        validate_schedule({"tiers": tiers})


def test_a_tier_bound_below_zero_is_refused_like_zero():
    # TariffTier reads the bound itself, so one rule and one message hold
    # for a bound of 0, a negative one and one too long to print.
    with pytest.raises(ScheduleError) as caught:
        TariffTier(-5, 1)
    assert str(caught.value) == "tier upper bound must be > 0, got -5"
    with pytest.raises(ScheduleError) as caught:
        validate_schedule({"tiers": [{"upper_kwh": "-1e4300", "rate": 1}, {"rate": 1}]})
    assert str(caught.value).startswith("tier 1: tier upper bound must be > 0, got")
    assert str(caught.value).endswith("got -<more than 4300 digits>")


def test_schedule_errors_keep_their_reason_for_unprintable_values():
    # 1e4300 has more digits than Python converts to text.
    huge = "<more than 4300 digits>"
    cases = [
        ([{"upper_kwh": None, "rate": "-1e4300"}], f"rate must be >= 0, got -{huge}"),
        (
            [{"upper_kwh": "2e4300", "rate": 1}, {"upper_kwh": "1e4300", "rate": 1},
             {"upper_kwh": None, "rate": 1}],
            f"bound {huge} does not increase past {huge}",
        ),
        (
            [{"upper_kwh": 1, "rate": "3e4300"}, {"upper_kwh": None, "rate": "2e4300"}],
            f"tier 2: rate {huge} decreases",
        ),
    ]
    for tiers, message in cases:
        with pytest.raises(ScheduleError) as caught:
            validate_schedule({"tiers": tiers})
        assert message in str(caught.value)
    with pytest.raises(ValueError) as caught:
        slot_factor("7e4300", 30)
    assert str(caught.value) == f"slot_hours must divide 24 evenly, got {huge}"


def test_validate_rejects_decreasing_rates_without_override():
    raw = {
        "tiers": [
            {"upper_kwh": 100, "rate": 10},
            {"upper_kwh": None, "rate": 5},
        ]
    }
    with pytest.raises(ScheduleError, match="decreases"):
        validate_schedule(raw)
    schedule = validate_schedule({**raw, "allow_rate_decrease": True})
    assert not schedule.is_progressive


FALLING = [{"upper_kwh": 100, "rate": 10}, {"upper_kwh": None, "rate": 5}]


@pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
def test_allow_rate_decrease_must_be_a_json_boolean(value):
    # bool("false") is True: a string must not switch off the convexity checks.
    with pytest.raises(ScheduleError, match="^allow_rate_decrease must be true or false$"):
        validate_schedule({"tiers": FALLING, "allow_rate_decrease": value})


def test_convexity_is_read_from_the_compiled_table(kepco):
    falling = validate_schedule({"tiers": FALLING, "allow_rate_decrease": True})
    equal = make_schedule([(100, 5), (None, 5)])
    for schedule, progressive in ((kepco, True), (equal, True), (falling, False)):
        assert schedule.table.progressive is schedule.is_progressive is progressive
        assert scale_schedule(schedule, Fraction(1, 120)).table.progressive is progressive


def test_allow_rate_decrease_accepts_true_false_or_nothing():
    assert not validate_schedule({"tiers": FALLING, "allow_rate_decrease": True}).is_progressive
    progressive = [{"upper_kwh": 100, "rate": 5}, {"upper_kwh": None, "rate": 10}]
    for extra in ({"allow_rate_decrease": False}, {}):
        assert not validate_schedule({"tiers": progressive, **extra}).allow_rate_decrease
        with pytest.raises(ScheduleError, match="decreases"):
            validate_schedule({"tiers": FALLING, **extra})


@pytest.mark.parametrize(
    "tier, message",
    [
        ({"upper_kwh": 0, "rate": 2}, "tier 2: tier upper bound must be > 0, got 0"),
        ({"upper_kwh": 200, "rate": -1}, "tier 2: tier rate must be >= 0, got -1"),
    ],
)
def test_tier_refusals_name_their_tier(tier, message):
    tiers = [{"upper_kwh": 100, "rate": 1}, tier, {"upper_kwh": None, "rate": 3}]
    with pytest.raises(ScheduleError) as caught:
        validate_schedule({"tiers": tiers})
    assert str(caught.value) == message


TIERS = [{"upper_kwh": None, "rate": 1}]


@pytest.mark.parametrize(
    "raw, message",
    [
        ([], "schedule description must be a mapping, got list"),
        ({"tiers": TIERS, "colour": "red"}, "unknown schedule fields: ['colour']"),
        ({"tiers": TIERS, "base_period_days": "x"}, "base_period_days: not a decimal"),
        ({"tiers": "none"}, "schedule needs a 'tiers' list"),
        ({"tiers": [5]}, "tier 1: expected a mapping"),
        ({"tiers": [{"rate": 1, "note": ""}]}, "tier 1: unknown fields ['note']"),
        ({"tiers": [{"upper_kwh": None}]}, "tier 1: missing rate"),
        ({"tiers": TIERS, "currency": ""}, "currency must be a non-empty string"),
    ],
)
def test_validate_refuses_a_malformed_description(raw, message):
    with pytest.raises(ScheduleError) as caught:
        validate_schedule(raw)
    assert str(caught.value).startswith(message)


def test_validate_rejects_float_bounds():
    with pytest.raises(ScheduleError, match="float"):
        validate_schedule(
            {"tiers": [{"upper_kwh": 0.8333, "rate": 1}, {"upper_kwh": None, "rate": 2}]}
        )


# ----------------------------------------------------------------------
# progressive_price
# ----------------------------------------------------------------------


def test_price_monthly_350(kepco):
    assert progressive_price(kepco, 350) == 51480


def test_price_zero_usage(kepco):
    assert progressive_price(kepco, 0) == 0


def test_price_first_tier_boundary(kepco):
    assert progressive_price(kepco, 100) == 6070


def test_price_slot_scaled(kepco_slot):
    price = progressive_price(kepco_slot, Fraction(5, 2))
    assert price == Fraction(3745, 12)
    assert format_money(price) == "312.08"


def test_price_rejects_negative_usage(kepco):
    with pytest.raises(ValueError, match=">= 0"):
        progressive_price(kepco, -1)


def test_price_rejects_float_usage(kepco):
    with pytest.raises(TypeError, match="float"):
        progressive_price(kepco, 2.5)


# Each of these is refused before any power of ten is built; handed to
# Fraction, the first would build 10**100000000 and hang.
@pytest.mark.parametrize(
    "value",
    ["1e100000000", "1E-100000000", " 2.5e+4301 ", "7e4_301"],
)
def test_exact_rejects_a_huge_decimal_exponent(value):
    with pytest.raises(ValueError, match="exponent beyond"):
        exact(value)


def test_exact_accepts_the_largest_decimal_exponent():
    assert exact("1e4300") == 10**4300
    assert exact("1e-4300") == Fraction(1, 10**4300)


def test_exact_refuses_a_decimal():
    with pytest.raises(TypeError, match="^cannot convert Decimal to an exact number$"):
        exact(Decimal("1.5"))


def test_underscored_schedule_rate_is_refused():
    tiers = [{"upper_kwh": 100, "rate": "6_0.7"}, {"upper_kwh": None, "rate": "709.5"}]
    with pytest.raises(ScheduleError, match=r"^tier 1: not a decimal or p/q number: '6_0.7'$"):
        validate_schedule({"tiers": tiers})


def test_exact_error_clips_a_long_input():
    with pytest.raises(ValueError) as caught:
        exact("5" * 5000 + "x")
    message = str(caught.value)
    assert message.startswith("not a decimal or p/q number: '5555")
    assert message.endswith("... (5001 characters)")
    assert len(message) < 120


# ----------------------------------------------------------------------
# tier_breakdown
# ----------------------------------------------------------------------


def test_breakdown_350(kepco):
    assert tier_breakdown(kepco, 350) == [
        (1, Fraction(100), Fraction(6070)),
        (2, Fraction(100), Fraction(12590)),
        (3, Fraction(100), Fraction(18790)),
        (4, Fraction(50), Fraction(14030)),
    ]


def test_breakdown_zero_is_empty(kepco):
    assert tier_breakdown(kepco, 0) == []


def test_breakdown_600_reaches_open_tier(kepco):
    rows = tier_breakdown(kepco, 600)
    assert len(rows) == 6
    assert rows[-1] == (6, Fraction(100), Fraction(70950))


def test_breakdown_sums_match_price(kepco, rng):
    for _ in range(200):
        usage = random_fraction(rng, max_num=700)
        rows = tier_breakdown(kepco, usage)
        assert sum((energy for _, energy, _ in rows), Fraction(0)) == usage
        assert sum((charge for _, _, charge in rows), Fraction(0)) == progressive_price(
            kepco, usage
        )


# ----------------------------------------------------------------------
# scale_schedule / slot_factor
# ----------------------------------------------------------------------


def test_scale_slot_bound_is_five_sixths(kepco):
    scaled = scale_schedule(kepco, slot_factor(6, 30))
    assert scaled.tiers[0].upper_bound == Fraction(5, 6)
    assert format_energy(scaled.tiers[0].upper_bound) == "0.8333"
    assert scaled.base_hours == 6
    assert [tier.rate for tier in scaled.tiers] == [tier.rate for tier in kepco.tiers]


def test_scale_identity(kepco):
    assert scale_schedule(kepco, 1) == kepco


def test_scale_composition_group_of_three(kepco):
    slot = scale_schedule(kepco, Fraction(1, 120))
    widened = scale_schedule(slot, 3)
    assert widened.tiers[0].upper_bound == Fraction(5, 2)
    assert widened == scale_schedule(kepco, Fraction(1, 40))


def test_scale_composition_random(rng):
    for _ in range(50):
        schedule = random_progressive_schedule(rng)
        a = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        b = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        assert scale_schedule(scale_schedule(schedule, a), b) == scale_schedule(
            schedule, a * b
        )


@pytest.mark.parametrize(
    "hours, days, expected",
    [(6, 30, Fraction(1, 120)), (24, 30, Fraction(1, 30)), (12, 30, Fraction(1, 60))],
)
def test_slot_factor_values(hours, days, expected):
    assert slot_factor(hours, days) == expected


def test_slot_factor_rejects_non_divisor():
    with pytest.raises(ValueError, match="divide 24"):
        slot_factor(5, 30)


def test_slot_factor_rejects_bad_days():
    with pytest.raises(ValueError, match=">= 1"):
        slot_factor(6, 0)
    with pytest.raises(TypeError):
        slot_factor(6, "30")


def test_slot_factor_fractional_hours():
    assert slot_factor(Fraction(3, 2), 30) == Fraction(1, 480)


# ----------------------------------------------------------------------
# money display
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(3745, 12), "312.08"),
        (Fraction(0), "0.00"),
        (exact("139.9968"), "140.00"),
        (exact("0.005"), "0.01"),
        (Fraction(933, 2), "466.50"),
        (exact("-0.005"), "-0.01"),
        (Fraction(-1, 300), "0.00"),
        (exact("-2.345"), "-2.35"),
        (Fraction(-200, 3), "-66.67"),
    ],
)
def test_money_display(value, text):
    assert format_money(value) == text
    assert format_money(round_money(value)) == text


def test_round_money_is_exact_quantization():
    assert round_money(exact("312.0833")) == Fraction(31208, 100)
    assert round_money(exact("312.085")) == Fraction(31209, 100)
    assert round_money(exact("-312.085")) == Fraction(-31209, 100)


# ----------------------------------------------------------------------
# pricing properties
# ----------------------------------------------------------------------


def test_zero_price_for_any_schedule(rng):
    for _ in range(50):
        assert progressive_price(random_progressive_schedule(rng), 0) == 0


def test_price_monotone_in_usage(rng):
    for _ in range(200):
        schedule = random_progressive_schedule(rng)
        u1 = random_fraction(rng)
        u2 = u1 + random_fraction(rng)
        assert progressive_price(schedule, u1) <= progressive_price(schedule, u2)


def test_price_convex_on_rational_triples(rng):
    for _ in range(200):
        schedule = random_progressive_schedule(rng)
        u1 = random_fraction(rng)
        u2 = random_fraction(rng)
        lam = Fraction(rng.randint(0, 24), 24)
        mixed = progressive_price(schedule, lam * u1 + (1 - lam) * u2)
        ends = lam * progressive_price(schedule, u1) + (1 - lam) * progressive_price(
            schedule, u2
        )
        assert mixed <= ends


def test_scaling_homogeneity(rng):
    """price(scale(s, f), f*u) == f * price(s, u), exactly."""
    for _ in range(300):
        schedule = random_progressive_schedule(rng)
        factor = Fraction(rng.randint(1, 200), rng.randint(1, 200))
        usage = random_fraction(rng)
        assert progressive_price(
            scale_schedule(schedule, factor), factor * usage
        ) == factor * progressive_price(schedule, usage)


def test_price_matches_quantum_walk_oracle(kepco):
    bounds = [tier.upper_bound for tier in kepco.tiers]
    rates = [tier.rate for tier in kepco.tiers]
    usage = Fraction(0)
    while usage <= 600:
        assert progressive_price(kepco, usage) == quantum_price(bounds, rates, usage)
        usage += Fraction(25, 8)


def test_price_matches_quantum_walk_on_slot_schedule(kepco_slot):
    bounds = [tier.upper_bound for tier in kepco_slot.tiers]
    rates = [tier.rate for tier in kepco_slot.tiers]
    for numerator in range(0, 36):
        usage = Fraction(numerator, 6)
        assert progressive_price(kepco_slot, usage) == quantum_price(
            bounds, rates, usage
        )


# The slot schedule of the residential tariff, and one whose rates fall.
_PRICED_SCHEDULES = {
    "progressive": scale_schedule(make_schedule(KEPCO_TIERS), slot_factor(6, 30)),
    "falling": make_schedule(
        [(Fraction(5, 6), "60.7"), (Fraction(5, 3), "12.5"), (None, "30")],
        allow_rate_decrease=True,
    ),
}


@st.composite
def _usage_columns(draw):
    """Columns on at least two quanta, whose units come from one small
    pool, so units repeat within a column and across columns."""
    pool = draw(st.lists(st.integers(0, 60), min_size=1, max_size=6))
    quanta = draw(
        st.lists(st.sampled_from([1, 3, 6, 8]), min_size=2, max_size=6).filter(
            lambda quanta: len(set(quanta)) > 1
        )
    )
    return [
        (quantum, tuple(draw(st.lists(st.sampled_from(pool), max_size=8))))
        for quantum in quanta
    ]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_PRICED_SCHEDULES)), _usage_columns())
def test_prices_of_many_columns_match_the_oracles(name, columns):
    schedule = _PRICED_SCHEDULES[name]
    bounds = [tier.upper_bound for tier in schedule.tiers]
    rates = [tier.rate for tier in schedule.tiers]
    priced = list(schedule.table.prices(columns))
    assert len(priced) == len(columns)
    # (quantum, unit) -> the numerator it was first priced at
    first = {}
    for (quantum, units), (denominator, numerators) in zip(columns, priced):
        assert len(numerators) == len(units)
        for unit, numerator in zip(units, numerators):
            usage = Fraction(unit, quantum)
            price = Fraction(numerator, denominator)
            assert price == clip_price(bounds, rates, usage) == quantum_price(bounds, rates, usage)
            # Equal cells share one int: each is priced once per call.
            assert first.setdefault((quantum, unit), numerator) is numerator
