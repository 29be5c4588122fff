"""The integer text routines and the energy reader against their oracles.

``fixed_text`` and ``exact_text`` render ``num/den`` straight from
integers, with ``den`` shared and not reduced, and ``units_text``
renders the minor units both end in; the oracles render a reduced
Fraction. Both must give the same text, or the same error, for
every value. ``exact`` reads plain decimals from their digits; its
oracle reads every string with ``Fraction(str)``. The examples are
derandomized, so every run checks the same cases.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from progtariff.amounts import (
    exact,
    exact_str,
    exact_text,
    fixed_text,
    format_fixed,
    units_text,
)

from oracles import desk_exact, desk_exact_str, desk_format_fixed

LIMIT = sys.get_int_max_str_digits()

numerators = st.integers(-(10**30), 10**30)
# 2**a * 5**b * r: terminating when r == 1 or r divides the numerator.
denominators = st.builds(
    lambda a, b, r: 2**a * 5**b * r,
    st.integers(0, 12),
    st.integers(0, 12),
    st.sampled_from([1, 3, 7, 9, 21, 999983]),
)
places = st.sampled_from([0, 2, 4])
# Multiplies numerator and denominator alike: the value stays, the
# representation moves further from lowest terms.
common = st.sampled_from([1, 2, 3, 5, 10, 21, 999983])


def outcome(render, *args):
    try:
        return "text", render(*args)
    except ValueError as err:
        return "error", str(err)


def pairs(num, den, factor):
    value = Fraction(num, den)
    return value, [
        (num, den),
        (value.numerator, value.denominator),
        (num * factor, den * factor),
    ]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(numerators, denominators, places, common)
def test_integer_renderers_match_fraction_oracles(num, den, digits, factor):
    value, forms = pairs(num, den, factor)
    fixed = desk_format_fixed(value, digits)
    lossless = desk_exact_str(value)
    for n, d in forms:
        assert fixed_text(n, d, digits) == fixed
        assert exact_text(n, d) == lossless
    assert format_fixed(value, digits) == fixed
    assert exact_str(value) == lossless


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    numerators,
    denominators,
    places,
    st.sampled_from(["whole", "denominator", "unreduced"]),
    st.integers(LIMIT - 40, LIMIT + 60),
)
def test_integer_renderers_match_oracles_past_the_digit_limit(
    num, den, digits, where, exponent
):
    """Near and past ``sys.int_max_str_digits``: the same text or the same
    display-limit error. An unreduced pair whose value prints must print."""
    scale = 10**exponent
    if where == "whole":
        num *= scale
    elif where == "denominator":
        den *= scale
    else:
        num, den = num * scale, den * scale
    value = Fraction(num, den)
    for n, d in ((num, den), (value.numerator, value.denominator)):
        assert outcome(fixed_text, n, d, digits) == outcome(
            desk_format_fixed, value, digits
        )
        assert outcome(exact_text, n, d) == outcome(desk_exact_str, value)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(numerators | st.sampled_from([0, 5, -5, 1230, -1230, 1200, -1200, -1234]), places)
@example(-1234, 2)
def test_minor_unit_texts_match_fraction_oracles(units, digits):
    # -1234 is -12.34, not the -13.66 that divmod(-1234, 100) would give.
    value = Fraction(units, 10**digits)
    assert units_text(units, digits) == desk_format_fixed(value, digits)
    assert units_text(units, digits, trim=True) == desk_exact_str(value)


def test_minor_unit_texts_examples_and_digit_limit():
    assert [units_text(u, 2) for u in (-1234, -5, 0, 5, 1230, 1200)] == [
        "-12.34", "-0.05", "0.00", "0.05", "12.30", "12.00"
    ]
    assert [units_text(u, 2, trim=True) for u in (-1234, -5, 0, 5, 1230, 1200)] == [
        "-12.34", "-0.05", "0", "0.05", "12.3", "12"
    ]
    # The whole part is what must print: under 10**LIMIT it does.
    limit_error = f"amount too large to display: more than {LIMIT} digits"
    for units in (10 ** (LIMIT + 2) - 1, -(10 ** (LIMIT + 2) - 1)):
        assert len(units_text(units, 2)) == LIMIT + 3 + (units < 0)
    for units in (10 ** (LIMIT + 2), -(10 ** (LIMIT + 2))):
        for trim in (False, True):
            assert outcome(units_text, units, 2, trim) == ("error", limit_error)


def test_display_limit_examples():
    """Values too large to print fail; an unreduced pair whose value
    prints does not."""
    limit_error = f"amount too large to display: more than {LIMIT} digits"
    assert outcome(exact_text, 3 * 10 ** (LIMIT + 5), 1) == ("error", limit_error)
    assert outcome(exact_text, 1, 3 * 10 ** (LIMIT + 5)) == ("error", limit_error)
    assert outcome(fixed_text, 10 ** (LIMIT + 5), 1, 2) == ("error", limit_error)
    # 303.5 on a denominator whose 2s and 5s ask for thousands of places.
    huge = 10 ** (LIMIT + 5)
    assert exact_text(3035 * huge, 10 * huge) == "303.5"
    assert fixed_text(3035 * huge, 10 * huge, 2) == "303.50"


def test_echo_value_clips_long_and_unprintable_values():
    from progtariff.amounts import echo_value

    assert echo_value(Fraction(-5)) == "-5"
    assert echo_value(Fraction(10**49)) == "1" + "0" * 39 + "... (50 characters)"
    assert echo_value(Fraction(1, 10**LIMIT)) == f"<more than {LIMIT} digits>"
    assert echo_value(Fraction(-(10**LIMIT))) == f"-<more than {LIMIT} digits>"


def read_outcome(read, text):
    try:
        return "value", read(text)
    except Exception as err:
        return type(err), str(err)


ARABIC_INDIC = "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"
number_chars = "0123456789" + ARABIC_INDIC
digit_runs = st.text(alphabet=number_chars + "_", max_size=6)
# Shaped like a number, so that most draws reach a parser's value path.
shaped = st.builds(
    lambda pad, sign, whole, point, frac, exponent, ratio: (
        f"{pad}{sign}{whole}{point}{frac}{exponent}{ratio}{pad}"
    ),
    st.sampled_from(["", " ", "  "]),
    st.sampled_from(["", "+", "-"]),
    digit_runs,
    st.sampled_from(["", ".", ".."]),
    digit_runs,
    st.one_of(
        st.just(""),
        st.builds(
            lambda mark, sign, digits: mark + sign + digits,
            st.sampled_from("eE"),
            st.sampled_from(["", "+", "-"]),
            st.text(alphabet="0123456789", min_size=1, max_size=5),
        ),
    ),
    st.one_of(st.just(""), digit_runs.map(lambda digits: "/" + digits)),
)
scrambled = st.text(alphabet=number_chars + "._eE+-/ ", max_size=12)
# Plain ASCII decimals, and near misses such as "1." and ".5".
ascii_runs = st.text(alphabet="0123456789", max_size=8)
plain = st.builds(
    lambda whole, point, frac: whole + point + frac,
    ascii_runs,
    st.sampled_from(["", "."]),
    ascii_runs,
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.one_of(plain, shaped, scrambled))
@example("1.")
@example(".5")
@example("007.250")
@example("1" * (LIMIT + 1))
@example("1." + "0" * LIMIT)
@example("0" * (LIMIT + 1) + ".5")
@example("1e4300")
@example("1e4301")
@example("1_000.5")
@example("\u0663.\u0665")
@example(" 2 ")
@example("5/3")
def test_exact_reads_strings_as_the_fraction_oracle(text):
    """The same value, or the same exception type and message."""
    assert read_outcome(exact, text) == read_outcome(desk_exact, text)


@pytest.mark.parametrize(
    "text", ["1" * 5000, "0." + "1" * 5000, "1/" + "1" * 5000], ids=["int", "decimal", "ratio"]
)
def test_exact_names_the_digit_limit(text):
    with pytest.raises(ValueError) as caught:
        exact(text)
    assert str(caught.value) == (
        f"more than {LIMIT} digits in {text[:40]!r}... ({len(text)} characters)"
    )


def test_exact_refuses_a_bool_or_an_object():
    with pytest.raises(TypeError, match="^bool is not a quantity$"):
        exact(True)
    with pytest.raises(TypeError, match="^cannot convert object to an exact number$"):
        exact(object())
