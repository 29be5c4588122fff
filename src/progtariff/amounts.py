"""Exact energy and money quantities.

Everything the engine computes with runs on `fractions.Fraction`, so a
tier bound like 100 kWh scaled by 1/120 stays the exact 5/6 instead of
collapsing to 0.8333. Rounding exists only as an explicit display step:
half-up to 2 decimals for money, 4 decimals for energy.
"""

from __future__ import annotations

import sys
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Union

ExactLike = Union[int, str, Fraction, Decimal]

MONEY_PLACES = 2
ENERGY_PLACES = 4

# Largest decimal exponent magnitude that exact() accepts. Python already
# caps the digits of an int read from text (sys.int_max_str_digits, 4300
# by default); without this cap "1e100000000" would make Fraction build
# 10**100000000 and hang. 1e4300 is still accepted.
MAX_DECIMAL_EXPONENT = 4300

# Longest input echoed in full in an error message.
_ECHO_CHARS = 40


def _echo(text: str) -> str:
    if len(text) <= _ECHO_CHARS:
        return repr(text)
    return f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)"


def _too_large() -> ValueError:
    """The error for a value with more digits than Python converts to text.

    ``str(int)`` refuses integers longer than ``sys.int_max_str_digits``.
    A value accepted by :func:`exact` can still produce one, for example
    the price of 1e4300 kWh. Raised from ``except ValueError`` around the
    conversion, so values that print cost no extra check.
    """
    return ValueError(
        "amount too large to display: more than "
        f"{sys.get_int_max_str_digits()} digits"
    )


def fraction_str(value: Fraction) -> str:
    """``str(value)``, with a clear error for a value too large to print."""
    try:
        return str(value)
    except ValueError:
        raise _too_large() from None


def _check_exponent(exponent: int, value: str) -> None:
    if abs(exponent) > MAX_DECIMAL_EXPONENT:
        raise ValueError(
            f"decimal exponent beyond +/-{MAX_DECIMAL_EXPONENT}: {_echo(value)}"
        )


def exact(value: ExactLike) -> Fraction:
    """Convert *value* to an exact Fraction.

    Accepts ints, Fractions, Decimals, and strings in decimal ("60.7")
    or ratio ("5/3") form. Floats are refused outright: a binary float
    is already an approximation, and letting one in would poison every
    exact comparison downstream. A decimal exponent larger in magnitude
    than MAX_DECIMAL_EXPONENT is refused before any power of ten is
    built.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a quantity")
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: pass a str, int, Decimal or Fraction "
            "so the value stays exact"
        )
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Decimal):
        exponent = value.as_tuple().exponent
        if isinstance(exponent, int):  # "n", "N" or "F" for NaN and infinity
            _check_exponent(exponent, str(value))
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        mark = max(text.rfind("e"), text.rfind("E"))
        if mark >= 0:
            try:
                exponent = int(text[mark + 1 :])
            except ValueError:
                pass  # not an exponent; Fraction rejects the text below
            else:
                _check_exponent(exponent, value)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"not a decimal or p/q number: {_echo(value)}") from err
    raise TypeError(f"cannot convert {type(value).__name__} to an exact number")


def energy_amount(value: ExactLike) -> Fraction:
    """Exact non-negative kWh quantity."""
    amount = exact(value)
    if amount.numerator < 0:
        raise ValueError(f"energy must be >= 0, got {amount}")
    return amount


def money_amount(value: ExactLike) -> Fraction:
    """Exact non-negative currency quantity."""
    amount = exact(value)
    if amount.numerator < 0:
        raise ValueError(f"money must be >= 0, got {amount}")
    return amount


def scale_value(value: ExactLike) -> Fraction:
    """Exact positive multiplier."""
    factor = exact(value)
    if factor.numerator <= 0:
        raise ValueError(f"scale factor must be > 0, got {factor}")
    return factor


def _half_up_units(value: Fraction, places: int) -> int:
    """|value| in units of 10**-places, rounded half up, on integers alone."""
    den = value.denominator
    return (2 * abs(value.numerator) * 10**places + den) // (2 * den)


def round_half_up(value: Fraction, places: int = MONEY_PLACES) -> Fraction:
    """Round to *places* decimals, halves away from zero, still exact."""
    units = _half_up_units(value, places)
    return Fraction(-units if value.numerator < 0 else units, 10**places)


def round_money(value: ExactLike) -> Fraction:
    """Quantize a money value to minor units (half-up, exact result)."""
    return round_half_up(exact(value), MONEY_PLACES)


def format_fixed(value: Fraction, places: int) -> str:
    """Render with exactly *places* decimals, rounding half away from zero."""
    units = _half_up_units(value, places)
    sign = "-" if (value.numerator < 0 and units > 0) else ""
    try:
        if places == 0:
            return f"{sign}{units}"
        whole, frac = divmod(units, 10**places)
        return f"{sign}{whole}.{frac:0{places}d}"
    except ValueError:
        raise _too_large() from None


def format_money(value: ExactLike) -> str:
    return format_fixed(exact(value), MONEY_PLACES)


def format_energy(value: ExactLike) -> str:
    return format_fixed(exact(value), ENERGY_PLACES)


def exact_sum(values: Iterable[Fraction]) -> Fraction:
    """Exact sum of rationals.

    Numerators that share a denominator are added as plain integers
    first, so a long sum of values on a few denominators costs a few
    Fraction additions instead of one per value.
    """
    numerators: dict[int, int] = {}
    for value in values:
        den = value.denominator
        numerators[den] = numerators.get(den, 0) + value.numerator
    return sum((Fraction(num, den) for den, num in numerators.items()), Fraction(0))


def exact_str(value: Fraction) -> str:
    """Lossless rendering: a terminating decimal when one exists, else p/q.

    Round-trips through :func:`exact` for every rational.
    """
    den = value.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    places = max(twos, fives)
    try:
        if den != 1:
            return f"{value.numerator}/{value.denominator}"
        if places == 0:
            return str(value.numerator)
        quantum = 10**places
        units = value.numerator * (quantum // value.denominator)
        sign = "-" if units < 0 else ""
        whole, frac = divmod(abs(units), quantum)
        return f"{sign}{whole}.{frac:0{places}d}"
    except ValueError:
        raise _too_large() from None
