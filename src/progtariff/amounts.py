"""Exact energy and money quantities.

Everything the engine computes with runs on `fractions.Fraction`, so a
tier bound like 100 kWh scaled by 1/120 stays the exact 5/6 instead of
collapsing to 0.8333. Rounding exists only as an explicit display step:
half-up to 2 decimals for money, 4 decimals for energy.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Optional, Union

ExactLike = Union[int, str, Fraction]

MONEY_PLACES = 2
ENERGY_PLACES = 4

# Largest decimal exponent magnitude that exact() accepts. Python already
# caps the digits of an int read from text (sys.int_max_str_digits, 4300
# by default); without this cap "1e100000000" would make Fraction build
# 10**100000000 and hang. 1e4300 is still accepted.
MAX_DECIMAL_EXPONENT = 4300

# Longest input echoed in full in an error message.
_ECHO_CHARS = 40


def _echo(text: str, show=repr) -> str:
    if len(text) <= _ECHO_CHARS:
        return show(text)
    return f"{show(text[:_ECHO_CHARS])}... ({len(text)} characters)"


def echo_value(value: Fraction) -> str:
    """*value* for an error message: clipped, or its size if unprintable."""
    try:
        text = str(value)
    except ValueError:
        sign = "-" if value < 0 else ""
        return f"{sign}<more than {sys.get_int_max_str_digits()} digits>"
    return _echo(text, str)


def too_large_error() -> ValueError:
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


def decimal_ratio(text: str) -> Optional[tuple[int, int]]:
    """The unreduced ``(digits, 10**places)`` of a plain ASCII decimal such
    as "12.345", or None for any other text and one longer than int() reads."""
    whole, point, frac = text.partition(".")
    if text.isascii() and whole.isdecimal() and (frac.isdecimal() or not point):
        try:
            return int(whole + frac), 10 ** len(frac)
        except ValueError:
            pass
    return None


def exact(value: ExactLike) -> Fraction:
    """Convert *value* to an exact Fraction.

    Accepts ints, Fractions, and strings in decimal ("60.7") or ratio
    ("5/3") form. Floats are refused outright: a binary float is already
    an approximation, and letting one in would poison every exact
    comparison downstream. A decimal exponent larger in magnitude
    than MAX_DECIMAL_EXPONENT is refused before any power of ten is
    built. Underscores ("1_000") are refused, as Fraction's parser does on
    Python 3.10 but not from 3.11 on, so every version reads alike.
    """
    if isinstance(value, str):
        text = value.strip()
        # A plain decimal, the usual trace energy, skips Fraction's regex.
        # Every other string takes the general path, which sets the messages.
        if ratio := decimal_ratio(text):
            return Fraction(*ratio)
        mark = max(text.rfind("e"), text.rfind("E"))
        if mark >= 0:
            try:
                exponent = int(text[mark + 1 :])
            except ValueError:
                exponent = 0  # not an exponent; Fraction rejects the text below
            if abs(exponent) > MAX_DECIMAL_EXPONENT:
                raise ValueError(
                    f"decimal exponent beyond +/-{MAX_DECIMAL_EXPONENT}: {_echo(value)}"
                )
        if "_" in text:
            raise ValueError(f"not a decimal or p/q number: {_echo(value)}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as err:
            if "integer string conversion" in str(err):  # int()'s digit limit
                limit = sys.get_int_max_str_digits()
                raise ValueError(f"more than {limit} digits in {_echo(value)}") from err
            raise ValueError(f"not a decimal or p/q number: {_echo(value)}") from err
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a quantity")
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: pass a str, int or Fraction "
            "so the value stays exact"
        )
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot convert {type(value).__name__} to an exact number")


def energy_amount(value: ExactLike) -> Fraction:
    """Exact non-negative kWh quantity."""
    amount = exact(value)
    if amount.numerator < 0:
        raise ValueError(f"energy must be >= 0, got {echo_value(amount)}")
    return amount


def money_amount(value: ExactLike) -> Fraction:
    """Exact non-negative currency quantity."""
    amount = exact(value)
    if amount.numerator < 0:
        raise ValueError(f"money must be >= 0, got {echo_value(amount)}")
    return amount


def scale_value(value: ExactLike) -> Fraction:
    """Exact positive multiplier."""
    factor = exact(value)
    if factor.numerator <= 0:
        raise ValueError(f"scale factor must be > 0, got {echo_value(factor)}")
    return factor


def half_up_units(num: int, den: int, places: int) -> int:
    """|num/den| (den > 0) in units of 10**-places, rounded half up."""
    return (2 * abs(num) * 10**places + den) // (2 * den)


def round_money(value: ExactLike) -> Fraction:
    """Quantize a money value to minor units (half-up, exact result)."""
    value = exact(value)
    units = half_up_units(value.numerator, value.denominator, MONEY_PLACES)
    return Fraction(-units if value.numerator < 0 else units, 10**MONEY_PLACES)


def units_text(units: int, places: int, trim: bool = False) -> str:
    """``units * 10**-places`` as text with *places* decimals: -1234 at 2
    places is ``-12.34``. With *trim*, trailing zeros after the point go,
    and then a bare point: ``-12.3``, ``12``.

    The one routine that turns minor units into text; fixed_text and
    exact_text both end in it.
    """
    try:
        whole, frac = divmod(abs(units), 10**places)
        text = f"{whole}.{str(frac).zfill(places)}" if places else str(whole)
    except ValueError:
        raise too_large_error() from None
    if trim and places:
        text = text.rstrip("0").rstrip(".")
    return "-" + text if units < 0 else text


def fixed_text(num: int, den: int, places: int) -> str:
    """``num/den`` with exactly *places* decimals, rounding half away from zero.

    ``den`` must be positive; the ratio need not be in lowest terms, so a
    report can render integer numerators over a shared denominator
    without building a Fraction per value.
    """
    units = half_up_units(num, den, places)
    return units_text(-units if num < 0 else units, places)


def decimal_form(den: int) -> tuple[int, int]:
    """Split ``den`` > 0 into its part prime to 10 and the decimal places
    its 2s and 5s ask for."""
    rest = den
    twos = 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    fives = 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    return rest, max(twos, fives)


def exact_text(num: int, den: int, form: Optional[tuple[int, int]] = None) -> str:
    """Lossless text of ``num/den``: a terminating decimal when one exists,
    else ``p/q`` in lowest terms.

    ``den`` must be positive and the ratio need not be in lowest terms:
    the text depends only on the value. The ratio terminates exactly when
    the part of ``den`` prime to 10 divides ``num``, so a terminating
    value is rendered without a gcd. *form*, if given, is the caller's
    ``decimal_form(den)``, so many values over one den factor it once.
    """
    rest, places = form or decimal_form(den)
    try:
        if num % rest:
            common = math.gcd(num, den)
            return f"{num // common}/{den // common}"
        # An unreduced den can ask for more places than the value needs;
        # those trailing zeros go, and with them the point of an integer.
        return units_text(num * 10**places // den, places, trim=True)
    except ValueError:
        # Unneeded places can exceed the digit limit where the value's own
        # do not: retry in lowest terms before giving up.
        common = math.gcd(num, den)
        if common > 1:
            return exact_text(num // common, den // common)
        raise too_large_error() from None


def format_fixed(value: Fraction, places: int) -> str:
    """Render with exactly *places* decimals, rounding half away from zero."""
    return fixed_text(value.numerator, value.denominator, places)


def format_money(value: ExactLike) -> str:
    return format_fixed(exact(value), MONEY_PLACES)


def format_energy(value: ExactLike) -> str:
    return format_fixed(exact(value), ENERGY_PLACES)


def exact_str(value: Fraction) -> str:
    """Lossless rendering: a terminating decimal when one exists, else p/q.

    Round-trips through :func:`exact` for every rational.
    """
    return exact_text(value.numerator, value.denominator)
