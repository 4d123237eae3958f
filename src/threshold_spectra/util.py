"""Exact rational parsing and printing helpers."""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction


# Largest decimal exponent accepted: a nonzero value must lie between
# 1e-1000 and 1e1001.  Converting 1e-999999999 to a Fraction would build
# 10**999999999 first.
MAX_DECIMAL_EXPONENT = 1000


def parse_exact_decimal(text: str) -> Fraction:
    """Parse a decimal string like '1e-10' or '0.25' to an exact Fraction.

    Raises ValueError for text that is not a finite decimal number and for
    a nonzero value whose decimal exponent (of its leading digit) exceeds
    MAX_DECIMAL_EXPONENT in magnitude.
    """
    try:
        value = Decimal(text)
    except InvalidOperation as exc:
        raise ValueError(f"not a decimal number: {text!r}") from exc
    if not value.is_finite():
        raise ValueError(f"not a finite decimal number: {text!r}")
    if value and abs(value.adjusted()) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent out of range (at most "
                         f"{MAX_DECIMAL_EXPONENT} in magnitude): {text!r}")
    return Fraction(value)


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def decimal_lower(value: Fraction, digits: int = 15) -> str:
    """Decimal string rounded toward minus infinity at `digits` places."""
    return _decimal(value, digits, round_up=False)


def decimal_upper(value: Fraction, digits: int = 15) -> str:
    """Decimal string rounded toward plus infinity at `digits` places."""
    return _decimal(value, digits, round_up=True)


def _decimal(value: Fraction, digits: int, round_up: bool) -> str:
    scale = 10 ** digits
    scaled = value * scale
    quo = scaled.numerator // scaled.denominator
    if round_up and quo * scaled.denominator != scaled.numerator:
        quo += 1
    sign = "-" if quo < 0 else ""
    whole, frac = divmod(abs(quo), scale)
    return f"{sign}{whole}.{str(frac).zfill(digits)}"
