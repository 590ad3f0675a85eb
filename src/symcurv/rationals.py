"""Exact rational scalars: the only number type allowed in this package.

Scalars are plain ints or ``fractions.Fraction``; a Fraction with
denominator 1 is collapsed to int so equal values have equal
representations. Floats are rejected everywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def as_rational(value) -> Rational:
    """Normalize to the canonical scalar form (int when integral)."""
    if isinstance(value, bool):
        raise TypeError("bool is not a valid coefficient")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def parse_rational(text: str) -> Rational:
    """Parse 'num/den' or an integer string into an exact scalar."""
    return as_rational(Fraction(text.strip()))


def format_rational(value: Rational) -> str:
    """Inverse of parse_rational; '3' or '-5/7' style."""
    return str(as_rational(value))


# -- JSON wire formats ---------------------------------------------------------


def wire_scalar(value, what: str, integer: bool = False) -> Rational:
    """One exact scalar read from a JSON wire format.

    Accepts an int, or unless integer is set an exact-rational string such
    as "-2/7". JSON floats and booleans are rejected, so 0.5 or true never
    pass as exact values. Every rejection is a ValueError.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and not integer:
        try:
            return parse_rational(value)
        except (ValueError, ZeroDivisionError):
            pass
    wanted = "an integer" if integer else "an integer or an exact rational string"
    raise ValueError(f"{what} must be {wanted}, got {value!r}")


def wire_json(value, kind: type, what: str):
    """value itself when it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        wanted = "an object" if kind is dict else "an array"
        raise ValueError(f"{what} must be {wanted}, got {type(value).__name__}")
    return value
