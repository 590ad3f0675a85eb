"""Exact rational scalars: the only number type allowed in this package.

Scalars are plain ints or ``fractions.Fraction``; a Fraction with
denominator 1 is collapsed to int so equal values have equal
representations. Floats are rejected everywhere. Constructors take
their scalars through as_rationals, which costs one C-speed type scan
when every value is already an int (all_ints, the one such scan, which
linalg's rows and the tensor kernels share). The kernels' outputs skip
as_rationals only where every value is canonical by construction
(tensor._kernel_output).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Union

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


def all_ints(values: Iterable) -> bool:
    """Whether every value has type int (so no bool), by one type scan at C speed."""
    return {int}.issuperset(map(type, values))


def as_rationals(values: Iterable) -> tuple[Rational, ...]:
    """The values as a tuple of canonical scalars.

    All-int input, the common case, costs one type scan at C speed; in any
    other input the entries that are not ints are normalized one by one, so
    it raises as as_rational does.
    """
    values = tuple(values)
    if all_ints(values):
        return values
    return tuple(v if type(v) is int else as_rational(v) for v in values)


# The one text form of a scalar, on the wire and on the command line alike.
_RATIONAL_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Rational:
    """Parse text of the form [+-]?[0-9]+(/[0-9]+)? into an exact scalar.

    Only ASCII digits are read, with no spaces, decimals, exponents or
    underscores, so what is accepted does not depend on the Python version.
    """
    match = _RATIONAL_TEXT.fullmatch(text)
    if match is None:
        raise ValueError(f"not of the form [+-]?[0-9]+(/[0-9]+)?: {text!r}")
    num, den = match.groups()
    return int(num) if den is None else as_rational(Fraction(int(num), int(den)))


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
