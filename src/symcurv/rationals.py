"""Exact rational scalars: the only number type allowed in this package.

Scalars are plain ints or ``fractions.Fraction``; a Fraction with
denominator 1 is collapsed to int so equal values have equal
representations. Floats are rejected everywhere. Constructors take
their scalars through as_rationals, which costs one C-speed type scan
when every value is already an int (all_ints, the one such scan, which
linalg's rows and the tensor kernels share). The kernels' outputs skip
as_rationals only where every value is canonical by construction
(tensor._kernel_output).

The package's frozen value types share two bases: ExactValue pickles
and copies every one of them through its constructor, and ExactVector
gives the two coefficient vectors, GroupRingElement and DenseTensor, one
vector arithmetic and one JSON text form. Both wire formats read their
int shape fields through wire_shape and their entry lists through one
reader, wire_entries.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from operator import add, neg, sub
from typing import Iterable, Sequence, Union

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


def _wire_field(data: dict, field: str, what: str):
    """data[field] of the JSON object named what; a missing field is a ValueError naming both."""
    if field not in data:
        raise ValueError(f"{what} has no field {field!r}")
    return data[field]


def wire_shape(data, what: str, shape: Sequence[str]) -> tuple[dict, list[int]]:
    """(data, its int fields named in shape, in order) of a wire document, the JSON object named what."""
    data = wire_json(data, dict, what)
    return data, [wire_scalar(_wire_field(data, key, what), key, integer=True) for key in shape]


def wire_entries(data: dict, field: str, index: str, value: str, names: tuple[str, str, str, str],
                 key=tuple) -> dict:
    """The entry list data[field] of a wire document, as a dict: both wire formats are read here.

    The list, default empty, is an array of objects, each an int array
    under index and an exact scalar under value, every index once. Each
    index is passed through key before the repeat check, and the dict maps
    key(index) to its scalar. names word the messages: an entry, an entry
    of its index, a repeated index, its value.
    """
    entry, index_entry, repeated, value_name = names
    entries = {}
    for item in wire_json(data.get(field, []), list, field):
        item = wire_json(item, dict, entry)
        idx = tuple(wire_scalar(v, index_entry, integer=True)
                    for v in wire_json(_wire_field(item, index, entry), list, index))
        at = key(idx)
        if at in entries:
            raise ValueError(f"duplicate {repeated} {list(idx)}")
        entries[at] = wire_scalar(_wire_field(item, value, entry), value_name)
    return entries


# -- value types ----------------------------------------------------------------


class ExactValue:
    """Base of the frozen value types: each is its __slots__, passed to its constructor in order."""

    __slots__ = ()

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, as frozen fields refuse assignment
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class ExactVector(ExactValue):
    """Base of the exact coefficient vectors: shape fields first, then one tuple of scalars.

    Subclasses supply to_dict and a from_dict classmethod; the vector
    arithmetic, is_zero and the JSON text form are shared.
    """

    __slots__ = ()

    def _shape(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__[:-1])

    def _values(self) -> tuple[Rational, ...]:
        return getattr(self, self.__slots__[-1])

    def _like(self, values) -> "ExactVector":
        return type(self)(*self._shape(), values)

    def _matches(self, other) -> bool:
        """Whether other is a vector of this type; one of another shape is a ValueError."""
        if not isinstance(other, type(self)):
            return False
        mine, theirs = self._shape(), other._shape()
        if mine != theirs:
            names = self.__slots__[:-1]
            if len(names) == 1:
                raise ValueError(f"{names[0]} mismatch: {mine[0]} vs {theirs[0]}")
            shown = ("/".join(map("{} {}".format, names, shape)) for shape in (mine, theirs))
            raise ValueError("shape mismatch: " + " vs ".join(shown))
        return True

    def __add__(self, other):
        if not self._matches(other):
            return NotImplemented
        return self._like(list(map(add, self._values(), other._values())))

    def __sub__(self, other):
        if not self._matches(other):
            return NotImplemented
        return self._like(list(map(sub, self._values(), other._values())))

    def __neg__(self):
        return self._like(list(map(neg, self._values())))

    def scale(self, c: Rational):
        c = as_rational(c)
        return self._like([c * a for a in self._values()])

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def is_zero(self) -> bool:
        return not any(self._values())

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))
