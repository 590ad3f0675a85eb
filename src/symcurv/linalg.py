"""Exact linear algebra over the rationals.

Rank computations clear denominators and run a fraction-free row
reduction over the integers, with per-row gcd normalization to keep
entries small. Ranks here are tiny compared to row length, so rows are
reduced incrementally against the basis found so far.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .rationals import Rational, as_rational


def _integer_row(row: Sequence[Rational]) -> list[int]:
    scale = 1
    for x in row:
        scale = lcm(scale, x.denominator)
    return [int(x * scale) for x in row]


def _normalize_int_row(row: list[int]) -> list[int] | None:
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            break
    if g == 0:
        return None
    if g != 1:
        row = [x // g for x in row]
    return row


class RowBasis:
    """Incremental basis of a rational row space (integer echelon rows)."""

    def __init__(self, width: int):
        self.width = width
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def residual(self, row: Sequence[Rational]) -> list[int] | None:
        """Reduce row against the basis; None if it is dependent."""
        if len(row) != self.width:
            raise ValueError(f"row length {len(row)} != width {self.width}")
        v = _integer_row(row)
        for pivot, basis_row in zip(self._pivots, self._rows):
            if v[pivot]:
                a, b = basis_row[pivot], v[pivot]
                g = gcd(a, b)
                ma, mb = a // g, b // g
                v = [ma * x - mb * y for x, y in zip(v, basis_row)]
        return _normalize_int_row(v)

    def add(self, row: Sequence[Rational]) -> bool:
        """Insert row; True iff it enlarged the span."""
        v = self.residual(row)
        if v is None:
            return False
        pivot = next(i for i, x in enumerate(v) if x)
        if v[pivot] < 0:
            v = [-x for x in v]
        self._rows.append(v)
        self._pivots.append(pivot)
        return True

    def contains(self, row: Sequence[Rational]) -> bool:
        return self.residual(row) is None


def rank_of_rows(rows: Iterable[Sequence[Rational]], width: int | None = None) -> int:
    basis: RowBasis | None = None if width is None else RowBasis(width)
    for row in rows:
        if basis is None:
            basis = RowBasis(len(row))
        basis.add(row)
    return 0 if basis is None else basis.rank


Matrix = tuple[tuple[Rational, ...], ...]


def matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(as_rational(x) for x in row) for row in rows)


def identity_matrix(d: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def zero_matrix(d: int) -> Matrix:
    return tuple((0,) * d for _ in range(d))


# mat_add and mat_scale have no caller in the package. perfbench/tracing.py
# traces them by name and its self-test requires every target it names;
# they go when the benchmark drops them.
def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Rational, a: Matrix) -> Matrix:
    return tuple(tuple(as_rational(c * x) for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = list(zip(*b))
    return tuple(
        tuple(as_rational(sum(x * y for x, y in zip(row, col))) for col in bt)
        for row in a
    )


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def trace_of_product(a: Matrix, b: Matrix) -> Rational:
    """trace(a @ b) without forming the product."""
    total = sum(x * y for row, col in zip(a, zip(*b)) for x, y in zip(row, col))
    return as_rational(Fraction(total))


def solve_columns(a_rows: Sequence[Sequence[int]],
                  b_rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Solve A X = B in integers by forward substitution; A must be lower unitriangular.

    Returns X as a list of rows. Raises ArithmeticError when A is not lower
    unitriangular.
    """
    x: list[list[int]] = []
    for k, row in enumerate(a_rows):
        if row[k] != 1 or any(row[k + 1:]):
            raise ArithmeticError("matrix is not lower unitriangular")
        acc = list(b_rows[k])
        for j, c in enumerate(row[:k]):
            if c:
                acc = [u - c * v for u, v in zip(acc, x[j])]
        x.append(acc)
    return x
