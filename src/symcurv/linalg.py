"""Exact linear algebra over the rationals.

Ranks come from a fraction-free row reduction over the integers. A row
is an iterable of (column, value) pairs with distinct columns; zero
values are skipped and there is no width, so a row costs only the pairs
it is given, and callers with sparse rows pass only the nonzeros. Each
row is cleared of denominators and divided by the gcd of its entries,
then reduced incrementally against the basis found so far, in insertion
order; the basis keeps primitive integer rows as {column: int} dicts,
each with its pivot, the lowest nonzero column. A row of ints has no
denominators to clear, and a row that no basis row reduced is already
primitive, so neither is rescaled; a row with any other entry is read
through as_rational, so floats, strings and bools raise TypeError.

Matrices are tuples of rows of exact scalars. Products run on integer
numerators: mat_mul brings each factor over one denominator, the lcm of
its entries' denominators, multiplies the integer rows with int_mat_mul
(the one matrix product in the package, which dft calls directly on its
integer blocks) and divides each entry of the result once, so an
integral entry comes out as an int.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .rationals import Rational, all_ints, as_rational, as_rationals

Entries = Iterable[tuple[int, Rational]]


def _primitive(entries: Entries) -> dict[int, int]:
    """The nonzero entries as coprime integers, a positive multiple of the row.

    A row of ints is only divided by its gcd. Any other row is normalized
    by as_rational first, zeros included, so a float, string, bool or None
    raises TypeError even where it is falsy.
    """
    # an int zero is dropped here; any other falsy value fails the type scan
    row = {i: x for i, x in entries if x or type(x) is not int}
    if not all_ints(row.values()):
        row = {i: as_rational(x) for i, x in row.items()}
        scale = lcm(*(x.denominator for x in row.values()))
        row = {i: int(x * scale) for i, x in row.items() if x}
    g = gcd(*row.values())
    if g > 1:
        row = {i: x // g for i, x in row.items()}
    return row


class RowBasis:
    """Incremental basis of a rational row space (primitive integer echelon rows)."""

    def __init__(self):
        self._rows: list[dict[int, int]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[dict[int, int], ...]:
        """The basis rows in insertion order; together they span the rows added."""
        return tuple(self._rows)

    def residual(self, entries: Entries) -> dict[int, int] | None:
        """Reduce a row against the basis; None if it is dependent."""
        v = _primitive(entries)
        reduced = False
        for pivot, basis_row in zip(self._pivots, self._rows):
            b = v.get(pivot)
            if b:
                reduced = True
                a = basis_row[pivot]
                g = gcd(a, b)
                ma, mb = a // g, b // g
                v = {i: ma * x for i, x in v.items()}
                for i, y in basis_row.items():
                    x = v.get(i, 0) - mb * y
                    if x:
                        v[i] = x
                    else:
                        del v[i]
        # a row no basis row touched is still primitive
        return (_primitive(v.items()) if reduced else v) or None

    def add(self, entries: Entries) -> bool:
        """Insert a row; True iff it enlarged the span."""
        v = self.residual(entries)
        if v is None:
            return False
        pivot = min(v)
        if v[pivot] < 0:
            v = {i: -x for i, x in v.items()}
        self._rows.append(v)
        self._pivots.append(pivot)
        return True

    def contains(self, entries: Entries) -> bool:
        return self.residual(entries) is None


def rank_of_rows(rows: Iterable[Sequence[Rational]]) -> int:
    """Rank of dense rows."""
    basis = RowBasis()
    for row in rows:
        basis.add(enumerate(row))
    return basis.rank


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
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        raise ValueError("the summands differ in shape")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Rational, a: Matrix) -> Matrix:
    return tuple(tuple(as_rational(c * x) for x in row) for row in a)


def int_mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """The product of two integer matrices given as rows; the shapes are the caller's to match."""
    columns = list(zip(*b))
    return [[sum(map(mul, row, column)) for column in columns] for row in a]


def _over_one_denominator(a: Matrix) -> tuple[int, Sequence[Sequence[int]]]:
    """(d, N) with a = N/d, d the lcm of the entries' denominators; raises on a non-rational entry."""
    rows = [as_rationals(row) for row in a]
    den = lcm(*(x.denominator for row in rows for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b, exact: one integer product of the numerators, then one division per entry."""
    a_den, a_rows = _over_one_denominator(a)
    b_den, b_rows = _over_one_denominator(b)
    inner, width = len(b_rows), len(b_rows[0]) if b_rows else 0
    if any(len(row) != width for row in b_rows):
        raise ValueError("the rows of the right factor differ in length")
    if any(len(row) != inner for row in a_rows):
        raise ValueError(f"the rows of the left factor must have length {inner}, the right factor's height")
    den = a_den * b_den
    return tuple(tuple(Fraction(x, den) if x % den else x // den for x in row)
                 for row in int_mat_mul(a_rows, b_rows))


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def trace_of_product(a: Matrix, b: Matrix) -> Rational:
    """trace(a @ b) without forming the product."""
    if any(len(row) != len(b) for row in a) or any(len(row) != len(a) for row in b):
        raise ValueError(f"need an m x n and an n x m matrix, got heights {len(a)} and {len(b)}")
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
