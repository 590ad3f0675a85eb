"""Shared deterministic generators for randomized (seeded) tests."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from itertools import permutations as _words
from math import factorial

from symcurv import (
    DenseTensor,
    GroupRingElement,
    partitions_of,
    standard_tableaux,
    symmetric_group,
    young_symmetrizer,
)
from symcurv.linalg import matrix, mat_transpose
from symcurv.rationals import as_rational


def random_element(rng, degree: int, span: int = 3) -> GroupRingElement:
    return GroupRingElement(
        degree,
        [Fraction(rng.randint(-span, span), rng.choice([1, 1, 2, 3]))
         for _ in range(factorial(degree))],
    )


def scanned_stabilizer_symmetrizer(degree: int, fixed, signed: bool = False) -> GroupRingElement:
    """Every permutation of S_degree fixing the listed positions, found by a scan."""
    coeffs = [0] * factorial(degree)
    for i, p in enumerate(symmetric_group(degree)):
        if all(p(j) == j for j in fixed):
            coeffs[i] = p.sign() if signed else 1
    return GroupRingElement(degree, coeffs)


def rank_test_elements(rng, degree: int, full_rank_too: bool = True) -> list[GroupRingElement]:
    """Three-term elements and their products with Young symmetrizers, of varied rank."""
    out = []
    for _ in range(4):
        sparse = GroupRingElement.from_terms(
            degree, [(rng.choice(symmetric_group(degree)), rng.randint(-2, 2)) for _ in range(3)])
        y = young_symmetrizer(rng.choice(standard_tableaux(rng.choice(partitions_of(degree)))))
        out += ([sparse] if full_rank_too else []) + [sparse * y, y * sparse + y]
    return out


def random_tensor(rng, order: int, dim: int, span: int = 3) -> DenseTensor:
    return DenseTensor(order, dim, [rng.randint(-span, span) for _ in range(dim ** order)])


def random_symmetric2(rng, dim: int, span: int = 4) -> DenseTensor:
    entries = {}
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            v = rng.randint(-span, span)
            entries[(i, j)] = v
            entries[(j, i)] = v
    return DenseTensor.from_entries(2, dim, entries)


def random_alternating2(rng, dim: int, span: int = 4) -> DenseTensor:
    entries = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            v = rng.randint(-span, span)
            entries[(i, j)] = v
            entries[(j, i)] = -v
    return DenseTensor.from_entries(2, dim, entries)


def random_symmetric3(rng, dim: int, span: int = 4) -> DenseTensor:
    entries = {}
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            for k in range(j, dim + 1):
                v = rng.randint(-span, span)
                for word in set(_words((i, j, k))):
                    entries[word] = v
    return DenseTensor.from_entries(3, dim, entries)


def random_frame(rng, order: int, dim: int, span: int = 3) -> list[list[int]]:
    return [[rng.randint(-span, span) for _ in range(dim)] for _ in range(order)]


def solve_columns(a_rows, b_rows):
    """Solve A X = B exactly by Fraction Gauss-Jordan; A must have full column rank.

    Returns X as a list of rows. Raises ValueError on an inconsistent or
    rank-deficient system.
    """
    n_rows = len(a_rows)
    n_cols = len(a_rows[0]) if n_rows else 0
    n_rhs = len(b_rows[0]) if b_rows else 0
    aug = [
        [Fraction(x) for x in a_rows[i]] + [Fraction(y) for y in b_rows[i]]
        for i in range(n_rows)
    ]
    pivot_rows = []
    row_at = 0
    for col in range(n_cols):
        src = next((i for i in range(row_at, n_rows) if aug[i][col] != 0), None)
        if src is None:
            raise ValueError("matrix does not have full column rank")
        aug[row_at], aug[src] = aug[src], aug[row_at]
        inv = 1 / aug[row_at][col]
        aug[row_at] = [x * inv for x in aug[row_at]]
        for i in range(n_rows):
            if i != row_at and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[row_at])]
        pivot_rows.append(row_at)
        row_at += 1
    for i in range(row_at, n_rows):
        if any(x != 0 for x in aug[i][n_cols:]):
            raise ValueError("inconsistent linear system")
    return [
        [as_rational(aug[r][n_cols + k]) for k in range(n_rhs)]
        for r in pivot_rows
    ]


def _polytabloid(t, index):
    """The polytabloid of t on every tabloid of its shape."""
    vec = [0] * len(index)
    for q in t.vertical_group():
        vec[index[tuple(tuple(sorted(row)) for row in t.apply(q).rows)]] += q.sign()
    return vec


@lru_cache(maxsize=None)
def _tabloid_basis(parts):
    """Every tabloid of the shape numbered, and the standard polytabloids as rows over them."""
    def split(rest, sizes):
        if not sizes:
            yield ()
            return
        for first in combinations(rest, sizes[0]):
            remaining = tuple(v for v in rest if v not in first)
            for tail in split(remaining, sizes[1:]):
                yield (first, *tail)

    index = {tab: i for i, tab in enumerate(split(tuple(range(1, sum(parts) + 1)), parts))}
    columns = [_polytabloid(t, index) for t in standard_tableaux(parts)]
    return index, [list(row) for row in zip(*columns)]


def tabloid_solve_rep(parts, p):
    """Young's natural representation by a solve over every tabloid.

    The images under p^{-1} of the standard polytabloids are expanded on
    all tabloids and solved for in the standard basis; D(p) is the
    transpose of that matrix.
    """
    parts = tuple(parts)
    index, basis_rows = _tabloid_basis(parts)
    q = p.inverse()
    images = [_polytabloid(t.apply(q), index) for t in standard_tableaux(parts)]
    return mat_transpose(matrix(solve_columns(basis_rows, [list(row) for row in zip(*images)])))
