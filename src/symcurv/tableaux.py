"""Partitions, Young tableaux and Young symmetrizers.

Standard tableaux of a shape are enumerated in last-letter order: the
tableau whose largest differing entry sits in the lower row comes first.
That order is the basis order of the natural representation, so it is
load-bearing for the Fourier modules and must not change. It is also
the order in which corner recursion grows them, so nothing is sorted.

A Young symmetrizer Σ sign(v)·h·v over the row group H and the column
group V is a signed set: H ∩ V = {e}, so the products are distinct, and
each is written once with its sign, with no arithmetic. Partitions and
tableaux hold ints only: a float, bool or string is refused, not
truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from itertools import permutations as _words
from itertools import product as _cartesian
from math import factorial, prod
from typing import Iterator, Sequence

from .group_ring import MAX_DEGREE, GroupRingElement, _scatter, _subgroup_ranks
from .permutation import Permutation
from .rationals import ExactValue, all_ints

Partition = tuple[int, ...]


def validate_partition(parts: Sequence[int]) -> Partition:
    """The parts as a tuple of ints; a float, bool or string is refused, not truncated."""
    parts = tuple(parts)
    if not all_ints(parts):
        raise ValueError(f"partition parts must be ints, got {list(parts)}")
    if not parts or any(v <= 0 for v in parts):
        raise ValueError(f"partition parts must be positive: {list(parts)}")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"partition parts must be weakly decreasing: {list(parts)}")
    return parts


def format_partition(parts: Sequence[int]) -> str:
    """Display form '(3 2)'."""
    return "(" + " ".join(str(v) for v in parts) + ")"


@lru_cache(maxsize=None)
def partitions_of(r: int) -> tuple[Partition, ...]:
    """All partitions of r in reverse-lexicographic order, (r) first."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")

    def gen(remaining: int, bound: int) -> Iterator[Partition]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, bound), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first, *rest)

    return tuple(gen(r, r))


def conjugate_partition(parts: Sequence[int]) -> Partition:
    parts = validate_partition(parts)
    return tuple(sum(1 for v in parts if v > i) for i in range(parts[0]))


def hook_lengths(parts: Sequence[int]) -> list[list[int]]:
    return _hook_lengths(validate_partition(parts))


def _hook_lengths(parts: Partition) -> list[list[int]]:
    """Hook lengths of a partition that is already validated: arm + leg + 1 per cell."""
    return [[row - j + sum(1 for v in parts[i + 1:] if v > j) for j in range(row)]
            for i, row in enumerate(parts)]


def _hook_product(parts: Partition) -> int:
    """The product of the hook lengths of a partition that is already validated."""
    return prod(chain.from_iterable(_hook_lengths(parts)))


def hook_dimension(parts: Sequence[int]) -> int:
    """Number of standard tableaux of the shape: r! over the hook product."""
    parts = validate_partition(parts)
    return factorial(sum(parts)) // _hook_product(parts)


def weyl_dimension(parts: Sequence[int], dim: int) -> int:
    """Dimension of the irreducible GL(dim) module of this shape.

    The content-over-hook product; zero when the shape has more rows
    than dim. A dim that is not an int is refused, as partition parts are.
    """
    parts = validate_partition(parts)
    if not all_ints((dim,)):
        raise ValueError(f"dimension must be an int, got {dim!r}")
    if len(parts) > dim:
        return 0
    contents = prod(dim + j - i for i, row in enumerate(parts) for j in range(row))
    value, remainder = divmod(contents, _hook_product(parts))
    if remainder:
        raise ArithmeticError(f"non-integral dimension for {parts} at n={dim}")
    return value


@dataclass(frozen=True)
class YoungTableau(ExactValue):
    """A filling of a Young frame with 1..r, each exactly once, built from any iterable of rows."""

    __slots__ = ("rows",)
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        if not all_ints(chain.from_iterable(rows)):
            raise ValueError(f"tableau entries must be ints, got {[list(row) for row in rows]}")
        shape = tuple(len(row) for row in rows)
        validate_partition(shape)
        entries = [v for row in rows for v in row]
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValueError(f"entries must be 1..{len(entries)} exactly once: {rows}")
        object.__setattr__(self, "rows", rows)

    @property
    def shape(self) -> Partition:
        return tuple(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    def columns(self) -> tuple[tuple[int, ...], ...]:
        width = len(self.rows[0])
        return tuple(
            tuple(row[j] for row in self.rows if len(row) > j)
            for j in range(width)
        )

    def row_of(self, entry: int) -> int:
        """1-based row index of an entry."""
        for i, row in enumerate(self.rows, start=1):
            if entry in row:
                return i
        raise ValueError(f"{entry} is not in the tableau")

    def is_standard(self) -> bool:
        for row in self.rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                return False
        for col in self.columns():
            if any(a >= b for a, b in zip(col, col[1:])):
                return False
        return True

    def apply(self, p: Permutation) -> "YoungTableau":
        """Relabel every entry e as p(e)."""
        if p.degree != self.size:
            raise ValueError(f"degree mismatch: {p.degree} vs {self.size}")
        return YoungTableau(tuple(p(v) for v in row) for row in self.rows)

    def horizontal_group(self) -> list[Permutation]:
        """All permutations moving entries only within their rows."""
        return _block_permutations(self.size, self.rows)

    def vertical_group(self) -> list[Permutation]:
        """All permutations moving entries only within their columns."""
        return _block_permutations(self.size, self.columns())

    def __repr__(self) -> str:
        return f"YoungTableau({[list(row) for row in self.rows]})"

    def pretty(self) -> str:
        width = max(len(str(v)) for row in self.rows for v in row)
        return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in self.rows)


def _block_permutations(degree: int, blocks: Sequence[Sequence[int]]) -> list[Permutation]:
    out = []
    for choice in _cartesian(*[_words(block) for block in blocks]):
        images = list(range(1, degree + 1))
        for block, rearranged in zip(blocks, choice):
            for src, dst in zip(block, rearranged):
                images[src - 1] = dst
        out.append(Permutation(images))
    return out


def standard_tableaux(parts: Sequence[int]) -> tuple[YoungTableau, ...]:
    """All standard tableaux of the shape, in last-letter order."""
    return _standard_tableaux(validate_partition(parts))


@lru_cache(maxsize=None)
def _standard_tableaux(parts: Partition) -> tuple[YoungTableau, ...]:
    """The largest entry r in each corner, lowest row first, over the smaller shape's tableaux."""
    r = sum(parts)
    if r == 1:
        return (YoungTableau(((1,),)),)
    out = []
    for i in reversed(range(len(parts))):
        if i + 1 < len(parts) and parts[i + 1] == parts[i]:
            continue  # the row below is as long: no corner here
        smaller = tuple(filter(None, (*parts[:i], parts[i] - 1, *parts[i + 1:])))
        for t in _standard_tableaux(smaller):
            rows = [*t.rows, ()]
            rows[i] += (r,)
            out.append(YoungTableau(row for row in rows if row))
    return tuple(out)


def young_symmetrizer(t: YoungTableau) -> GroupRingElement:
    """Signed double sum Σ sign(v)·h·v over the row group H and the column group V of the tableau.

    H and V meet only in the identity, so the |H|·|V| products h·v are
    distinct and y is a signed set: sign(v) written once at each, with no
    arithmetic. H's ranks are grown from the identity and V's cosets on
    top of them (group_ring._subgroup_ranks), all through the
    transpositions' tables. Tableaux beyond the group-ring degree cap are
    refused before anything is built.
    """
    if t.size > MAX_DEGREE:
        raise ValueError(f"tableau on {t.size} letters exceeds the degree cap {MAX_DEGREE}")
    rows = _subgroup_ranks(t.size, t.rows, signed=False)
    ranks, signs = _subgroup_ranks(t.size, t.columns(), True, *rows)
    return GroupRingElement(t.size, _scatter([0] * factorial(t.size), ranks, signs))


def curvature_tableau(u: int) -> YoungTableau:
    """The two-row standard tableau driving curvature-type symmetry classes.

    First row 1, 3, 5, 6, ..., u+4; second row 2, 4. Shape (u+2, 2) on
    u+4 letters; u = 0 gives the order-4 curvature tableau, u = 1 the
    order-5 derivative one. u + 4 above the degree cap is refused before
    the row is built.
    """
    if u < 0:
        raise ValueError(f"need u >= 0, got {u}")
    if u + 4 > MAX_DEGREE:
        raise ValueError(f"tableau on {u + 4} letters exceeds the degree cap {MAX_DEGREE}")
    first = (1, 3) + tuple(range(5, u + 5))
    return YoungTableau((first, (2, 4)))
