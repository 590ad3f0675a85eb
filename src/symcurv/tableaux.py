"""Partitions, Young tableaux and Young symmetrizers.

Standard tableaux of a shape are enumerated in last-letter order: the
tableau whose largest differing entry sits in the lower row comes first.
That order is the basis order of the natural representation, so it is
load-bearing for the Fourier modules and must not change.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _words
from itertools import product as _cartesian
from math import factorial
from typing import Iterable, Iterator, Sequence

from .group_ring import MAX_DEGREE, GroupRingElement
from .permutation import Permutation

Partition = tuple[int, ...]


def validate_partition(parts: Sequence[int]) -> Partition:
    parts = tuple(int(v) for v in parts)
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
    parts = validate_partition(parts)
    conj = conjugate_partition(parts)
    return [
        [(parts[i] - j) + (conj[j] - i) - 1 for j in range(parts[i])]
        for i in range(len(parts))
    ]


def hook_dimension(parts: Sequence[int]) -> int:
    """Number of standard tableaux of the shape: r! over the hook product."""
    parts = validate_partition(parts)
    product = 1
    for row in hook_lengths(parts):
        for h in row:
            product *= h
    return factorial(sum(parts)) // product


def weyl_dimension(parts: Sequence[int], dim: int) -> int:
    """Dimension of the irreducible GL(dim) module of this shape.

    The content-over-hook product; zero when the shape has more rows
    than dim.
    """
    parts = validate_partition(parts)
    if len(parts) > dim:
        return 0
    value = Fraction(1)
    for i, row in enumerate(hook_lengths(parts)):
        for j, h in enumerate(row):
            value *= Fraction(dim + j - i, h)
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral dimension for {parts} at n={dim}")
    return int(value)


class YoungTableau:
    """A filling of a Young frame with 1..r, each exactly once."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        shape = tuple(len(row) for row in rows)
        validate_partition(shape)
        entries = [v for row in rows for v in row]
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValueError(f"entries must be 1..{len(entries)} exactly once: {rows}")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("YoungTableau is immutable")

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

    def __eq__(self, other) -> bool:
        return isinstance(other, YoungTableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

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


def _last_letter_key(t: YoungTableau) -> tuple[int, ...]:
    return tuple(-t.row_of(k) for k in range(t.size, 0, -1))


def standard_tableaux(parts: Sequence[int]) -> tuple[YoungTableau, ...]:
    """All standard tableaux of the shape, in last-letter order."""
    return _standard_tableaux(validate_partition(parts))


@lru_cache(maxsize=None)
def _standard_tableaux(parts: Partition) -> tuple[YoungTableau, ...]:
    r = sum(parts)
    results: list[YoungTableau] = []

    def place(entry: int, rows: list[list[int]]) -> None:
        if entry > r:
            results.append(YoungTableau(rows))
            return
        for i in range(len(parts)):
            if len(rows[i]) >= parts[i]:
                continue
            if i > 0 and len(rows[i - 1]) <= len(rows[i]):
                continue
            rows[i].append(entry)
            place(entry + 1, rows)
            rows[i].pop()

    place(1, [[] for _ in parts])
    return tuple(sorted(results, key=_last_letter_key))


def young_symmetrizer(t: YoungTableau) -> GroupRingElement:
    """Signed double sum over the row and column groups of the tableau.

    Row permutations enter with coefficient 1, column permutations with
    their sign, composed row-then-column. Tableaux beyond the group-ring
    degree cap are refused before the groups are enumerated.
    """
    if t.size > MAX_DEGREE:
        raise ValueError(f"tableau on {t.size} letters exceeds the degree cap {MAX_DEGREE}")
    signed_columns = [(q, q.sign()) for q in t.vertical_group()]
    terms = []
    for p in t.horizontal_group():
        for q, sign in signed_columns:
            terms.append((p * q, sign))
    return GroupRingElement.from_terms(t.size, terms)


def curvature_tableau(u: int) -> YoungTableau:
    """The two-row standard tableau driving curvature-type symmetry classes.

    First row 1, 3, 5, 6, ..., u+4; second row 2, 4. Shape (u+2, 2) on
    u+4 letters; u = 0 gives the order-4 curvature tableau, u = 1 the
    order-5 derivative one.
    """
    if u < 0:
        raise ValueError(f"need u >= 0, got {u}")
    first = (1, 3) + tuple(range(5, u + 5))
    return YoungTableau((first, (2, 4)))
