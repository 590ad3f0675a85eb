"""Permutations of {1..r} in one-line notation.

A permutation is the tuple of images [p(1), ..., p(r)]; composition is
(p * q)(i) = p(q(i)). The degree r is always explicit: the same one-line
word denotes different elements in different symmetric groups, and the
embedding machinery relies on that distinction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _lex_words
from math import factorial
from typing import Iterable, Sequence

from .rationals import ExactValue, all_ints


@dataclass(frozen=True)
class Permutation(ExactValue):
    """An immutable bijection of {1..r}, built from any iterable of its int images."""

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        if not all_ints(images):
            raise ValueError(f"permutation images must be ints, got {list(images)}")
        if not images:
            raise ValueError("degree must be at least 1")
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {list(images)}")
        object.__setattr__(self, "images", images)

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(1, degree + 1))

    @classmethod
    def transposition(cls, degree: int, a: int, b: int) -> "Permutation":
        if not all_ints((a, b)) or not (1 <= a <= degree and 1 <= b <= degree) or a == b:
            raise ValueError(f"invalid transposition ({a} {b}) in degree {degree}")
        return cls.from_cycles(degree, [(a, b)])

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from disjoint cycles; points not mentioned are fixed."""
        images = list(range(1, degree + 1))
        seen: set[int] = set()
        for cycle in cycles:
            cycle = list(cycle)
            if not all_ints(cycle):
                raise ValueError(f"cycle entries must be ints, got {cycle}")
            if any(not 1 <= v <= degree for v in cycle):
                raise ValueError(f"cycle entry out of range 1..{degree}: {cycle}")
            if seen.intersection(cycle) or len(set(cycle)) != len(cycle):
                raise ValueError(f"cycles are not disjoint: {cycle}")
            seen.update(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return cls(images)

    @classmethod
    def parse(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse a whole '[2,1,3]' one-line form, or a whole run of cycles '(1 3)(2 4)'.

        '()' is the identity. Cycle form needs an explicit degree since fixed
        points are implicit. Any other text raises ValueError.
        """
        text = text.strip()
        if re.fullmatch(r"\[[^][]*\]", text):
            p = cls(int(v) for v in text[1:-1].replace(",", " ").split())
            if degree is not None and p.degree != degree:
                raise ValueError(f"parsed degree {p.degree}, expected {degree}")
            return p
        if not re.fullmatch(r"(\([^()]*\)\s*)+", text):
            raise ValueError(f"cannot parse permutation: {text!r}")
        if degree is None:
            raise ValueError("cycle notation requires an explicit degree")
        return cls.from_cycles(degree, ([int(v) for v in chunk.replace(",", " ").split()]
                                        for chunk in re.findall(r"\(([^()]*)\)", text)))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (p * q)(i) = p(q(i))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        mine = self.images
        return Permutation(mine[j - 1] for j in other.images)

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for i, v in enumerate(self.images, start=1):
            images[v - 1] = i
        return Permutation(images)

    def sign(self) -> int:
        inversions = 0
        images = self.images
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                if images[i] > images[j]:
                    inversions += 1
        return -1 if inversions % 2 else 1

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.images, start=1) if v == i)

    def cycle_string(self) -> str:
        """Cycle notation, for diagnostics only; '()' for the identity."""
        seen: set[int] = set()
        parts = []
        for start in range(1, self.degree + 1):
            if start in seen or self(start) == start:
                continue
            cycle = [start]
            while self(cycle[-1]) != start:
                cycle.append(self(cycle[-1]))
            seen.update(cycle)
            parts.append("(" + " ".join(str(v) for v in cycle) + ")")
        return "".join(parts) or "()"

    def __lt__(self, other: "Permutation") -> bool:
        if self.degree != other.degree:
            return self.degree < other.degree
        return self.images < other.images

    def __repr__(self) -> str:
        return "[" + ",".join(str(v) for v in self.images) + "]"


@lru_cache(maxsize=None)
def symmetric_group(degree: int) -> tuple[Permutation, ...]:
    """All of S_r in lexicographic one-line order; the canonical enumeration."""
    return tuple(Permutation(w) for w in _rank_table(degree))


@lru_cache(maxsize=None)
def _indices(degree: int) -> tuple[int, ...]:
    """0..r!-1, one tuple per degree: the int objects of the rank table and of every index table."""
    return tuple(range(factorial(degree)))


@lru_cache(maxsize=None)
def _rank_table(degree: int) -> dict[tuple[int, ...], int]:
    """One-line word to index; itertools.permutations already yields the canonical order."""
    return dict(zip(_lex_words(range(1, degree + 1)), _indices(degree)))


def perm_rank(p: Permutation) -> int:
    """Index of p in the canonical enumeration of its symmetric group."""
    return _rank_table(p.degree)[p.images]
