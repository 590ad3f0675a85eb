"""Permutations of {1..r} in one-line notation.

A permutation is the tuple of images [p(1), ..., p(r)]; composition is
(p * q)(i) = p(q(i)). The degree r is always explicit: the same one-line
word denotes different elements in different symmetric groups, and the
embedding machinery relies on that distinction.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import permutations as _lex_words
from typing import Iterable, Sequence


class Permutation:
    """An immutable bijection of {1..r}."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(int(v) for v in images)
        if not images:
            raise ValueError("degree must be at least 1")
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {list(images)}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(1, degree + 1))

    @classmethod
    def transposition(cls, degree: int, a: int, b: int) -> "Permutation":
        if not (1 <= a <= degree and 1 <= b <= degree) or a == b:
            raise ValueError(f"invalid transposition ({a} {b}) in degree {degree}")
        images = list(range(1, degree + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(images)

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from disjoint cycles; points not mentioned are fixed."""
        images = list(range(1, degree + 1))
        seen: set[int] = set()
        for cycle in cycles:
            cycle = list(cycle)
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
        """Parse '[2,1,3]' one-line form, or '(1 3)(2 4)' cycle form.

        Cycle form needs an explicit degree since fixed points are implicit.
        """
        text = text.strip()
        if text.startswith("["):
            body = text.strip("[]")
            images = [int(v) for v in body.replace(",", " ").split()]
            p = cls(images)
            if degree is not None and p.degree != degree:
                raise ValueError(f"parsed degree {p.degree}, expected {degree}")
            return p
        if text.startswith("("):
            if degree is None:
                raise ValueError("cycle notation requires an explicit degree")
            cycles = [
                [int(v) for v in chunk.replace(",", " ").split()]
                for chunk in re.findall(r"\(([^()]*)\)", text)
            ]
            return cls.from_cycles(degree, cycles)
        raise ValueError(f"cannot parse permutation: {text!r}")

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

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.images, start=1) if v == i)

    def cycle_string(self) -> str:
        """Cycle notation, for diagnostics only; '()' for the identity."""
        seen: set[int] = set()
        parts = []
        for start in range(1, self.degree + 1):
            if start in seen or self(start) == start:
                seen.add(start)
                continue
            cycle = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            parts.append("(" + " ".join(str(v) for v in cycle) + ")")
        return "".join(parts) or "()"

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

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
def _rank_table(degree: int) -> dict[tuple[int, ...], int]:
    """One-line word to index; itertools.permutations already yields the canonical order."""
    return {w: i for i, w in enumerate(_lex_words(range(1, degree + 1)))}


def perm_rank(p: Permutation) -> int:
    """Index of p in the canonical enumeration of its symmetric group."""
    return _rank_table(p.degree)[p.images]
