"""The exact-rational group ring Q[S_r].

Elements are dense coefficient vectors indexed by the canonical
(lexicographic) enumeration of S_r, so the convolution product is a
double loop over supports through a cached index-composition table.
Everything is an exact rational; floats never enter.

Elements are immutable and all caches are write-once, so values can be
shared freely across threads.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .linalg import RowBasis
from .permutation import Permutation, perm_rank, symmetric_group
from .rationals import Rational, as_rational, format_rational, wire_json, wire_scalar

# Dense storage is a length-r! vector; beyond S_8 that stops being sane.
MAX_DEGREE = 8

# Full composition tables are only materialized while they stay small.
_TABLE_MAX_DEGREE = 6


@lru_cache(maxsize=None)
def _composition_table(degree: int) -> tuple[tuple[int, ...], ...]:
    """table[i][j] = index of p_i * p_j in the canonical enumeration."""
    perms = symmetric_group(degree)
    index = {p.images: k for k, p in enumerate(perms)}
    table = []
    for p in perms:
        mine = p.images
        table.append(tuple(index[tuple(mine[j - 1] for j in q.images)] for q in perms))
    return tuple(table)


@lru_cache(maxsize=None)
def _inverse_table(degree: int) -> tuple[int, ...]:
    return tuple(perm_rank(p.inverse()) for p in symmetric_group(degree))


def _swap(images: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """The one-line word with entries i and j exchanged: p * (i+1 j+1)."""
    out = list(images)
    out[i], out[j] = images[j], images[i]
    return tuple(out)


class GroupRingElement:
    """An element of Q[S_r] with dense exact-rational coefficients."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Sequence[Rational]):
        if not 1 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
        size = factorial(degree)
        coeffs = tuple(as_rational(c) for c in coeffs)
        if len(coeffs) != size:
            raise ValueError(f"need {size} coefficients for degree {degree}, got {len(coeffs)}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElement is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, degree: int) -> "GroupRingElement":
        return cls(degree, [0] * factorial(degree))

    @classmethod
    def identity(cls, degree: int) -> "GroupRingElement":
        return cls.from_permutation(Permutation.identity(degree))

    @classmethod
    def from_permutation(cls, p: Permutation, coeff: Rational = 1) -> "GroupRingElement":
        coeffs = [0] * factorial(p.degree)
        coeffs[perm_rank(p)] = coeff
        return cls(p.degree, coeffs)

    @classmethod
    def from_terms(cls, degree: int,
                   terms: Iterable[tuple[Permutation | Sequence[int], Rational]]) -> "GroupRingElement":
        coeffs = [0] * factorial(degree)
        for perm, coeff in terms:
            if not isinstance(perm, Permutation):
                perm = Permutation(perm)
            if perm.degree != degree:
                raise ValueError(f"term of degree {perm.degree} in element of degree {degree}")
            coeffs[perm_rank(perm)] += coeff
        return cls(degree, coeffs)

    # -- ring structure --------------------------------------------------

    def _check_degree(self, other: "GroupRingElement") -> None:
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._check_degree(other)
        return GroupRingElement(self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._check_degree(other)
        return GroupRingElement(self.degree, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.degree, [-a for a in self.coeffs])

    def scale(self, c: Rational) -> "GroupRingElement":
        c = as_rational(c)
        return GroupRingElement(self.degree, [c * a for a in self.coeffs])

    def __rmul__(self, c) -> "GroupRingElement":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other) -> "GroupRingElement":
        """Convolution: (a*b)(s) = sum over p*q = s of a(p) b(q)."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._check_degree(other)
        size = factorial(self.degree)
        out = [0] * size
        mine = [(i, c) for i, c in enumerate(self.coeffs) if c]
        theirs = [(j, c) for j, c in enumerate(other.coeffs) if c]
        if self.degree <= _TABLE_MAX_DEGREE:
            table = _composition_table(self.degree)
            for i, ci in mine:
                row = table[i]
                for j, cj in theirs:
                    out[row[j]] += ci * cj
        else:
            perms = symmetric_group(self.degree)
            rank = perm_rank
            for i, ci in mine:
                p = perms[i]
                for j, cj in theirs:
                    out[rank(p * perms[j])] += ci * cj
        return GroupRingElement(self.degree, out)

    def star(self) -> "GroupRingElement":
        """The involution sending each permutation to its inverse."""
        inv = _inverse_table(self.degree)
        out = [0] * len(self.coeffs)
        for i, c in enumerate(self.coeffs):
            if c:
                out[inv[i]] = c
        return GroupRingElement(self.degree, out)

    # -- inspection ------------------------------------------------------

    def coefficient(self, p: Permutation | Sequence[int]) -> Rational:
        if not isinstance(p, Permutation):
            p = Permutation(p)
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self.degree}")
        return self.coeffs[perm_rank(p)]

    def terms(self) -> list[tuple[Permutation, Rational]]:
        """Nonzero terms in canonical enumeration order."""
        perms = symmetric_group(self.degree)
        return [(perms[i], c) for i, c in enumerate(self.coeffs) if c]

    def support_size(self) -> int:
        return sum(1 for c in self.coeffs if c)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.coeffs))

    def __repr__(self) -> str:
        terms = self.terms()
        if not terms:
            return f"<0 in Q[S_{self.degree}]>"
        shown = " + ".join(f"{format_rational(c)}*{p!r}" for p, c in terms[:4])
        if len(terms) > 4:
            shown += f" + ... ({len(terms)} terms)"
        return f"<{shown} in Q[S_{self.degree}]>"

    def pretty(self) -> str:
        """Human-readable signed sum, terms in canonical order."""
        parts = []
        for p, c in self.terms():
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            coeff = "" if mag == 1 else f"{format_rational(mag)} "
            parts.append((sign, f"{coeff}{p!r}"))
        if not parts:
            return "0"
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    # -- structure probes ------------------------------------------------

    def is_essentially_idempotent(self) -> Rational | None:
        """Return c with a*a = c*a, or None if no such scalar exists.

        Zero input is rejected; c = 0 is returned only when a*a is
        literally the zero element.
        """
        if self.is_zero():
            raise ValueError("undefined for the zero element")
        square = self * self
        if square.is_zero():
            return 0
        pivot = next(i for i, c in enumerate(self.coeffs) if c)
        c = as_rational(Fraction(square.coeffs[pivot]) / Fraction(self.coeffs[pivot]))
        return c if square == self.scale(c) else None

    def embed(self, degree: int, slots: Sequence[int]) -> "GroupRingElement":
        """Push the element into Q[S_degree] along an injective slot map.

        slots[i-1] is the position of letter i; unmentioned positions
        become fixed points. Coefficients are carried over unchanged.
        """
        slots = tuple(int(s) for s in slots)
        if len(slots) != self.degree:
            raise ValueError(f"slot map must list {self.degree} positions")
        if len(set(slots)) != len(slots):
            raise ValueError(f"slot map is not injective: {list(slots)}")
        if any(not 1 <= s <= degree for s in slots):
            raise ValueError(f"slot out of range 1..{degree}")
        out = []
        for p, c in self.terms():
            images = list(range(1, degree + 1))
            for i in range(1, self.degree + 1):
                images[slots[i - 1] - 1] = slots[p(i) - 1]
            out.append((Permutation(images), c))
        return GroupRingElement.from_terms(degree, out)

    def permutation_module_rank(self, content: Sequence[int]) -> int:
        """Rank of a on the span of the words with content[v] copies of letter v.

        p moves letter w[k] to position p(k), as slot permutations move the
        indices of a basis tensor; each distinct image a.e_w is eliminated once.
        """
        if any(c < 0 for c in content) or sum(content) != self.degree:
            raise ValueError(f"content {list(content)} is not a content of degree {self.degree}")
        words = sorted(set(permutations([v for v, c in enumerate(content) for _ in range(c)])))
        index = {w: i for i, w in enumerate(words)}
        terms = {p.images: c for p, c in self.terms()}
        # a(i j) = ±a makes the images of w and (i j).w equal up to sign, so of the
        # words only those sorted on every such pair (i, j) need a row
        pairs = [(i, j) for i, j in combinations(range(self.degree), 2) for sign in (1, -1)
                 if all(terms.get(_swap(images, i, j)) == sign * c for images, c in terms.items())]
        words = [w for w in words if all(w[i] <= w[j] for i, j in pairs)]
        rows: list[dict[int, Rational]] = [{} for _ in words]
        for images, c in terms.items():
            # p.w holds w[k] at position p(k); one index would give itemgetter no tuple
            source = sorted(range(self.degree), key=images.__getitem__)
            move = itemgetter(*source) if self.degree > 1 else tuple
            for row, target in zip(rows, map(index.__getitem__, map(move, words))):
                row[target] = row.get(target, 0) + c
        basis = RowBasis(len(index))
        for entries in dict.fromkeys(frozenset((i, c) for i, c in r.items() if c) for r in rows):
            dense = [0] * len(index)
            for i, c in entries:
                dense[i] = c
            basis.add(dense)
        return basis.rank

    def right_ideal_rank(self) -> int:
        """Dimension over Q of span{a * p : p in S_r}, a's rank on the regular module."""
        return self.permutation_module_rank((1,) * self.degree)

    # -- wire form ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON wire form with exact string coefficients."""
        return {
            "degree": self.degree,
            "terms": [
                {"perm": list(p.images), "coeff": format_rational(c)}
                for p, c in self.terms()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "GroupRingElement":
        data = wire_json(data, dict, "element")
        degree = wire_scalar(data["degree"], "degree", integer=True)
        if not 1 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
        terms = []
        for entry in wire_json(data.get("terms", []), list, "terms"):
            entry = wire_json(entry, dict, "term")
            images = wire_json(entry["perm"], list, "perm")
            perm = Permutation(wire_scalar(v, "permutation entry", integer=True) for v in images)
            terms.append((perm, wire_scalar(entry["coeff"], "coefficient")))
        return cls.from_terms(degree, terms) if terms else cls.zero(degree)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "GroupRingElement":
        return cls.from_dict(json.loads(text))


def stabilizer_symmetrizer(degree: int, fixed: Iterable[int],
                           signed: bool = False) -> GroupRingElement:
    """Sum of all permutations fixing every listed position.

    Unsigned coefficients are 1; with signed=True each permutation
    carries its sign, so fixing nothing gives the full antisymmetrizer.
    """
    fixed = set(fixed)
    if any(not 1 <= i <= degree for i in fixed):
        raise ValueError(f"fixed positions must lie in 1..{degree}")
    coeffs = [0] * factorial(degree)
    for i, p in enumerate(symmetric_group(degree)):
        if all(p(j) == j for j in fixed):
            coeffs[i] = p.sign() if signed else 1
    return GroupRingElement(degree, coeffs)
