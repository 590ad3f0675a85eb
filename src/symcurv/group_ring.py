"""The exact-rational group ring Q[S_r].

Elements are dense coefficient vectors indexed by the canonical
(lexicographic) enumeration of S_r. A product a*b first splits off the
group sum of b's right stabilizer among the Young subgroups, then
convolves a with what is left and multiplies by that group sum as a
chain of Jucys-Murphy factors (A. Jucys, Rep. Math. Phys. 5, 1974;
G. Murphy, J. Algebra 69, 1981). Everything is an exact rational;
floats never enter.

Elements are immutable and all caches are write-once, so values can be
shared freely across threads.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .linalg import RowBasis
from .permutation import Permutation, _rank_table, perm_rank, symmetric_group
from .rationals import Rational, as_rational, format_rational, wire_json, wire_scalar

# Dense storage is a length-r! vector; beyond S_8 that stops being sane.
MAX_DEGREE = 8


@lru_cache(maxsize=None)
def _inverse_table(degree: int) -> tuple[int, ...]:
    """table[k] = index of the inverse of the k-th permutation, from raw one-line words."""
    rank = _rank_table(degree)
    out = []
    for w in rank:
        inv = [0] * degree
        for i, v in enumerate(w, start=1):
            inv[v - 1] = i
        out.append(rank[tuple(inv)])
    return tuple(out)


@lru_cache(maxsize=None)
def _swap_table(degree: int, i: int, j: int) -> tuple[int, ...]:
    """table[k] = index of p_k * (i+1 j+1), p_k's word with positions i and j swapped.

    One table per transposition of each degree, so the degree cap bounds the cache.
    """
    order = list(range(degree))
    order[i], order[j] = j, i
    rank = _rank_table(degree)
    return tuple(map(rank.__getitem__, map(itemgetter(*order), rank)))


def _swap(images: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """The one-line word with entries i and j exchanged: p * (i+1 j+1)."""
    out = list(images)
    out[i], out[j] = images[j], images[i]
    return tuple(out)


def _positions(indices: Sequence[int]):
    """The map taking a word w to the tuple of its entries at the given positions."""
    return itemgetter(*indices) if len(indices) > 1 else tuple


def _swap_sign(terms: Mapping[tuple[int, ...], Rational], i: int, j: int) -> int:
    """s in {1, -1} with b * (i+1 j+1) = s*b, or 0 when there is none."""
    for sign in (1, -1):
        if all(terms.get(_swap(images, i, j)) == sign * c for images, c in terms.items()):
            return sign
    return 0


def _stabilizer_blocks(terms: Mapping[tuple[int, ...], Rational]) -> list[tuple[list[int], int]]:
    """Blocks B of 0-based positions and signs s with b*h = s*b for each transposition h of S_B.

    terms maps the words of b to their nonzero coefficients; b = 0 has no
    blocks. For b != 0 the transpositions h with b*h = ±b generate a Young
    subgroup on which b transforms by a character: (i k) = (i j)(j k)(i j)
    joins the pairs into cliques, one per block, and conjugate
    transpositions carry one sign. So a position joins at most one block,
    found by testing it against each block's first position.
    """
    blocks: list[tuple[list[int], int]] = []
    for j in range(len(next(iter(terms), ()))):
        for n, (block, _) in enumerate(blocks):
            sign = _swap_sign(terms, block[0], j)
            if sign:
                blocks[n] = (block + [j], sign)
                break
        else:
            blocks.append(([j], 0))
    return [(block, sign) for block, sign in blocks if len(block) > 1]


def _sorted_on(word: tuple[int, ...], blocks: list[tuple[list[int], int]]) -> bool:
    """Whether the word is weakly increasing along every block."""
    return all(word[i] <= word[j] for block, _ in blocks for i, j in zip(block, block[1:]))


def _times_block_sum(coeffs: list[Rational], degree: int, block: Sequence[int],
                     sign: int) -> list[Rational]:
    """coeffs * Σ_{g in S_block} χ(g)·g as the chain Π_j (1 + sign·L_j).

    χ is the sign character when sign = -1 and trivial when sign = 1.
    L_j = Σ_{i<j in block} (i j) is the Jucys-Murphy element; block holds
    0-based positions. Right multiplication by a transposition swaps two
    positions of every word, one scatter through its index table.
    """
    for n, j in enumerate(block[1:], start=1):
        support = [(k, c if sign > 0 else -c) for k, c in enumerate(coeffs) if c]
        out = list(coeffs)
        for i in block[:n]:
            table = _swap_table(degree, i, j)
            for k, c in support:
                out[table[k]] += c
        coeffs = out
    return coeffs


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
        """Convolution: (a*b)(s) = sum over p*q = s of a(p) b(q).

        With blocks B and signs χ from b's right stabilizer, b = b0 * Π_B
        Σ_{S_B} χ(g)·g, where b0 keeps the terms whose word increases on
        every block; a*b is the convolution a*b0 times those group sums.
        """
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._check_degree(other)
        theirs = {q.images: c for q, c in other.terms()}
        blocks = _stabilizer_blocks(theirs)
        mine = [(p.images, c) for p, c in self.terms()]
        rank = _rank_table(self.degree)
        out: list[Rational] = [0] * len(rank)
        for q, cq in theirs.items():
            if _sorted_on(q, blocks):
                compose = _positions([v - 1 for v in q])  # p -> p*q
                for p, cp in mine:
                    out[rank[compose(p)]] += cp * cq
        for block, sign in blocks:
            out = _times_block_sum(out, self.degree, block, sign)
        return GroupRingElement(self.degree, out)

    def times_group_sum(self, block: Iterable[int], signed: bool = False) -> "GroupRingElement":
        """a * Σ g over the permutations g moving only the listed positions.

        With signed=True each g carries its sign. The sum is the chain
        Π_j (1 ± L_j) of Jucys-Murphy elements over the block, so it costs
        binom(|block|, 2) passes over the support, not |block|! products.
        """
        block = [int(v) for v in block]
        if any(not 1 <= v <= self.degree for v in block) or len(set(block)) != len(block):
            raise ValueError(f"block must list distinct positions in 1..{self.degree}: {block}")
        coeffs = _times_block_sum(list(self.coeffs), self.degree, sorted(v - 1 for v in block),
                                  -1 if signed else 1)
        return GroupRingElement(self.degree, coeffs)

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
        # words only those sorted on every stabilizer block need a row
        blocks = _stabilizer_blocks(terms)
        words = [w for w in words if _sorted_on(w, blocks)]
        rows: list[dict[int, Rational]] = [{} for _ in words]
        for images, c in terms.items():
            # p.w holds w[k] at position p(k)
            source = sorted(range(self.degree), key=images.__getitem__)
            move = _positions(source)
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
    free = [i for i in range(1, degree + 1) if i not in fixed]
    return GroupRingElement.identity(degree).times_group_sum(free, signed)
