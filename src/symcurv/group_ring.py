"""The exact-rational group ring Q[S_r].

Elements are dense coefficient vectors indexed by the canonical
(lexicographic) enumeration of S_r. A product a*b splits b once
(_factored) into the group sums of a left and a right Young-subgroup
stabilizer around what is left; y* = V·H keeps one word between its
column and row sums. a is multiplied by the left sums, convolved with
what is left and multiplied by the right sums, each group sum a chain of
Jucys-Murphy factors (A. Jucys, Rep. Math. Phys. 5, 1974; G. Murphy,
J. Algebra 69, 1981), each step one C-speed gather through each
transposition's table. The tensor action reads the same split, the
transform its right half. Products run on integer numerators over each factor's common
denominator, and each nonzero of the product is divided once.
Everything is an exact rational; floats never enter.
Right-ideal ranks are read off Fourier blocks.

Young and stabilizer symmetrizers need no arithmetic: a Young subgroup's
ranks are grown coset by coset through the transpositions' tables
(_subgroup_ranks), each coset's signs the last one's negated, and the
symmetrizer is ±1 written once at each rank it holds.

The index tables (each transposition's, the inverse's) are grown from
lexicographic order, not by hashing one word per permutation: the words
sharing a first letter are a run of (r-1)! consecutive indices ordered
like S_{r-1}, so each table is slices and C-speed gathers of a table one
degree down, and holds the rank table's own int objects.

Elements are immutable and all caches are write-once, so values can be
shared freely across threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, compress, permutations, repeat
from math import factorial, lcm
from operator import add, attrgetter, eq, itemgetter, le, mul, neg, sub
from typing import Callable, Iterable, Mapping, Sequence

from .permutation import Permutation, _indices, _rank_table, perm_rank
from .rationals import ExactVector, Rational, all_ints, as_rational, as_rationals, format_rational, wire_entries, wire_shape

# Dense storage is a length-r! vector; beyond S_8 that stops being sane.
MAX_DEGREE = 8


def _require_degree(degree: int) -> None:
    """Refuse a degree outside 1..MAX_DEGREE, before anything of size r! is built."""
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")


def _int_positions(values: Iterable, what: str) -> list[int]:
    """The positions as a list, each of type int: a float is refused, not truncated, and so is a bool."""
    values = list(values)
    if not all_ints(values):
        raise ValueError(f"{what} must be ints, got {values}")
    return values


def _inserted(degree: int, position: int, letter: int) -> Sequence[int]:
    """table[t] = index in S_r of q_t, the t-th word of S_{r-1}, with a letter put in.

    The new letter is letter+1 at 0-based `position`, and q_t's letters from
    letter+1 up are raised by one. In lexicographic order the words sharing
    a first letter are one run of (r-1)! indices, ordered like S_{r-1}. At
    position 0 the new word starts run `letter`. Elsewhere it keeps q_t's
    first letter, so q_t's run b lands in run b, or b+1 when b >= letter,
    and inside it the map is the same one degree down.
    """
    ranks, size = _indices(degree), factorial(degree - 1)
    if not position:
        return ranks[letter * size:(letter + 1) * size]
    out: list[int] = []
    for b in range(degree - 1):
        if b in (0, letter):  # the first run below the new letter, and the first above it
            below = _positions(_inserted(degree - 1, position - 1, letter - (b < letter)))
        start = (b + (b >= letter)) * size
        out += below(ranks[start:start + size])
    return out


@lru_cache(maxsize=None)
def _inverse_table(degree: int) -> tuple[int, ...]:
    """table[k] = index of the inverse of the k-th permutation.

    The words w starting with letter a+1 are run a; w^{-1} puts a 1 at
    position a of q^{-1} raised by one, q the rest of w as a word of
    S_{r-1}. So run a is the table one degree down read through that map.
    """
    if degree == 1:
        return _indices(1)
    below = _positions(_inverse_table(degree - 1))
    return tuple(chain.from_iterable(below(_inserted(degree, a, 0)) for a in range(degree)))


def _by_runs(values: Sequence[int], below: Sequence[int]) -> tuple[int, ...]:
    """values read run by run, each run of len(below) entries gathered through below."""
    run, gather = len(below), _positions(below)
    return tuple(chain.from_iterable(gather(values[s:s + run]) for s in range(0, len(values), run)))


@lru_cache(maxsize=None)
def _swap_table(degree: int, i: int, j: int) -> tuple[int, ...]:
    """table[k] = index of p_k * (i+1 j+1), p_k's word with positions i and j swapped.

    Grown from lexicographic order by slices and gathers. For i >= 1 each
    run of (r-1)! words sharing a first letter takes the table of (i j) one
    degree down. (1 2) moves whole runs of (r-2)! words, found from their
    first two letters, and (1 j+1) = (1 2)(2 j+1)(1 2) reads (2 j+1) the
    same way, through the table of (1 2). One table per transposition of
    each degree, so the degree cap bounds the cache.
    """
    if i:
        return _by_runs(_indices(degree), _swap_table(degree - 1, i - 1, j - 1))
    if j == 1:
        # the run of (r-2)! words starting x+1, y+1 moves to the one starting y+1, x+1: y·(r-1) + x - (x > y)
        ranks, run, n = _indices(degree), factorial(degree - 2), degree - 1
        return tuple(chain.from_iterable(ranks[s:s + run] for s in (
            (y * n + x - (x > y)) * run for x, y in permutations(range(degree), 2))))
    outer = _swap_table(degree, 0, 1)
    return _positions(outer)(_by_runs(outer, _swap_table(degree - 1, 0, j - 1)))


def _swap(images: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """The one-line word with entries i and j exchanged: p * (i+1 j+1)."""
    out = list(images)
    out[i], out[j] = images[j], images[i]
    return tuple(out)


def _positions(indices: Sequence[int]):
    """The map taking a sequence w to the sequence of its entries at the given positions.

    itemgetter returns a bare entry for one position, so one position or
    none is read as a slice of w, at C speed like the rest.
    """
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


def _swap_keeps(terms: Mapping[tuple[int, ...], Rational], i: int, j: int, sign: int) -> bool:
    """Whether b * (i+1 j+1) = sign*b.

    Each word goes through one itemgetter swap and terms.get at C speed,
    and the comparison stops at the first coefficient that differs.
    """
    order = list(range(len(next(iter(terms)))))
    order[i], order[j] = j, i
    values = terms.values() if sign > 0 else map(neg, terms.values())
    return all(map(eq, map(terms.get, map(itemgetter(*order), terms)), values))


def _stabilizer_blocks(terms: Mapping[tuple[int, ...], Rational]) -> list[tuple[list[int], int]]:
    """Blocks B of 0-based positions and signs s with b*h = s*b for each transposition h of S_B.

    terms maps the words of b to their nonzero coefficients. A
    transposition moves every word, so b = 0 and b of one word have no
    blocks. Otherwise the transpositions h with b*h = ±b generate a Young
    subgroup on which b transforms by a character: (i k) = (i j)(j k)(i j)
    joins the pairs into cliques, one per block, and conjugate
    transpositions carry one sign. So a position joins at most one block,
    found by testing it against each block's first position. The first
    word's swap names the only sign a pair can carry, so most pairs are
    refused before the rest of b is read.
    """
    if len(terms) < 2:
        return []
    word, c = next(iter(terms.items()))
    signs = {c: 1, -c: -1}
    blocks: list[tuple[list[int], int]] = []
    for j in range(len(word)):
        for n, (block, _) in enumerate(blocks):
            sign = signs.get(terms.get(_swap(word, block[0], j)), 0)
            if sign and _swap_keeps(terms, block[0], j, sign):
                blocks[n] = (block + [j], sign)
                break
        else:
            blocks.append(([j], 0))
    return [(block, sign) for block, sign in blocks if len(block) > 1]


def _times_block_sum(coeffs: Sequence[Rational], block: Sequence[int], sign: int,
                     swap: Callable[[int, int], Sequence[int]]) -> Sequence[Rational]:
    """Σ_{g in S_block} χ(g)·g on coeffs as the chain Π_j (1 + sign·L_j).

    χ is the sign character when sign = -1 and trivial when sign = 1.
    L_j = Σ_{i<j in block} (i j) is the Jucys-Murphy element; block holds
    0-based positions. swap(i, j) is the scatter table of (i+1 j+1):
    _swap_table for a right factor of a group-ring element, the slot table
    for a tensor. A transposition is an involution, so its scatter table is
    also its gather table: each step adds or subtracts coeffs[table[k]] to
    entry k at C speed, whatever the density. The L_j commute, so the
    chain's order does not matter.
    """
    for n, j in enumerate(block[1:], start=1):
        out = coeffs
        for i in block[:n]:
            out = map(add if sign > 0 else sub, out, _positions(swap(i, j))(coeffs))
        coeffs = list(out)
    return coeffs


def _numerators(a: "GroupRingElement") -> tuple[int, dict[tuple[int, ...], int]]:
    """(den, numerators): a's coefficients are numerators[w] / den over its nonzero words w.

    den is the lcm of the coefficients' denominators, so the numerators are
    ints; when the coefficients are all ints, den is 1 and they are their
    own numerators, found at C speed.
    """
    terms = dict(compress(zip(_rank_table(a.degree), a.coeffs), a.coeffs))
    if all_ints(terms.values()):
        return 1, terms
    den = lcm(*map(attrgetter("denominator"), terms.values()))
    return den, {w: c.numerator * (den // c.denominator) for w, c in terms.items()}


def _sorted_on(terms: dict[tuple[int, ...], int], blocks: list[tuple[list[int], int]]) -> dict[tuple[int, ...], int]:
    """The terms whose words increase along every block: w[i] <= w[j] for consecutive i, j of a block."""
    pairs = [(i, j) for block, _ in blocks for i, j in zip(block, block[1:])]
    if not pairs:
        return terms
    lo, hi = (_positions(half) for half in zip(*pairs))
    return {w: n for w, n in terms.items() if all(map(le, lo(w), hi(w)))}


@lru_cache(maxsize=None)
def _word_list(degree: int) -> tuple[tuple[int, ...], ...]:
    """The one-line words of S_r by index."""
    return tuple(_rank_table(degree))


def _inverted(terms: dict[tuple[int, ...], int], degree: int) -> dict[tuple[int, ...], int]:
    """The same coefficients on the inverse words, each found through the rank and inverse tables at C speed."""
    inverse = map(_inverse_table(degree).__getitem__, map(_rank_table(degree).__getitem__, terms))
    return dict(zip(map(_word_list(degree).__getitem__, inverse), terms.values()))


Split = tuple[int, list[tuple[list[int], int]], dict[tuple[int, ...], int], list[tuple[list[int], int]]]


def _factored(a: "GroupRingElement", two_sided: bool = True) -> Split:
    """(den, left, rest, right) with a = Π_left Σ χ(g)·g · (Σ_w rest[w]·w)/den · Π_right Σ χ(g)·g.

    right are a's right stabilizer blocks B with signs (_stabilizer_blocks):
    a·h = χ_B(h)·a for each transposition h in S_B, χ_B the sign character
    for sign -1 and trivial for 1. So on each coset w·Π_B S_B a's terms are
    one coefficient times χ, and the rest keeps, over den, the integer
    numerator of the coset's one word that increases along every block.
    left are the right stabilizer blocks of the rest's inverse words, since
    h·b = χ(h)·b exactly when b*·h = χ(h)·b*; the rest then keeps one word
    per left coset too, the one whose inverse increases along every left
    block. So y* = V·H keeps one word, its rows on the right and its
    columns on the left. The left side shows only when the right coset
    words form a left-stable set, as y*'s do; y = H·V keeps its rows in
    the rest. Products and tensor actions run the group sums as
    Jucys-Murphy chains (_times_block_sum). Transforms scale only right
    group sums, so they ask for the right split alone (two_sided=False,
    left is then empty); this is the one place a is split.
    """
    den, numerators = _numerators(a)
    right = _stabilizer_blocks(numerators)
    rest = _sorted_on(numerators, right)
    if not two_sided:
        return den, [], rest, right
    inverse = _inverted(rest, a.degree)
    left = _stabilizer_blocks(inverse)
    if left:
        rest = _inverted(_sorted_on(inverse, left), a.degree)
    return den, left, rest, right


@dataclass(frozen=True)
class GroupRingElement(ExactVector):
    """An element of Q[S_r] with dense exact-rational coefficients, built from any sequence."""

    __slots__ = ("degree", "coeffs")
    degree: int
    coeffs: tuple[Rational, ...]

    def __post_init__(self):
        _require_degree(self.degree)
        size = factorial(self.degree)
        coeffs = as_rationals(self.coeffs)
        if len(coeffs) != size:
            raise ValueError(f"need {size} coefficients for degree {self.degree}, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, degree: int) -> "GroupRingElement":
        return cls.from_terms(degree, ())

    @classmethod
    def identity(cls, degree: int) -> "GroupRingElement":
        return cls.from_permutation(Permutation.identity(degree))

    @classmethod
    def from_permutation(cls, p: Permutation, coeff: Rational = 1) -> "GroupRingElement":
        _require_degree(p.degree)
        coeffs = [0] * factorial(p.degree)
        coeffs[perm_rank(p)] = coeff
        return cls(p.degree, coeffs)

    @classmethod
    def from_terms(cls, degree: int,
                   terms: Iterable[tuple[Permutation | Sequence[int], Rational]]) -> "GroupRingElement":
        _require_degree(degree)
        coeffs = [0] * factorial(degree)
        for perm, coeff in terms:
            if not isinstance(perm, Permutation):
                perm = Permutation(perm)
            if perm.degree != degree:
                raise ValueError(f"term of degree {perm.degree} in element of degree {degree}")
            coeffs[perm_rank(perm)] += coeff
        return cls(degree, coeffs)

    # -- ring structure (+, -, negation and scalars come from ExactVector) -----

    def __mul__(self, other) -> "GroupRingElement":
        """Convolution: (a*b)(s) = sum over p*q = s of a(p) b(q).

        b is split by _factored, so a*b is a times b's left group sums,
        convolved with b's rest, then times b's right group sums. All run on
        integer numerators, and each nonzero of the result is divided once
        by the two denominators.
        """
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not self._matches(other):
            return NotImplemented
        den_a, mine = _numerators(self)
        den_b, left, theirs, right = _factored(other)
        rank = _rank_table(self.degree)
        swap = partial(_swap_table, self.degree)
        out: list[Rational] = [0] * len(rank)
        terms = mine.items()
        if left:
            # a times b's left group sums, on a's numerators over all of S_r
            values = self.coeffs if den_a == 1 else list(map(mine.get, rank, repeat(0)))
            for block, sign in left:
                values = _times_block_sum(values, block, sign, swap)
            # the rest's identity word, the one word y*'s rest keeps, adds a·L itself at C speed
            y = theirs.pop(tuple(range(1, self.degree + 1)), 0)
            if y:
                out = values if y == 1 else list(map(mul, values, repeat(y)))
            terms = list(compress(zip(rank, values), values)) if theirs else ()
        for q, y in theirs.items():
            compose = _positions([v - 1 for v in q])  # p -> p*q
            for p, x in terms:
                out[rank[compose(p)]] += x * y
        for block, sign in right:
            out = _times_block_sum(out, block, sign, swap)
        den = den_a * den_b
        if den != 1:
            out = [Fraction(n, den) if n else 0 for n in out]
        return GroupRingElement(self.degree, out)

    def times_group_sum(self, block: Iterable[int], signed: bool = False) -> "GroupRingElement":
        """a * Σ g over the permutations g moving only the listed positions.

        With signed=True each g carries its sign. The sum is the chain
        Π_j (1 ± L_j) of Jucys-Murphy elements over the block, so it costs
        binom(|block|, 2) passes over the support, not |block|! products.
        """
        block = _int_positions(block, "block positions")
        if any(not 1 <= v <= self.degree for v in block) or len(set(block)) != len(block):
            raise ValueError(f"block must list distinct positions in 1..{self.degree}: {block}")
        coeffs = _times_block_sum(self.coeffs, sorted(v - 1 for v in block), -1 if signed else 1,
                                  partial(_swap_table, self.degree))
        return GroupRingElement(self.degree, coeffs)

    def star(self) -> "GroupRingElement":
        """The involution sending each permutation to its inverse."""
        # the table is an involution, so it gathers as well as it scatters
        return GroupRingElement(self.degree, _positions(_inverse_table(self.degree))(self.coeffs))

    # -- inspection ------------------------------------------------------

    def coefficient(self, p: Permutation | Sequence[int]) -> Rational:
        if not isinstance(p, Permutation):
            p = Permutation(p)
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self.degree}")
        return self.coeffs[perm_rank(p)]

    def terms(self) -> list[tuple[Permutation, Rational]]:
        """Nonzero terms in canonical enumeration order."""
        terms = compress(zip(_rank_table(self.degree), self.coeffs), self.coeffs)
        return [(Permutation(w), c) for w, c in terms]

    def support_size(self) -> int:
        return sum(1 for c in self.coeffs if c)

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
        slots = _int_positions(slots, "slots")
        if len(slots) != self.degree:
            raise ValueError(f"slot map must list {self.degree} positions")
        if len(set(slots)) != len(slots):
            raise ValueError(f"slot map is not injective: {slots}")
        if any(not 1 <= s <= degree for s in slots):
            raise ValueError(f"slot out of range 1..{degree}")
        out = []
        for p, c in self.terms():
            images = list(range(1, degree + 1))
            for i in range(1, self.degree + 1):
                images[slots[i - 1] - 1] = slots[p(i) - 1]
            out.append((Permutation(images), c))
        return GroupRingElement.from_terms(degree, out)

    def right_ideal_rank(self) -> int:
        """Dimension over Q of span{a * p : p in S_r}: Σ_λ f^λ · rank D_λ(a)."""
        from .dft import block_ranks  # dft imports this module
        from .tableaux import hook_dimension, partitions_of
        shapes = partitions_of(self.degree)
        return sum(hook_dimension(s) * k for s, k in zip(shapes, block_ranks(self, shapes)))

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
        data, (degree,) = wire_shape(data, "element", ("degree",))
        terms = wire_entries(data, "terms", "perm", "coeff",
                             ("term", "permutation entry", "permutation", "coefficient"), key=Permutation)
        return cls.from_terms(degree, terms.items())


def _subgroup_ranks(degree: int, blocks: Iterable[Sequence[int]], signed: bool,
                    ranks: Sequence[int] = (0,), signs: Sequence[int] = (1,)) -> tuple[list[int], list[int]]:
    """(ranks, signs) of every p·g: p ranked in ranks with its sign, g in the Young subgroup Π_B S_B.

    blocks are disjoint sequences of letters; by default p is only the
    identity, rank 0. S_{b_1..b_k+1} is k+1 cosets of S_{b_1..b_k}: itself,
    then itself times c = (b_k b_k+1), times c·(b_k-1 b_k), and so on, each
    one transposition longer. So each coset is the last one gathered
    through one swap table (_swap_table) at C speed, and when signed it
    carries the last one's signs negated. No word is built or hashed. The
    products are distinct when the p lie in a subgroup meeting this one
    only in the identity, as a tableau's row and column groups do.
    """
    ranks, signs = list(ranks), list(signs)
    for block in blocks:
        for k in range(1, len(block)):
            coset, coset_signs = ranks, signs
            ranks, signs = list(ranks), list(signs)
            for i, j in zip(block[k - 1::-1], block[k:0:-1]):
                coset = list(map(_swap_table(degree, min(i, j) - 1, max(i, j) - 1).__getitem__, coset))
                if signed:
                    coset_signs = list(map(neg, coset_signs))
                ranks += coset
                signs += coset_signs
    return ranks, signs


def _scatter(coeffs: list, indices: Iterable[int], values: Iterable) -> list:
    """coeffs with values[n] written at indices[n], at C speed."""
    deque(map(coeffs.__setitem__, indices, values), maxlen=0)
    return coeffs


def stabilizer_symmetrizer(degree: int, fixed: Iterable[int],
                           signed: bool = False) -> GroupRingElement:
    """Sum of all permutations fixing every listed position.

    Unsigned coefficients are 1; with signed=True each permutation
    carries its sign, so fixing nothing gives the full antisymmetrizer.
    The sum is a signed set: 1 or the sign written once at the rank of
    each permutation of the free positions (_subgroup_ranks).
    """
    fixed = set(_int_positions(fixed, "fixed positions"))
    if any(not 1 <= i <= degree for i in fixed):
        raise ValueError(f"fixed positions must lie in 1..{degree}")
    _require_degree(degree)
    ranks, signs = _subgroup_ranks(degree, [[i for i in range(1, degree + 1) if i not in fixed]], signed)
    return GroupRingElement(degree, _scatter([0] * factorial(degree), ranks, signs))
