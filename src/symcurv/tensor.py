"""Dense exact-rational tensors and group-ring symmetry operators.

A group-ring element a acts on an order-r tensor by
(aT)[i_1..i_r] = sum over p of a(p) * T[i_{p(1)}..i_{p(r)}],
and the frame evaluation T_b collects all permuted evaluations of T on
a tuple of vectors into a group-ring element. Under these conventions
(a*b)T = a(bT) and (aT)_b = T_b * star(a); a regression test pins the
composition order.

An operator is compiled once per dimension (_compiled_action). On a
tensor at least half nonzero it acts the way it multiplies, split on both
sides by group_ring._factored: its right group sums, its rest, then its
left group sums, each pass a C-speed gather over the coordinates (y*
takes 4 row passes, 1 word and 2 column passes);
on a sparser tensor its terms are merged by output once per equal-entry
pattern of the coordinates (_Patterns).
tensor_product writes only products of nonzeros: on sparse tensors the
interpreted loops grow with the support, and only C-speed passes
(allocation, the nonzero filter, the copy into a tuple) touch all
dim ** order coordinates. The kernels build their outputs through
_kernel_output, which skips the constructor's type scan when every value
is canonical by construction: integer coefficients on int nonzeros, or
quotients that came out of as_rational. On a sparse tensor whether the
nonzeros are ints is read off the nonzeros alone.

Public indices are 1-based, matching the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache, partial
from itertools import compress, repeat
from itertools import permutations as _words
from itertools import product as _cartesian
from operator import add, mul, neg, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .dft import block_ranks
from .group_ring import MAX_DEGREE, GroupRingElement, _factored, _positions, _swap, _times_block_sum
from .linalg import RowBasis
from .permutation import Permutation, _rank_table, symmetric_group
from .rationals import ExactVector, Rational, all_ints, as_rational, as_rationals, format_rational, wire_entries, wire_shape
from .tableaux import curvature_tableau, partitions_of, weyl_dimension, young_symmetrizer

# Dense coordinate count a tensor read from JSON may ask for.
MAX_WIRE_COORDS = 1 << 20

FrameTuple = tuple[tuple[Rational, ...], ...]


def frame(vectors: Iterable[Iterable[Rational]]) -> FrameTuple:
    """Normalize a tuple of equal-dimension vectors."""
    out = tuple(tuple(as_rational(x) for x in v) for v in vectors)
    if not out:
        raise ValueError("a frame needs at least one vector")
    dim = len(out[0])
    if any(len(v) != dim for v in out):
        raise ValueError("all frame vectors must have the same dimension")
    return out


@dataclass(frozen=True)
class DenseTensor(ExactVector):
    """Order-r tensor over an n-dimensional space, dense row-major storage from any sequence."""

    __slots__ = ("order", "dim", "coords")
    order: int
    dim: int
    coords: tuple[Rational, ...]

    def __post_init__(self):
        if self.order < 1 or self.dim < 1:
            raise ValueError(f"order and dim must be positive, got {self.order}, {self.dim}")
        size = self.dim ** self.order
        coords = as_rationals(self.coords)
        if len(coords) != size:
            raise ValueError(f"need {size} coordinates, got {len(coords)}")
        object.__setattr__(self, "coords", coords)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, order: int, dim: int) -> "DenseTensor":
        return cls(order, dim, [0] * dim ** order)

    @classmethod
    def basis(cls, order: int, dim: int, idx: Sequence[int]) -> "DenseTensor":
        return cls.from_entries(order, dim, {tuple(idx): 1})

    @classmethod
    def from_entries(cls, order: int, dim: int,
                     entries: Mapping[tuple[int, ...], Rational]) -> "DenseTensor":
        coords = [0] * dim ** order
        for idx, val in entries.items():
            coords[_flat(idx, order, dim)] = as_rational(val)
        return cls(order, dim, coords)

    @classmethod
    def kronecker(cls, dim: int) -> "DenseTensor":
        """The order-2 identity tensor."""
        return cls.from_entries(2, dim, {(i, i): 1 for i in range(1, dim + 1)})

    # -- indexing (the vector arithmetic comes from ExactVector) ------------

    def __getitem__(self, idx: Sequence[int]) -> Rational:
        return self.coords[_flat(idx, self.order, self.dim)]

    def __repr__(self) -> str:
        nonzero = sum(1 for c in self.coords if c)
        return f"<DenseTensor order={self.order} dim={self.dim} nonzero={nonzero}>"

    # -- symmetry predicates -----------------------------------------------

    def is_fully_symmetric(self) -> bool:
        """(id - (i i+1))T = 0 for every adjacent transposition."""
        return all(
            apply_operator(_slot_sum(self.order, ("()", 1), (f"({i} {i + 1})", -1)), self).is_zero()
            for i in range(1, self.order)
        )

    def is_alternating(self) -> bool:
        """(id + (1 2))T = 0 for an order-2 tensor."""
        if self.order != 2:
            raise ValueError("alternation check is for order-2 tensors")
        return apply_operator(_slot_sum(2, ("()", 1), ("(1 2)", 1)), self).is_zero()

    # -- wire form ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "dim": self.dim,
            "coords": [
                {"idx": list(idx), "val": format_rational(c)}
                for idx, c in zip(_all_indices(self.order, self.dim), self.coords)
                if c != 0
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "DenseTensor":
        data, (order, dim) = wire_shape(data, "tensor", ("order", "dim"))
        if not 1 <= order <= MAX_DEGREE:
            raise ValueError(f"order must be in 1..{MAX_DEGREE}, got {order}")
        if dim < 1 or dim ** order > MAX_WIRE_COORDS:
            raise ValueError(f"need dim >= 1 and dim**{order} <= {MAX_WIRE_COORDS}, got dim {dim}")
        return cls.from_entries(order, dim, wire_entries(data, "coords", "idx", "val",
                                                         ("coordinate", "index entry", "coordinate", "value")))


def _flat(idx: Sequence[int], order: int, dim: int) -> int:
    if len(idx) != order:
        raise ValueError(f"index of length {len(idx)} for order-{order} tensor")
    flat = 0
    for v in idx:
        if not 1 <= v <= dim:
            raise ValueError(f"index entry {v} out of range 1..{dim}")
        flat = flat * dim + (v - 1)
    return flat


def _all_indices(order: int, dim: int) -> Iterator[tuple[int, ...]]:
    """Every 1-based index, in coordinate order."""
    return _cartesian(range(1, dim + 1), repeat=order)


@lru_cache(maxsize=128)
def _slot_lookup(images: tuple[int, ...], order: int, dim: int) -> tuple[int, ...]:
    """Scatter table of the slot permutation p: lookup[flat(J)] = flat(I).

    I is the index with I[p(k)] = J[k] for every slot k, so that
    (pT)[I] = T[J]. The table of p^{-1} is the inverse map, so it is p's
    gather table: (pT)[I] = T[lookup_{p^{-1}}[I]]. A transposition is its
    own inverse, so its table gathers as well as it scatters. Given the
    images of a run of consecutive slots only,
    it maps that run's part of J, read as an index of its own, to the
    part of flat(I) those slots add. The key comes from the input, so the
    cache is bounded.
    """
    flats = [0]  # J runs in coordinate order; slot k of J lands in slot p(k) of I
    for image in images:
        stride = dim ** (order - image)
        flats = [f + v * stride for f in flats for v in range(dim)]
    return tuple(flats)


# Cells one compiled operator keeps: one per digit tuple, one per stored
# pattern, one per merged term in it and one per entry of each slot table
# it holds. Past it the operator keeps what it has, and each further
# pattern and slot table is made once per call that needs it.
_COMPILED_CELLS = 1 << 18


class _Patterns(dict):
    """The action of a on the coordinates of one dim: its split, and its terms merged per pattern.

    den, left and right are a's split (group_ring._factored), and gathers
    holds the inverse of each word of its rest with the word's numerator,
    which the dense branch of apply_operator runs. For the sparse branch a flat
    coordinate j splits as hi * split + lo between its first order // 2
    slots and the rest, so a term p sends e_j to e_{high[hi] + low[lo]},
    with high and low the slot tables of p's images on the two parts
    (_slot_lookup), of about dim ** (order / 2) entries each. Terms p, p'
    send e_j to the same coordinate exactly when p'p^{-1} fixes j's
    equal-entry pattern (each slot names the first slot equal to it), the
    splitting of V^{⊗r} into permutation modules M^μ (Sagan, The
    Symmetric Group, 2nd ed., §2.1). So the dict maps a pattern to the
    (c, high, low) left after merging a's terms by output and dropping the
    sums that cancel, each output once: y* on order-5 dim-3 coordinates
    merges its 48 terms into 9.2 outputs on average, and 33 of the 243
    coordinates have none. A pattern is merged the first time it is met
    and kept while the operator's cells stay within _COMPILED_CELLS;
    apply_operator keeps one that does not fit, and the tables it reads,
    for the rest of its call.
    """

    def __init__(self, a: GroupRingElement, dim: int):
        super().__init__()
        order = a.degree
        self.order, self.dim, self.cut = order, dim, order // 2
        self.split = dim ** (order - self.cut)
        # the 0-based digits of each part's indices, in coordinate order
        self.high_digits = tuple(_cartesian(range(dim), repeat=self.cut))
        self.low_digits = tuple(_cartesian(range(dim), repeat=order - self.cut))
        self.terms = list(compress(zip(_rank_table(order), a.coeffs), a.coeffs))
        self.den, self.left, rest, self.right = _factored(a)
        self.gathers = [(tuple(images.index(v) + 1 for v in range(1, order + 1)), n)
                        for images, n in rest.items()]
        self.tables: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.cells = len(self.high_digits) + len(self.low_digits)
        self.full = False

    def merge(self, pattern: tuple[int, ...],
              spare: dict[tuple[int, ...], tuple[int, ...]]) -> tuple[tuple[Rational, tuple, tuple], ...]:
        """The pattern's merged terms, stored while they fit the cells.

        spare holds, for one apply_operator call, the slot tables the
        operator had no room to keep, so each is built once per call.
        """
        order, cut = self.order, self.cut
        # the labels are below order, so a term's output read in base order names its coordinate
        weigh = [order ** (order - image) for image in range(order + 1)].__getitem__
        sums: dict[int, Rational] = {}
        words: dict[int, tuple[int, ...]] = {}
        for word, c in self.terms:
            i = sum(map(mul, pattern, map(weigh, word)))
            words.setdefault(i, word)
            sums[i] = sums.get(i, 0) + c
        table = partial(self._table, spare=spare)
        merged = tuple((as_rational(c), table(words[i][:cut]), table(words[i][cut:]))
                       for i, c in sums.items() if c)
        if not self.full and self.cells + 1 + len(merged) <= _COMPILED_CELLS:
            self[pattern] = merged
            self.cells += 1 + len(merged)
        return merged

    def _table(self, images: tuple[int, ...],
               spare: dict[tuple[int, ...], tuple[int, ...]]) -> tuple[int, ...]:
        """The slot table of one part's images, held while it fits the cells, else kept in spare."""
        table = self.tables.get(images) or spare.get(images)
        if table is None:
            table = _slot_lookup(images, self.order, self.dim)
            if self.cells + len(table) <= _COMPILED_CELLS:
                self.tables[images] = table
                self.cells += len(table)
            else:
                self.full = True
                spare[images] = table
        return table


@lru_cache(maxsize=16)
def _compiled_action(a: GroupRingElement, dim: int) -> _Patterns:
    """a's split and merged patterns on the coordinates of order-a.degree tensors of this dim."""
    return _Patterns(a, dim)


def _kernel_output(order: int, dim: int, coords: list[Rational], canonical: bool) -> DenseTensor:
    """The tensor a kernel wrote, built without the constructor's scan when canonical is true.

    canonical must hold only when every coordinate is already a canonical
    scalar: an int product or sum of ints, or a quotient that came out of
    as_rational. Otherwise the coordinates go through DenseTensor, which
    collapses the Fraction(k, 1) that a product such as (1/2)·2 leaves.
    """
    if not canonical:
        return DenseTensor(order, dim, coords)
    t = object.__new__(DenseTensor)
    for name, value in zip(DenseTensor.__slots__, (order, dim, tuple(coords))):
        object.__setattr__(t, name, value)
    return t


def apply_operator(a: GroupRingElement, t: DenseTensor) -> DenseTensor:
    """Act with a group-ring element as a symmetry operator.

    a is compiled once per (a, dim) by _compiled_action, at every order
    alike. On a tensor with fewer than half its coordinates nonzero, each
    nonzero v at coordinate j scatters c·v through the merged terms of j's
    equal-entry pattern (_Patterns); a pattern the operator had no room to
    keep is merged once per call.
    Otherwise a acts as split by group_ring._factored: since
    (a*b)T = a(bT), each right group sum acts first as its Jucys-Murphy
    chain, then each word p of the rest gathers the tensor through the
    slot table of p^{-1}, scaled by its integer numerator, then each left
    group sum acts as its chain, and each output is divided once. All run
    at C speed over the coordinates.
    """
    if a.degree != t.order:
        raise ValueError(f"operator degree {a.degree} != tensor order {t.order}")
    order, dim, coords = t.order, t.dim, t.coords
    action = _compiled_action(a, dim)
    if 2 * coords.count(0) > len(coords):
        out = [0] * len(coords)
        split, high_digits, low_digits = action.split, action.high_digits, action.low_digits
        # this call's patterns and slot tables that the operator had no room to keep
        spilled: dict[tuple[int, ...], tuple] = {}
        spare: dict[tuple[int, ...], tuple[int, ...]] = {}
        for j in compress(range(len(coords)), coords):
            v = coords[j]
            hi, lo = divmod(j, split)
            digits = high_digits[hi] + low_digits[lo]
            pattern = tuple(map(digits.index, digits))
            merged = action.get(pattern)
            if merged is None:
                merged = spilled.get(pattern)
                if merged is None:
                    merged = spilled[pattern] = action.merge(pattern, spare)
            for c, high, low in merged:
                out[high[hi] + low[lo]] += c * v
        return _kernel_output(order, dim, out, action.den == 1 and all_ints(compress(coords, coords)))
    identity = tuple(range(1, order + 1))
    swap = lambda i, j: _slot_lookup(_swap(identity, i, j), order, dim)
    for block, sign in action.right:
        coords = _times_block_sum(coords, block, sign, swap)
    out = None  # the first word's image, then the running sum
    for inverse, n in action.gathers:
        image = _positions(_slot_lookup(inverse, order, dim))(coords)
        if n == -1:
            out = list(map(neg, image) if out is None else map(sub, out, image))
        elif out is None:  # the gathered tuple is a fresh sequence already
            out = image if n == 1 else list(map(mul, image, repeat(n)))
        else:
            out = list(map(add, out, image if n == 1 else map(mul, image, repeat(n))))
    if out is None:  # the zero operator has no words
        out = [0] * len(coords)
    for block, sign in action.left:
        out = _times_block_sum(out, block, sign, swap)
    if action.den == 1:
        # a canonical zero is an int, and at least half of t is nonzero, so all of t is scanned
        return _kernel_output(order, dim, out, all_ints(t.coords))
    # outputs repeat few values, so each distinct numerator is divided once
    quotients = {x: as_rational(Fraction(x, action.den)) for x in set(out)}
    return _kernel_output(order, dim, list(map(quotients.__getitem__, out)), True)


def t_b(t: DenseTensor, b: Iterable[Iterable[Rational]]) -> GroupRingElement:
    """Frame evaluation: coefficient at p is T on the p-permuted frame."""
    vectors = frame(b)
    if len(vectors) != t.order:
        raise ValueError(f"frame of {len(vectors)} vectors for order-{t.order} tensor")
    if len(vectors[0]) != t.dim:
        raise ValueError(f"frame dimension {len(vectors[0])} != tensor dim {t.dim}")
    support = [(idx, c) for idx, c in zip(_all_indices(t.order, t.dim), t.coords) if c]
    terms = []
    for p in symmetric_group(t.order):
        chosen = tuple(vectors[p(m) - 1] for m in range(1, t.order + 1))
        value = Fraction(0)
        for idx, c in support:
            prod = c
            for m, v in enumerate(idx):
                prod *= chosen[m][v - 1]
                if prod == 0:
                    break
            value += prod
        terms.append(as_rational(value))
    return GroupRingElement(t.order, terms)


def tensor_product(left: DenseTensor, right: DenseTensor) -> DenseTensor:
    """(L⊗R)[I, J] = L[I]·R[J], written over the nonzeros of both factors."""
    if left.dim != right.dim:
        raise ValueError(f"dimension mismatch: {left.dim} vs {right.dim}")
    width = len(right.coords)
    coords = [0] * (len(left.coords) * width)
    support = list(compress(enumerate(right.coords), right.coords))
    for i, a in compress(enumerate(left.coords), left.coords):
        base = i * width
        for j, b in support:
            coords[base + j] = a * b
    ints = all_ints(compress(left.coords, left.coords)) and all_ints(compress(right.coords, right.coords))
    return _kernel_output(left.order + right.order, left.dim, coords, ints)


# -- curvature-type generators ---------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def gamma(s: DenseTensor) -> DenseTensor:
    """Order-4 generator from a symmetric order-2 tensor.

    Coordinates (1/3)(S[i,l]S[j,k] - S[i,k]S[j,l]), that is
    (1/3)((2 4 3) - (2 3)) on S⊗S; the result is an algebraic curvature
    tensor.
    """
    _require(s.order == 2, "gamma needs an order-2 tensor")
    _require(s.is_fully_symmetric(), "gamma needs a symmetric tensor")
    third = Fraction(1, 3)
    return apply_operator(_slot_sum(4, ("(2 4 3)", third), ("(2 3)", -third)),
                          tensor_product(s, s))


def alpha(a: DenseTensor) -> DenseTensor:
    """Order-4 generator from an alternating order-2 tensor.

    Coordinates (1/3)(2 A[i,j]A[k,l] + A[i,k]A[j,l] - A[i,l]A[j,k]),
    that is (1/3)(2 id + (2 3) - (2 4 3)) on A⊗A.
    """
    _require(a.order == 2, "alpha needs an order-2 tensor")
    _require(a.is_alternating(), "alpha needs an alternating tensor")
    third = Fraction(1, 3)
    return apply_operator(_slot_sum(4, ("()", 2 * third), ("(2 3)", third), ("(2 4 3)", -third)),
                          tensor_product(a, a))


def gamma_hat(s: DenseTensor, s3: DenseTensor) -> DenseTensor:
    """Order-5 generator from a symmetric pair (order 2, order 3).

    Coordinates 4(S[i,l]W[j,k,m] - S[j,l]W[i,k,m] + S[j,k]W[i,l,m]
    - S[i,k]W[j,l,m]), that is 4((2 4 3) - (1 2 4 3) + (1 2 3) - (2 3))
    on S⊗W; equals the starred order-5 symmetrizer applied to either
    tensor product order.
    """
    _require(s.order == 2, "gamma_hat needs an order-2 first factor")
    _require(s3.order == 3, "gamma_hat needs an order-3 second factor")
    _require(s.dim == s3.dim, "factors must share the dimension")
    _require(s.is_fully_symmetric(), "order-2 factor must be symmetric")
    _require(s3.is_fully_symmetric(), "order-3 factor must be totally symmetric")
    return apply_operator(
        _slot_sum(5, ("(2 4 3)", 4), ("(1 2 4 3)", -4), ("(1 2 3)", 4), ("(2 3)", -4)),
        tensor_product(s, s3),
    )


# -- identity checks ---------------------------------------------------------


@lru_cache(maxsize=None)
def curvature_symmetrizer_star(u: int) -> GroupRingElement:
    """Starred Young symmetrizer of the curvature tableau on u+4 letters."""
    return young_symmetrizer(curvature_tableau(u)).star()


@lru_cache(maxsize=None)
def _slot_sum(order: int, *terms: tuple[str, Rational]) -> GroupRingElement:
    """Sum of coefficient * permutation over (cycle notation, coefficient) terms in S_order.

    "()" is the identity.
    """
    return GroupRingElement.from_terms(order, [(Permutation.parse(c, order), k) for c, k in terms])


def _curvature_annihilators(order: int) -> tuple[GroupRingElement, ...]:
    """One element per curvature identity, in the diagnostics' field order.

    T satisfies an identity exactly when the element annihilates T:
    skew pair T[ijkl] + T[ijlk] = 0 is id + (3 4), pair exchange
    T[ijkl] = T[klij] is id - (1 3)(2 4), first Bianchi
    T[ijkl] + T[iklj] + T[iljk] = 0 is id + (2 3 4) + (2 4 3), and on
    order 5 the second Bianchi T[ijklm] + T[ijlmk] + T[ijmkl] = 0 is
    id + (3 4 5) + (3 5 4).
    """
    table = (
        _slot_sum(order, ("()", 1), ("(3 4)", 1)),
        _slot_sum(order, ("()", 1), ("(1 3)(2 4)", -1)),
        _slot_sum(order, ("()", 1), ("(2 3 4)", 1), ("(2 4 3)", 1)),
    )
    if order == 5:
        table += (_slot_sum(5, ("()", 1), ("(3 4 5)", 1), ("(3 5 4)", 1)),)
    return table


class _IdentityReport:
    """Pass/fail logic shared by the diagnostics dataclasses.

    Every field but the last is an identity; the last is the fixed-point
    route, reported alongside but not part of ok.
    """

    @property
    def ok(self) -> bool:
        return all(getattr(self, f.name) for f in fields(self)[:-1])

    def __bool__(self) -> bool:
        return self.ok

    def failures(self) -> list[str]:
        return [f.name for f in fields(self) if not getattr(self, f.name)]


@dataclass(frozen=True)
class CurvatureDiagnostics(_IdentityReport):
    """Identity-by-identity report for an order-4 tensor."""

    skew_last_pair: bool
    pair_exchange: bool
    first_bianchi: bool
    symmetrizer_fixed_point: bool


@dataclass(frozen=True)
class DerivativeCurvatureDiagnostics(_IdentityReport):
    """Identity-by-identity report for an order-5 tensor."""

    skew_middle_pair: bool
    pair_exchange: bool
    first_bianchi: bool
    second_bianchi: bool
    symmetrizer_fixed_point: bool


def _diagnose(t: DenseTensor, report_type: type, u: int, eigenvalue: int):
    identities = [apply_operator(a, t).is_zero() for a in _curvature_annihilators(t.order)]
    fixed = apply_operator(curvature_symmetrizer_star(u), t) == t.scale(eigenvalue)
    report = report_type(*identities, fixed)
    if report.ok != fixed:
        raise ArithmeticError("identity route and fixed-point route disagree")
    return report


def is_algebraic_curvature(t: DenseTensor) -> CurvatureDiagnostics:
    """Check the order-4 curvature identities and the fixed-point route.

    Each identity is a group-ring element that must annihilate T. The
    identity route and the fixed-point route (starred symmetrizer
    eigenvalue 12) are equivalent; a disagreement means a bug, so it
    raises instead of reporting.
    """
    _require(t.order == 4, "curvature check needs an order-4 tensor")
    return _diagnose(t, CurvatureDiagnostics, 0, 12)


def is_acdc(t: DenseTensor) -> DerivativeCurvatureDiagnostics:
    """Check the order-5 derivative-curvature identities and fixed point.

    Annihilator route as for order 4, plus the second Bianchi identity;
    fixed-point route: starred symmetrizer eigenvalue 24. The two routes
    are equivalent; disagreement raises.
    """
    _require(t.order == 5, "derivative-curvature check needs an order-5 tensor")
    return _diagnose(t, DerivativeCurvatureDiagnostics, 1, 24)


# -- rank computations --------------------------------------------------------


def projector_rank(a: GroupRingElement, dim: int) -> int:
    """Rank of T -> aT on order-r tensors over a dim-dimensional space.

    Tensor space holds weyl_dimension(λ, dim) copies of each Specht module S^λ
    with at most dim parts, so only those shapes are transformed.
    """
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    shapes = [shape for shape in partitions_of(a.degree) if len(shape) <= dim]
    return sum(weyl_dimension(s, dim) * k for s, k in zip(shapes, block_ranks(a, shapes)))


def generator_span_rank(family: Iterable[DenseTensor]) -> int:
    """Rank of a family of equal-shape tensors as coordinate vectors, each row its nonzeros."""
    family = list(family)
    if len({(t.order, t.dim) for t in family}) > 1:
        raise ValueError("family members must share order and dimension")
    span = RowBasis()
    for t in family:
        span.add(compress(enumerate(t.coords), t.coords))
    return span.rank


# -- deterministic basis families --------------------------------------------


def coordinate_basis(order: int, dim: int) -> list[DenseTensor]:
    return [DenseTensor.basis(order, dim, idx) for idx in _all_indices(order, dim)]


def symmetric_basis(dim: int) -> list[DenseTensor]:
    """Monomial basis of symmetric order-2 tensors."""
    out = []
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            entries = {(i, j): 1, (j, i): 1} if i != j else {(i, i): 1}
            out.append(DenseTensor.from_entries(2, dim, entries))
    return out


def alternating_basis(dim: int) -> list[DenseTensor]:
    """Monomial basis of alternating order-2 tensors."""
    return [
        DenseTensor.from_entries(2, dim, {(i, j): 1, (j, i): -1})
        for i in range(1, dim + 1)
        for j in range(i + 1, dim + 1)
    ]


def symmetric_order3_basis(dim: int) -> list[DenseTensor]:
    """Monomial basis of totally symmetric order-3 tensors."""
    out = []
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            for k in range(j, dim + 1):
                entries = {word: 1 for word in set(_words((i, j, k)))}
                out.append(DenseTensor.from_entries(3, dim, entries))
    return out
