"""Dense exact-rational tensors and group-ring symmetry operators.

A group-ring element a acts on an order-r tensor by
(aT)[i_1..i_r] = sum over p of a(p) * T[i_{p(1)}..i_{p(r)}],
and the frame evaluation T_b collects all permuted evaluations of T on
a tuple of vectors into a group-ring element. Under these conventions
(a*b)T = a(bT) and (aT)_b = T_b * star(a); a regression test pins the
composition order.

Public indices are 1-based, matching the rest of the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _words
from itertools import product as _cartesian
from typing import Iterable, Mapping, Sequence

from .group_ring import GroupRingElement
from .linalg import RowBasis
from .permutation import Permutation, symmetric_group
from .rationals import Rational, as_rational, format_rational, wire_json, wire_scalar
from .tableaux import curvature_tableau, young_symmetrizer

DEFAULT_RANK_CAP = 4096

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


class DenseTensor:
    """Order-r tensor over an n-dimensional space, dense row-major storage."""

    __slots__ = ("order", "dim", "coords")

    def __init__(self, order: int, dim: int, coords: Sequence[Rational]):
        if order < 1 or dim < 1:
            raise ValueError(f"order and dim must be positive, got {order}, {dim}")
        size = dim ** order
        coords = tuple(as_rational(c) for c in coords)
        if len(coords) != size:
            raise ValueError(f"need {size} coordinates, got {len(coords)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("DenseTensor is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, order: int, dim: int) -> "DenseTensor":
        return cls(order, dim, [0] * dim ** order)

    @classmethod
    def basis(cls, order: int, dim: int, idx: Sequence[int]) -> "DenseTensor":
        coords = [0] * dim ** order
        coords[_flat(idx, order, dim)] = 1
        return cls(order, dim, coords)

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

    # -- indexing and algebra ----------------------------------------------

    def __getitem__(self, idx: Sequence[int]) -> Rational:
        return self.coords[_flat(idx, self.order, self.dim)]

    def __add__(self, other: "DenseTensor") -> "DenseTensor":
        self._check_compatible(other)
        return DenseTensor(self.order, self.dim,
                           [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "DenseTensor") -> "DenseTensor":
        self._check_compatible(other)
        return DenseTensor(self.order, self.dim,
                           [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "DenseTensor":
        return DenseTensor(self.order, self.dim, [-a for a in self.coords])

    def scale(self, c: Rational) -> "DenseTensor":
        c = as_rational(c)
        return DenseTensor(self.order, self.dim, [c * a for a in self.coords])

    def __rmul__(self, c) -> "DenseTensor":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def _check_compatible(self, other: "DenseTensor") -> None:
        if not isinstance(other, DenseTensor):
            raise TypeError("expected a DenseTensor")
        if self.order != other.order or self.dim != other.dim:
            raise ValueError(
                f"shape mismatch: order {self.order}/dim {self.dim} vs "
                f"order {other.order}/dim {other.dim}"
            )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseTensor)
            and self.order == other.order
            and self.dim == other.dim
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.order, self.dim, self.coords))

    def __repr__(self) -> str:
        nonzero = sum(1 for c in self.coords if c)
        return f"<DenseTensor order={self.order} dim={self.dim} nonzero={nonzero}>"

    # -- symmetry predicates -----------------------------------------------

    def is_fully_symmetric(self) -> bool:
        """(id - (i i+1))T = 0 for every adjacent transposition."""
        return all(
            apply_operator(_annihilator(self.order, f"({i} {i + 1})", sign=-1), self).is_zero()
            for i in range(1, self.order)
        )

    def is_alternating(self) -> bool:
        """(id + (1 2))T = 0 for an order-2 tensor."""
        if self.order != 2:
            raise ValueError("alternation check is for order-2 tensors")
        return apply_operator(_annihilator(2, "(1 2)"), self).is_zero()

    # -- wire form ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "dim": self.dim,
            "coords": [
                {"idx": list(idx), "val": format_rational(self[idx])}
                for idx in _all_indices(self.order, self.dim)
                if self[idx] != 0
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "DenseTensor":
        data = wire_json(data, dict, "tensor")
        order = wire_scalar(data["order"], "order", integer=True)
        dim = wire_scalar(data["dim"], "dim", integer=True)
        entries = {}
        for item in wire_json(data.get("coords", []), list, "coords"):
            item = wire_json(item, dict, "coordinate")
            idx = tuple(wire_scalar(v, "index entry", integer=True)
                        for v in wire_json(item["idx"], list, "idx"))
            if idx in entries:
                raise ValueError(f"duplicate coordinate {list(idx)}")
            entries[idx] = wire_scalar(item["val"], "value")
        return cls.from_entries(order, dim, entries)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "DenseTensor":
        return cls.from_dict(json.loads(text))


def _flat(idx: Sequence[int], order: int, dim: int) -> int:
    if len(idx) != order:
        raise ValueError(f"index of length {len(idx)} for order-{order} tensor")
    flat = 0
    for v in idx:
        if not 1 <= v <= dim:
            raise ValueError(f"index entry {v} out of range 1..{dim}")
        flat = flat * dim + (v - 1)
    return flat


@lru_cache(maxsize=None)
def _all_indices(order: int, dim: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_cartesian(range(1, dim + 1), repeat=order))


@lru_cache(maxsize=None)
def _slot_lookup(images: tuple[int, ...], order: int, dim: int) -> tuple[int, ...]:
    """Scatter table of the slot permutation p: lookup[flat(J)] = flat(I).

    I is the index with I[p(k)] = J[k] for every slot k, so that
    (pT)[I] = T[J]; lookup[k] is also where p sends the basis tensor e_k.
    """
    flats = [0]  # J runs in coordinate order; slot k of J lands in slot p(k) of I
    for image in images:
        stride = dim ** (order - image)
        flats = [f + v * stride for f in flats for v in range(dim)]
    return tuple(flats)


def apply_operator(a: GroupRingElement, t: DenseTensor) -> DenseTensor:
    """Act with a group-ring element as a symmetry operator.

    Scatters every nonzero coordinate of T through the slot table of each
    term, so the work is (terms of a) x (nonzeros of T).
    """
    if a.degree != t.order:
        raise ValueError(f"operator degree {a.degree} != tensor order {t.order}")
    out = [0] * len(t.coords)
    support = [(j, v) for j, v in enumerate(t.coords) if v]
    for p, c in a.terms():
        lookup = _slot_lookup(p.images, t.order, t.dim)
        for j, v in support:
            out[lookup[j]] += c * v
    return DenseTensor(t.order, t.dim, out)


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
    if left.dim != right.dim:
        raise ValueError(f"dimension mismatch: {left.dim} vs {right.dim}")
    coords = []
    for a in left.coords:
        if a == 0:
            coords.extend([0] * len(right.coords))
        else:
            coords.extend(a * bcoord for bcoord in right.coords)
    return DenseTensor(left.order + right.order, left.dim, coords)


# -- curvature-type generators ---------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def gamma(s: DenseTensor) -> DenseTensor:
    """Order-4 generator from a symmetric order-2 tensor.

    Coordinates (1/3)(S[i,l]S[j,k] - S[i,k]S[j,l]); the result is an
    algebraic curvature tensor.
    """
    _require(s.order == 2, "gamma needs an order-2 tensor")
    _require(s.is_fully_symmetric(), "gamma needs a symmetric tensor")
    n = s.dim
    third = Fraction(1, 3)
    entries = {}
    for i, j, k, l in _all_indices(4, n):
        v = third * (s[(i, l)] * s[(j, k)] - s[(i, k)] * s[(j, l)])
        if v:
            entries[(i, j, k, l)] = v
    return DenseTensor.from_entries(4, n, entries)


def alpha(a: DenseTensor) -> DenseTensor:
    """Order-4 generator from an alternating order-2 tensor.

    Coordinates (1/3)(2 A[i,j]A[k,l] + A[i,k]A[j,l] - A[i,l]A[j,k]).
    """
    _require(a.order == 2, "alpha needs an order-2 tensor")
    _require(a.is_alternating(), "alpha needs an alternating tensor")
    n = a.dim
    third = Fraction(1, 3)
    entries = {}
    for i, j, k, l in _all_indices(4, n):
        v = third * (2 * a[(i, j)] * a[(k, l)] + a[(i, k)] * a[(j, l)] - a[(i, l)] * a[(j, k)])
        if v:
            entries[(i, j, k, l)] = v
    return DenseTensor.from_entries(4, n, entries)


def gamma_hat(s: DenseTensor, s3: DenseTensor) -> DenseTensor:
    """Order-5 generator from a symmetric pair (order 2, order 3).

    Coordinates 4(S[i,l]W[j,k,m] - S[j,l]W[i,k,m] + S[j,k]W[i,l,m]
    - S[i,k]W[j,l,m]); equals the starred order-5 symmetrizer applied to
    either tensor product order.
    """
    _require(s.order == 2, "gamma_hat needs an order-2 first factor")
    _require(s3.order == 3, "gamma_hat needs an order-3 second factor")
    _require(s.dim == s3.dim, "factors must share the dimension")
    _require(s.is_fully_symmetric(), "order-2 factor must be symmetric")
    _require(s3.is_fully_symmetric(), "order-3 factor must be totally symmetric")
    n = s.dim
    entries = {}
    for i, j, k, l, m in _all_indices(5, n):
        v = 4 * (
            s[(i, l)] * s3[(j, k, m)]
            - s[(j, l)] * s3[(i, k, m)]
            + s[(j, k)] * s3[(i, l, m)]
            - s[(i, k)] * s3[(j, l, m)]
        )
        if v:
            entries[(i, j, k, l, m)] = v
    return DenseTensor.from_entries(5, n, entries)


# -- identity checks ---------------------------------------------------------


@lru_cache(maxsize=None)
def curvature_symmetrizer_star(u: int) -> GroupRingElement:
    """Starred Young symmetrizer of the curvature tableau on u+4 letters."""
    return young_symmetrizer(curvature_tableau(u)).star()


@lru_cache(maxsize=None)
def _annihilator(order: int, *cycles: str, sign: int = 1) -> GroupRingElement:
    """id + sign * (sum of the permutations given in cycle notation) in S_order."""
    return GroupRingElement.from_terms(order, [(Permutation.identity(order), 1)] + [
        (Permutation.parse(c, order), sign) for c in cycles
    ])


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
        _annihilator(order, "(3 4)"),
        _annihilator(order, "(1 3)(2 4)", sign=-1),
        _annihilator(order, "(2 3 4)", "(2 4 3)"),
    )
    if order == 5:
        table += (_annihilator(5, "(3 4 5)", "(3 5 4)"),)
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


def projector_rank(a: GroupRingElement, dim: int,
                   max_dim: int = DEFAULT_RANK_CAP) -> int:
    """Rank of T -> aT on order-r tensors over a dim-dimensional space.

    Eliminates the images a.e_k of the coordinate basis exactly. They are
    the columns of the operator matrix, so their rank is its rank.
    Refuses when dim**degree exceeds max_dim.
    """
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    size = dim ** a.degree
    if size > max_dim:
        raise ValueError(
            f"operator matrix would be {size}x{size}; cap is {max_dim} "
            "(raise max_dim explicitly to override)"
        )
    support = [(p, c) for p, c in a.terms()]
    if not support:
        return 0
    lookups = [(_slot_lookup(p.images, a.degree, dim), c) for p, c in support]
    basis = RowBasis(size)
    for k in range(size):
        row = [0] * size
        for lookup, c in lookups:
            row[lookup[k]] += c
        basis.add(row)
    return basis.rank


def generator_span_rank(family: Iterable[DenseTensor]) -> int:
    """Rank of a family of equal-shape tensors as coordinate vectors."""
    basis: RowBasis | None = None
    shape: tuple[int, int] | None = None
    for t in family:
        if shape is None:
            shape = (t.order, t.dim)
            basis = RowBasis(len(t.coords))
        elif (t.order, t.dim) != shape:
            raise ValueError("family members must share order and dimension")
        basis.add(t.coords)
    return 0 if basis is None else basis.rank


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
