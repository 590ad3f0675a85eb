"""Named pass/fail checks reproducing the package's headline claims.

Every check is deterministic: fixed bases, fixed sample sets, exact
arithmetic throughout. Reports carry a concrete witness string so a
failure is actionable.

The mixed-class span ranks are counted one weight at a time. The weight
of an index is the count of each value 1..3 in it. A slot permutation
keeps it, so the class images U, the pair bases S and y* split into
weight spaces, and so does the span W of the products y*(u⊗s). U, S and
y* also commute with GL(3), and permuting the index values by π ∈ S_3
lies in GL(3), so it carries W_μ onto W_πμ. Hence dim W is the sum of
|S_3·μ|·dim W_μ over the dominant weights μ, those whose counts do not
increase, and only the products of dominant weight wt(u) + wt(s) are
built (B. Sagan, The Symmetric Group, 2nd ed., §2.1; dim W_μ is the
Kostka number K_(3 2),μ when W is the whole class).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, permutations, product
from operator import add
from typing import Callable

from .dft import fourier_eta, fourier_xi
from .group_ring import GroupRingElement, stabilizer_symmetrizer
from .linalg import RowBasis
from .littlewood_richardson import admissible_pairs
from .permutation import Permutation
from .rationals import Rational, as_rational, format_rational
from .tableaux import format_partition, partitions_of
from .tensor import (
    DenseTensor,
    alternating_basis,
    apply_operator,
    coordinate_basis,
    curvature_symmetrizer_star,
    gamma_hat,
    generator_span_rank,
    is_acdc,
    projector_rank,
    symmetric_basis,
    symmetric_order3_basis,
    tensor_product,
)

# Sampled parameters for the rational idempotent family; the affine
# argument in check_dichotomy extends conclusions from the samples to
# every rational parameter value.
NU_SAMPLES: tuple[Rational, ...] = (
    0, Fraction(1, 2), 1, -1, 2, Fraction(1, 3),
)

# Parameters exercised by the generator checks: the full-rank family
# plus the single failing value.
NU_GENERATOR_CASES: tuple[Rational, ...] = (0, 1, -1, 2, Fraction(1, 2))

# (nu, epsilon, u_first) of every mixed-class check, eta (nu None) last.
MIXED_CLASS_CASES = tuple(product((*NU_GENERATOR_CASES, None), (1, -1), (False, True)))

FULL_RANK_DIM3 = 15  # content-over-hook dimension of the order-5 class at n = 3

# The dominant weights of order-5 dim-3 indices: partitions of 5 with at most 3 parts.
DOMINANT_WEIGHTS = tuple((*mu, 0, 0)[:3] for mu in partitions_of(5) if len(mu) <= 3)


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    details: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.details}"


def _report(name: str, failures: list[str], summary: str) -> CheckReport:
    if failures:
        return CheckReport(name, False, "; ".join(failures))
    return CheckReport(name, True, summary)


# -- building blocks ----------------------------------------------------------


def stab_xi(k: int) -> GroupRingElement:
    """The two stabilizer-product symmetrizers on five letters."""
    if k == 1:
        return stabilizer_symmetrizer(5, {3, 4, 5}) * stabilizer_symmetrizer(5, {1, 2})
    if k == 2:
        return stabilizer_symmetrizer(5, {4, 5}) * stabilizer_symmetrizer(5, {1, 2, 3})
    raise ValueError(f"k must be 1 or 2, got {k}")


def class_idempotent(nu: Rational | None) -> GroupRingElement:
    """fourier_xi(nu), or fourier_eta() when nu is None."""
    return fourier_eta() if nu is None else fourier_xi(nu)


def _embedded_idempotent(nu: Rational | None, u_first: bool) -> GroupRingElement:
    slots = (1, 2, 3) if u_first else (3, 4, 5)
    return class_idempotent(nu).embed(5, slots)


def _check_product_type(epsilon: int, u_first: bool) -> None:
    """Refuse a pair sign that is not the int +1 or -1, or an order that is not a bool."""
    if isinstance(epsilon, bool) or not isinstance(epsilon, int) or epsilon not in (1, -1):
        raise ValueError(f"epsilon must be the int +1 or -1, got {epsilon!r}")
    if not isinstance(u_first, bool):
        raise ValueError(f"u_first must be a bool, got {u_first!r}")


def sigma_element(nu: Rational | None, epsilon: int, u_first: bool) -> GroupRingElement:
    """Starred symmetrizer times pair symmetrizer times embedded idempotent.

    The pair symmetrizer id + epsilon·(a b), on positions 4, 5 when
    u_first and 1, 2 otherwise, is the sum over the permutations fixing
    the other three, signed when epsilon = -1.
    """
    _check_product_type(epsilon, u_first)
    pair = stabilizer_symmetrizer(5, (1, 2, 3) if u_first else (3, 4, 5), signed=epsilon < 0)
    return curvature_symmetrizer_star(1) * pair * _embedded_idempotent(nu, u_first)


def _class_label(nu: Rational | None) -> str:
    return "eta" if nu is None else f"nu={format_rational(nu)}"


def _type_label(epsilon: int, u_first: bool) -> str:
    pair = "S" if epsilon == 1 else "A"
    return f"Ux{pair}" if u_first else f"{pair}xU"


# -- checks -------------------------------------------------------------------


def check_xi_half_is_f() -> CheckReport:
    """The parameter-1/2 idempotent equals the closed-form exclusion idempotent."""
    failures = []
    y = stabilizer_symmetrizer(3, set(), signed=True)
    f = (
        Fraction(1, 2) * (GroupRingElement.identity(3)
                          - GroupRingElement.from_permutation(Permutation.transposition(3, 1, 3)))
        - Fraction(1, 6) * y
    )
    xi_half = fourier_xi(Fraction(1, 2))
    if xi_half != f:
        failures.append(f"xi(1/2) != f: {xi_half.pretty()} vs {f.pretty()}")
    if f * f != f:
        failures.append("f is not idempotent")
    ident = f.coefficient(Permutation.identity(3))
    if ident != Fraction(1, 3):
        failures.append(f"f coefficient at identity is {format_rational(ident)}, not 1/3")
    return _report("xi_half_idempotent", failures,
                   "xi(1/2) equals the closed-form idempotent f and f*f = f")


def check_admissible_pairs() -> CheckReport:
    """Only three factor-class pairs can reach the order-5 curvature class."""
    expected = [((2,), (3,)), ((2,), (2, 1)), ((1, 1), (2, 1))]
    got = admissible_pairs((3, 2))
    failures = []
    if got != expected:
        failures.append(
            "admissible pairs for (3 2) are "
            + ", ".join(f"{format_partition(a)}x{format_partition(b)}" for a, b in got)
        )
    return _report("admissible_pairs", failures,
                   "exactly (2)x(3), (2)x(2 1), (1 1)x(2 1) reach class (3 2)")


def check_sigma_nonzero() -> CheckReport:
    """Both stabilizer-product symmetrizations survive and regenerate the ideal."""
    failures = []
    ystar = curvature_symmetrizer_star(1)
    target_rank = ystar.right_ideal_rank()
    if target_rank != 5:
        failures.append(f"order-5 symmetrizer right ideal has rank {target_rank}, not 5")
    for k in (1, 2):
        sigma = ystar * stab_xi(k)
        if sigma.is_zero():
            failures.append(f"sigma_{k} vanished")
            continue
        rank = sigma.right_ideal_rank()
        if rank != 5:
            failures.append(f"sigma_{k} right ideal has rank {rank}, not 5")
    return _report("sigma_nonzero", failures,
                   "sigma_1 and sigma_2 are nonzero with right ideals of rank 5")


def _dichotomy_name(u_first: bool) -> str:
    return f"dichotomy[{'order3-first' if u_first else 'order2-first'}]"


def _check_dichotomy_variant(u_first: bool) -> CheckReport:
    name = _dichotomy_name(u_first)
    failures = []
    half = Fraction(1, 2)
    for epsilon in (1, -1):
        tag = f"eps={'+1' if epsilon == 1 else '-1'}"
        sigma = {nu: sigma_element(nu, epsilon, u_first) for nu in (*NU_SAMPLES, None)}
        base = sigma[0]
        slope = sigma[1] - base
        # Affine coefficient functions: sigma(nu) = base + nu * slope.
        for nu in NU_SAMPLES:
            expected = base + as_rational(nu) * slope
            if sigma[nu] != expected:
                failures.append(f"{tag}: coefficients not affine at nu={format_rational(nu)}")
        if not (base + half * slope).is_zero():
            failures.append(f"{tag}: sigma does not vanish at nu=1/2")
        if slope.is_zero():
            failures.append(f"{tag}: slope vanished, zero set is not a single point")
        for nu in NU_SAMPLES:
            vanished = sigma[nu].is_zero()
            if vanished != (nu == half):
                failures.append(
                    f"{tag}: sigma at nu={format_rational(nu)} "
                    + ("vanished unexpectedly" if vanished else "should vanish")
                )
        if sigma[None].is_zero():
            failures.append(f"{tag}: rho vanished")
    return _report(name, failures,
                   "sigma(nu) affine in nu, zero exactly at nu=1/2; rho never zero")


def check_dichotomy() -> list[CheckReport]:
    return [_check_dichotomy_variant(False), _check_dichotomy_variant(True)]


def check_gamma_hat_generators() -> CheckReport:
    """Symmetric pairs generate the order-5 class; closed form matches both products."""
    failures = []
    ystar = curvature_symmetrizer_star(1)
    pairs2 = symmetric_basis(3)
    pairs3 = symmetric_order3_basis(3)
    family = []
    coincide = True
    acdc_ok = True
    for s in pairs2:
        for w in pairs3:
            closed = gamma_hat(s, w)
            family.append(closed)
            if coincide:
                first = apply_operator(ystar, tensor_product(s, w))
                second = apply_operator(ystar, tensor_product(w, s))
                if not (closed == first == second):
                    coincide = False
                    failures.append("closed form disagrees with a symmetrized product")
            if acdc_ok and not is_acdc(closed).ok:
                acdc_ok = False
                failures.append("a generated tensor fails the order-5 identities")
    span = generator_span_rank(family)
    proj = projector_rank(ystar, 3)
    if proj != FULL_RANK_DIM3:
        failures.append(f"projector rank is {proj}, expected {FULL_RANK_DIM3}")
    if span != proj:
        failures.append(f"generator span rank {span} != projector rank {proj}")
    return _report("gamma_hat_generators", failures,
                   f"both product orders match the closed form; span rank {span} = projector rank")


def _weight(flat: int, order: int) -> tuple[int, int, int]:
    """The count of each index value 1..3 in the index at this flat coordinate."""
    counts = [0, 0, 0]
    for _ in range(order):
        flat, digit = divmod(flat, 3)
        counts[digit] += 1
    return tuple(counts)


def _weight_of(t: DenseTensor) -> tuple[int, int, int]:
    """The weight of a nonzero weight vector: that of its first nonzero coordinate."""
    return _weight(next(compress(count(), t.coords)), t.order)


@lru_cache(maxsize=8)
def _class_image(nu: Rational | None) -> tuple[DenseTensor, ...]:
    """The image of the class idempotent on order-3 tensors, as weight vectors.

    The idempotent keeps weight, so each weight's coordinate vectors are
    sent into that weight's space, and the primitive echelon rows of one
    basis per weight are weight vectors that together span the image.
    Weights that no pair weight lifts to a dominant one are skipped.
    """
    e = class_idempotent(nu)
    lifts = {_weight(flat, 2) for flat in range(3 ** 2)}
    images: dict[tuple[int, int, int], RowBasis] = {}
    for flat, b in enumerate(coordinate_basis(3, 3)):
        w = _weight(flat, 3)
        if any(tuple(map(add, w, p)) in DOMINANT_WEIGHTS for p in lifts):
            coords = apply_operator(e, b).coords
            images.setdefault(w, RowBasis()).add(compress(enumerate(coords), coords))
    return tuple(DenseTensor(3, 3, [row.get(i, 0) for i in range(3 ** 3)])
                 for image in images.values() for row in image.rows)


def dominant_weight_ranks(nu: Rational | None, epsilon: int,
                          u_first: bool) -> dict[tuple[int, int, int], int]:
    """dim W_μ for each dominant weight μ of the span W of the products y*(u⊗s), or y*(s⊗u)."""
    _check_product_type(epsilon, u_first)
    # normalized first: a float equal to a cached key must be refused, not served
    u_family = _class_image(None if nu is None else as_rational(nu))
    ystar = curvature_symmetrizer_star(1)
    pairs = [(_weight_of(s), s) for s in (symmetric_basis(3) if epsilon == 1 else alternating_basis(3))]
    families: dict[tuple[int, int, int], list[DenseTensor]] = {mu: [] for mu in DOMINANT_WEIGHTS}
    for u in u_family:
        w = _weight_of(u)
        for p, s in pairs:
            family = families.get(tuple(map(add, w, p)))
            if family is not None:
                family.append(apply_operator(ystar, tensor_product(u, s) if u_first else tensor_product(s, u)))
    return {mu: generator_span_rank(family) for mu, family in families.items()}


def mixed_class_span_rank(nu: Rational | None, epsilon: int, u_first: bool) -> int:
    """Span rank of starred-symmetrizer products for one class and product type.

    It is the sum over the dominant weights μ of |S_3·μ|·dim W_μ.
    """
    return sum(len(set(permutations(mu))) * rank
               for mu, rank in dominant_weight_ranks(nu, epsilon, u_first).items())


def _mixed_class_name(nu: Rational | None, epsilon: int, u_first: bool) -> str:
    return f"mixed_class_generators[{_class_label(nu)},{_type_label(epsilon, u_first)}]"


def check_mixed_class_generators(nu: Rational | None, epsilon: int,
                                 u_first: bool) -> CheckReport:
    """Mixed pairs generate the full class exactly when the triple class is not f's."""
    nu = None if nu is None else as_rational(nu)
    name = _mixed_class_name(nu, epsilon, u_first)
    rank = mixed_class_span_rank(nu, epsilon, u_first)
    excluded = nu == Fraction(1, 2)
    failures = []
    if excluded:
        if rank >= FULL_RANK_DIM3:
            failures.append(f"excluded class reached full rank {rank}")
        summary = f"span rank {rank} < {FULL_RANK_DIM3}, as required for the excluded class"
    else:
        if rank != FULL_RANK_DIM3:
            failures.append(f"span rank {rank}, expected {FULL_RANK_DIM3}")
        summary = f"span rank {rank} = full rank"
    return _report(name, failures, summary)


def all_mixed_class_checks() -> list[CheckReport]:
    return [check_mixed_class_generators(*case) for case in MIXED_CLASS_CASES]


# Report name -> check, in suite order. The thunks look the check functions
# up when called, so a check rebound at module level is the one that runs.
CHECKS: dict[str, Callable[[], CheckReport]] = {
    "xi_half_idempotent": lambda: check_xi_half_is_f(),
    "admissible_pairs": lambda: check_admissible_pairs(),
    "sigma_nonzero": lambda: check_sigma_nonzero(),
    **{_dichotomy_name(f): lambda f=f: _check_dichotomy_variant(f) for f in (False, True)},
    "gamma_hat_generators": lambda: check_gamma_hat_generators(),
    **{_mixed_class_name(*case): lambda case=case: check_mixed_class_generators(*case)
       for case in MIXED_CLASS_CASES},
}


def run_all(only: str | None = None) -> list[CheckReport]:
    """Run the checks whose name starts with only (all of them by default)."""
    return [check() for name, check in CHECKS.items()
            if only is None or name.startswith(only)]
