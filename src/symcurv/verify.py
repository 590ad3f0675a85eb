"""Named pass/fail checks reproducing the package's headline claims.

Every check is deterministic: fixed bases, fixed sample sets, exact
arithmetic throughout. Reports carry a concrete witness string so a
failure is actionable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from typing import Callable, Iterable

from .dft import fourier_eta, fourier_xi
from .group_ring import GroupRingElement, stabilizer_symmetrizer
from .linalg import RowBasis
from .littlewood_richardson import admissible_pairs
from .permutation import Permutation
from .rationals import Rational, as_rational, format_rational
from .tableaux import format_partition
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


@lru_cache(maxsize=None)
def order5_symmetrizer_star() -> GroupRingElement:
    return curvature_symmetrizer_star(1)


@lru_cache(maxsize=None)
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


def _pair_symmetrizer(epsilon: int, u_first: bool) -> GroupRingElement:
    if epsilon not in (1, -1):
        raise ValueError(f"epsilon must be +1 or -1, got {epsilon}")
    a, b = (4, 5) if u_first else (1, 2)
    return GroupRingElement.identity(5) + epsilon * GroupRingElement.from_permutation(
        Permutation.transposition(5, a, b)
    )


def sigma_element(nu: Rational | None, epsilon: int, u_first: bool) -> GroupRingElement:
    """Starred symmetrizer times pair symmetrizer times embedded idempotent."""
    return order5_symmetrizer_star() * _pair_symmetrizer(epsilon, u_first) * _embedded_idempotent(nu, u_first)


def _class_label(nu: Rational | None) -> str:
    return "eta" if nu is None else f"nu={format_rational(nu)}"


def _type_label(epsilon: int, u_first: bool) -> str:
    pair = "S" if epsilon == 1 else "A"
    return f"Ux{pair}" if u_first else f"{pair}xU"


def _integer_scaled(t: DenseTensor) -> DenseTensor:
    scale = 1
    for c in t.coords:
        scale = lcm(scale, c.denominator)
    return t.scale(scale)


def _independent_representatives(tensors: Iterable[DenseTensor]) -> list[DenseTensor]:
    """Subfamily with the same span, integer-scaled, found by elimination."""
    reps: list[DenseTensor] = []
    basis: RowBasis | None = None
    for t in tensors:
        if basis is None:
            basis = RowBasis(len(t.coords))
        if basis.add(t.coords):
            reps.append(_integer_scaled(t))
    return reps


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
    ystar = order5_symmetrizer_star()
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
        base = sigma_element(0, epsilon, u_first)
        slope = sigma_element(1, epsilon, u_first) - base
        # Affine coefficient functions: sigma(nu) = base + nu * slope.
        for nu in NU_SAMPLES:
            expected = base + as_rational(nu) * slope
            if sigma_element(nu, epsilon, u_first) != expected:
                failures.append(f"{tag}: coefficients not affine at nu={format_rational(nu)}")
        if not (base + half * slope).is_zero():
            failures.append(f"{tag}: sigma does not vanish at nu=1/2")
        if slope.is_zero():
            failures.append(f"{tag}: slope vanished, zero set is not a single point")
        for nu in NU_SAMPLES:
            vanished = sigma_element(nu, epsilon, u_first).is_zero()
            if vanished != (nu == half):
                failures.append(
                    f"{tag}: sigma at nu={format_rational(nu)} "
                    + ("vanished unexpectedly" if vanished else "should vanish")
                )
        rho = sigma_element(None, epsilon, u_first)
        if rho.is_zero():
            failures.append(f"{tag}: rho vanished")
    return _report(name, failures,
                   "sigma(nu) affine in nu, zero exactly at nu=1/2; rho never zero")


def check_dichotomy() -> list[CheckReport]:
    return [_check_dichotomy_variant(False), _check_dichotomy_variant(True)]


def check_gamma_hat_generators() -> CheckReport:
    """Symmetric pairs generate the order-5 class; closed form matches both products."""
    failures = []
    ystar = order5_symmetrizer_star()
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


def mixed_class_span_rank(nu: Rational | None, epsilon: int, u_first: bool) -> int:
    """Span rank of starred-symmetrizer products for one class and product type."""
    if epsilon not in (1, -1):
        raise ValueError(f"epsilon must be +1 or -1, got {epsilon}")
    e = class_idempotent(nu)
    ystar = order5_symmetrizer_star()
    u_family = _independent_representatives(
        apply_operator(e, b) for b in coordinate_basis(3, 3)
    )
    pair_family = symmetric_basis(3) if epsilon == 1 else alternating_basis(3)
    products = []
    for u in u_family:
        for s in pair_family:
            prod = tensor_product(u, s) if u_first else tensor_product(s, u)
            products.append(apply_operator(ystar, prod))
    return generator_span_rank(products)


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
