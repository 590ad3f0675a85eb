"""Acceptance suite: every criterion is exact (zero tolerance) and prints
one pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction
from math import factorial

from conftest import random_element, random_frame, random_tensor
from symcurv import (
    GroupRingElement,
    Permutation,
    apply_operator,
    curvature_tableau,
    fourier_eta,
    fourier_transform,
    fourier_xi,
    gamma_hat,
    generator_span_rank,
    hook_dimension,
    inverse_fourier,
    is_acdc,
    lr_product,
    admissible_pairs,
    partitions_of,
    projector_rank,
    standard_tableaux,
    stabilizer_symmetrizer,
    symmetric_basis,
    symmetric_group,
    symmetric_order3_basis,
    t_b,
    tensor_product,
    young_symmetrizer,
)
from symcurv.verify import (
    NU_SAMPLES,
    mixed_class_span_rank,
    sigma_element,
    stab_xi,
)
from symcurv.tensor import curvature_symmetrizer_star


def report(number: int, description: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number}] {status}: {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def test_criterion_1_essential_idempotency():
    failures = []
    for r in (2, 3, 4, 5):
        for shape in partitions_of(r):
            scale = factorial(r) // hook_dimension(shape)
            for t in standard_tableaux(shape):
                y = young_symmetrizer(t)
                if y * y != scale * y:
                    failures.append(f"y_t^2 != {scale} y_t for {t!r}")
    y4 = young_symmetrizer(curvature_tableau(0))
    if y4 * y4 != 12 * y4:
        failures.append("order-4 tableau constant is not 12")
    y5 = young_symmetrizer(curvature_tableau(1))
    if y5 * y5 != 24 * y5:
        failures.append("order-5 tableau constant is not 24")
    report(1, "Young symmetrizers satisfy y*y = (r!/d) y for all standard "
              "tableaux, r <= 5; curvature constants 12 and 24", failures)


def test_criterion_2_lr_table():
    expected_products = {
        ((3,), (2,)): {(5,): 1, (3, 2): 1, (4, 1): 1},
        ((3,), (1, 1)): {(4, 1): 1, (3, 1, 1): 1},
        ((2, 1), (2,)): {(3, 2): 1, (4, 1): 1, (2, 2, 1): 1, (3, 1, 1): 1},
        ((2, 1), (1, 1)): {(3, 2): 1, (2, 2, 1): 1, (3, 1, 1): 1, (2, 1, 1, 1): 1},
        ((1, 1, 1), (2,)): {(3, 1, 1): 1, (2, 1, 1, 1): 1},
        ((1, 1, 1), (1, 1)): {(2, 2, 1): 1, (2, 1, 1, 1): 1, (1, 1, 1, 1, 1): 1},
    }
    failures = []
    for (left, right), terms in expected_products.items():
        got = lr_product(left, right).terms
        if got != terms:
            failures.append(f"product {left} x {right} gave {got}")
    expected_pairs = [((2,), (3,)), ((2,), (2, 1)), ((1, 1), (2, 1))]
    got_pairs = admissible_pairs((3, 2))
    if got_pairs != expected_pairs:
        failures.append(f"admissible pairs for (3 2): {got_pairs}")
    report(2, "all six five-letter products and the admissible-pair table "
              "reproduce exactly", failures)


def test_criterion_3_fourier_round_trip():
    failures = []
    for r in (3, 4):
        for p in symmetric_group(r):
            e = GroupRingElement.from_permutation(p)
            if inverse_fourier(fourier_transform(e)) != e:
                failures.append(f"round trip failed at {p!r}")
                break
    rng = random.Random(2024)
    for r in (3, 4):
        for _ in range(25):
            a = random_element(rng, r, span=2)
            b = random_element(rng, r, span=2)
            if fourier_transform(a * b) != fourier_transform(a) @ fourier_transform(b):
                failures.append(f"transform not multiplicative at degree {r}")
                break
    report(3, "inverse transform inverts on every basis element (r = 3, 4) "
              "and the transform is multiplicative on 50 random pairs", failures)


def test_criterion_4_idempotent_families():
    failures = []
    third = Fraction(1, 3)
    for nu in (0, 1, Fraction(1, 2), Fraction(-2, 3)):
        nu = Fraction(nu)
        expected = GroupRingElement.from_terms(3, [
            ([1, 2, 3], third),
            ([1, 3, 2], third * nu),
            ([2, 1, 3], third * (1 - nu)),
            ([2, 3, 1], third * -nu),
            ([3, 1, 2], third * (nu - 1)),
            ([3, 2, 1], -third),
        ])
        if fourier_xi(nu) != expected:
            failures.append(f"xi({nu}) has wrong coefficients")
    expected_eta = GroupRingElement.from_terms(3, [
        ([1, 2, 3], third), ([2, 1, 3], -third), ([2, 3, 1], -third), ([3, 2, 1], third),
    ])
    if fourier_eta() != expected_eta:
        failures.append("eta has wrong coefficients")
    t1, t2 = standard_tableaux((2, 1))
    if fourier_xi(0) != third * young_symmetrizer(t1):
        failures.append("xi(0) is not one third of the first symmetrizer")
    if fourier_eta() != third * young_symmetrizer(t2):
        failures.append("eta is not one third of the second symmetrizer")
    y = stabilizer_symmetrizer(3, set(), signed=True)
    f = Fraction(1, 2) * (
        GroupRingElement.identity(3)
        - GroupRingElement.from_permutation(Permutation.transposition(3, 1, 3))
    ) - Fraction(1, 6) * y
    if fourier_xi(Fraction(1, 2)) != f:
        failures.append("xi(1/2) differs from the closed-form idempotent")
    report(4, "xi family and eta match their frozen coefficients; "
              "xi(0), eta are thirds of Young symmetrizers; xi(1/2) = f", failures)


def test_criterion_5_stabilizer_products():
    failures = []
    ystar = curvature_symmetrizer_star(1)
    ranks = {"y*": ystar.right_ideal_rank()}
    for k in (1, 2):
        sigma = ystar * stab_xi(k)
        if sigma.is_zero():
            failures.append(f"sigma_{k} = 0")
        ranks[f"sigma_{k}"] = sigma.right_ideal_rank()
    if set(ranks.values()) != {5}:
        failures.append(f"right ideal ranks {ranks} != 5")
    report(5, "sigma_1, sigma_2 nonzero; their right ideals and the "
              "symmetrizer's all have rank 5", failures)


def test_criterion_6_dichotomy():
    failures = []
    half = Fraction(1, 2)
    for u_first in (False, True):
        for eps in (1, -1):
            tag = f"(u_first={u_first}, eps={eps})"
            rho = sigma_element(None, eps, u_first)
            if rho.is_zero():
                failures.append(f"rho = 0 {tag}")
            base = sigma_element(0, eps, u_first)
            slope = sigma_element(1, eps, u_first) - base
            if slope.is_zero():
                failures.append(f"sigma slope vanished {tag}")
            if not (base + half * slope).is_zero():
                failures.append(f"sigma(1/2) != 0 {tag}")
            for nu in NU_SAMPLES:
                sigma = sigma_element(nu, eps, u_first)
                if sigma != base + Fraction(nu) * slope:
                    failures.append(f"sigma not affine at nu={nu} {tag}")
                if sigma.is_zero() != (Fraction(nu) == half):
                    failures.append(f"vanishing wrong at nu={nu} {tag}")
    report(6, "rho never vanishes; sigma(nu) is affine in nu and vanishes "
              "exactly at nu = 1/2, in both embeddings and signs", failures)


def test_criterion_7_symmetric_pair_generators():
    failures = []
    ystar = curvature_symmetrizer_star(1)
    family = []
    for s in symmetric_basis(3):
        for w in symmetric_order3_basis(3):
            closed = gamma_hat(s, w)
            family.append(closed)
            if closed != apply_operator(ystar, tensor_product(s, w)):
                failures.append("closed form != symmetrized pair-first product")
                break
            if closed != apply_operator(ystar, tensor_product(w, s)):
                failures.append("closed form != symmetrized triple-first product")
                break
            if not is_acdc(closed).ok:
                failures.append("generated tensor fails the order-5 identities")
                break
    proj = projector_rank(ystar, 3)
    span = generator_span_rank(family)
    if proj != 15:
        failures.append(f"projector rank {proj} != 15")
    if span != proj:
        failures.append(f"span rank {span} != projector rank {proj}")
    report(7, "closed form matches both product orders on the full basis; "
              "span rank = projector rank = 15; all members satisfy the "
              "order-5 identities", failures)


def test_criterion_8_mixed_class_generators():
    failures = []
    started = time.monotonic()
    for nu in (0, 1, -1, 2, None):
        label = "eta" if nu is None else f"nu={nu}"
        for eps in (1, -1):
            for u_first in (False, True):
                rank = mixed_class_span_rank(nu, eps, u_first)
                if rank != 15:
                    failures.append(f"rank {rank} != 15 for {label}, eps={eps}, u_first={u_first}")
    for eps in (1, -1):
        for u_first in (False, True):
            rank = mixed_class_span_rank(Fraction(1, 2), eps, u_first)
            if rank >= 15:
                failures.append(f"excluded class reached rank {rank}")
            if rank != 0:
                failures.append(f"excluded class rank {rank}, computed value is 0")
    elapsed = time.monotonic() - started
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds one minute")
    report(8, "all four product types reach rank 15 for xi(0), xi(1), xi(-1), "
              "xi(2), eta; the excluded class stays at rank 0 "
              f"({elapsed:.1f}s)", failures)


def test_criterion_9_property_suites():
    failures = []
    rng = random.Random(99)

    for _ in range(100):
        a = random_element(rng, 3, span=2)
        t = random_tensor(rng, 3, 3)
        b = random_frame(rng, 3, 3)
        if t_b(apply_operator(a, t), b) != t_b(t, b) * a.star():
            failures.append("frame-evaluation identity failed")
            break

    for _ in range(5):
        a = random_element(rng, 5, span=1)
        b = random_element(rng, 5, span=1)
        c = random_element(rng, 5, span=1)
        if (a * b) * c != a * (b * c):
            failures.append("associativity failed in degree 5")
        if a * (b + c) != a * b + a * c:
            failures.append("distributivity failed in degree 5")
        if (a * b).star() != b.star() * a.star():
            failures.append("star anti-automorphism failed in degree 5")
        if a.star().star() != a:
            failures.append("star involution failed in degree 5")

    for r in range(1, 7):
        if sum(hook_dimension(s) ** 2 for s in partitions_of(r)) != factorial(r):
            failures.append(f"dimension squares do not sum to {r}!")
        for shape in partitions_of(r):
            if len(standard_tableaux(shape)) != hook_dimension(shape):
                failures.append(f"tableau count mismatch at {shape}")

    report(9, "frame-evaluation identity on 100 random triples; ring and "
              "star axioms in degree 5; dimension identities through r = 6",
           failures)
