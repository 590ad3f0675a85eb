"""Shared deterministic generators for randomized (seeded) tests."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations as _words
from math import factorial

from symcurv import (
    DenseTensor,
    GroupRingElement,
    partitions_of,
    standard_tableaux,
    symmetric_group,
    young_symmetrizer,
)


def random_element(rng, degree: int, span: int = 3) -> GroupRingElement:
    return GroupRingElement(
        degree,
        [Fraction(rng.randint(-span, span), rng.choice([1, 1, 2, 3]))
         for _ in range(factorial(degree))],
    )


def scanned_stabilizer_symmetrizer(degree: int, fixed, signed: bool = False) -> GroupRingElement:
    """Every permutation of S_degree fixing the listed positions, found by a scan."""
    coeffs = [0] * factorial(degree)
    for i, p in enumerate(symmetric_group(degree)):
        if all(p(j) == j for j in fixed):
            coeffs[i] = p.sign() if signed else 1
    return GroupRingElement(degree, coeffs)


def rank_test_elements(rng, degree: int, full_rank_too: bool = True) -> list[GroupRingElement]:
    """Three-term elements and their products with Young symmetrizers, of varied rank."""
    out = []
    for _ in range(4):
        sparse = GroupRingElement.from_terms(
            degree, [(rng.choice(symmetric_group(degree)), rng.randint(-2, 2)) for _ in range(3)])
        y = young_symmetrizer(rng.choice(standard_tableaux(rng.choice(partitions_of(degree)))))
        out += ([sparse] if full_rank_too else []) + [sparse * y, y * sparse + y]
    return out


def random_tensor(rng, order: int, dim: int, span: int = 3) -> DenseTensor:
    return DenseTensor(order, dim, [rng.randint(-span, span) for _ in range(dim ** order)])


def random_symmetric2(rng, dim: int, span: int = 4) -> DenseTensor:
    entries = {}
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            v = rng.randint(-span, span)
            entries[(i, j)] = v
            entries[(j, i)] = v
    return DenseTensor.from_entries(2, dim, entries)


def random_alternating2(rng, dim: int, span: int = 4) -> DenseTensor:
    entries = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            v = rng.randint(-span, span)
            entries[(i, j)] = v
            entries[(j, i)] = -v
    return DenseTensor.from_entries(2, dim, entries)


def random_symmetric3(rng, dim: int, span: int = 4) -> DenseTensor:
    entries = {}
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            for k in range(j, dim + 1):
                v = rng.randint(-span, span)
                for word in set(_words((i, j, k))):
                    entries[word] = v
    return DenseTensor.from_entries(3, dim, entries)


def random_frame(rng, order: int, dim: int, span: int = 3) -> list[list[int]]:
    return [[rng.randint(-span, span) for _ in range(dim)] for _ in range(order)]
