"""Littlewood-Richardson products of symmetric-group irreducibles.

Coefficients are counted combinatorially: column-strict skew fillings
whose reverse reading word is a lattice word. Products of weight above
the degree cap (8) are refused, so exhaustive backtracking stays fast.

An independent representation-theoretic route (multiplicities of the
left ideal generated by embedded product symmetrizers, read off Fourier
blocks) is provided for cross-checking; it is the expensive option, not
the primary algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .dft import fourier_transform
from .group_ring import MAX_DEGREE
from .tableaux import (
    Partition,
    format_partition,
    hook_dimension,
    partitions_of,
    standard_tableaux,
    validate_partition,
    young_symmetrizer,
)


def _contains(outer: Partition, inner: Partition) -> bool:
    if len(inner) > len(outer):
        return False
    return all(o >= i for o, i in zip(outer, inner))


def _require_weight(left: Partition, right: Partition) -> int:
    """|left| + |right|, refused above the degree cap before any partition is scanned.

    The cap is the weight up to which the Fourier cross-check can confirm a product.
    """
    weight = sum(left) + sum(right)
    if weight > MAX_DEGREE:
        raise ValueError(
            f"|{format_partition(left)}| + |{format_partition(right)}| = {weight} "
            f"exceeds the degree cap {MAX_DEGREE}")
    return weight


def lr_coefficient(left: Sequence[int], right: Sequence[int], target: Sequence[int]) -> int:
    """Multiplicity of target in the product of left and right."""
    left = validate_partition(left)
    right = validate_partition(right)
    target = validate_partition(target)
    _require_weight(left, right)
    if sum(target) != sum(left) + sum(right):
        raise ValueError(
            f"weight mismatch: |{format_partition(target)}| != "
            f"|{format_partition(left)}| + |{format_partition(right)}|"
        )
    if not _contains(target, left):
        return 0

    outer = list(target)
    inner = [left[i] if i < len(left) else 0 for i in range(len(outer))]
    cells = [
        (i, j)
        for i in range(len(outer))
        for j in range(inner[i], outer[i])
    ]
    content_bound = list(right)
    n_values = len(content_bound)
    filling: dict[tuple[int, int], int] = {}
    counts = [0] * n_values

    def row_ok(i: int, j: int, v: int) -> bool:
        leftcell = filling.get((i, j - 1))
        return leftcell is None or leftcell <= v

    def col_ok(i: int, j: int, v: int) -> bool:
        up = filling.get((i - 1, j))
        return up is None or up < v

    def lattice_word() -> bool:
        seen = [0] * n_values
        for i in range(len(outer)):
            for j in range(outer[i] - 1, inner[i] - 1, -1):
                v = filling[(i, j)]
                seen[v] += 1
                if v > 0 and seen[v] > seen[v - 1]:
                    return False
        return True

    total = 0

    def place(k: int) -> None:
        nonlocal total
        if k == len(cells):
            if lattice_word():
                total += 1
            return
        i, j = cells[k]
        for v in range(n_values):
            if counts[v] >= content_bound[v]:
                continue
            if row_ok(i, j, v) and col_ok(i, j, v):
                filling[(i, j)] = v
                counts[v] += 1
                place(k + 1)
                counts[v] -= 1
                del filling[(i, j)]

    place(0)
    return total


@dataclass(frozen=True)
class LRDecomposition:
    """Product of two irreducibles expanded with multiplicities."""

    left: Partition
    right: Partition
    terms: dict[Partition, int] = field(compare=False)

    def multiplicity(self, target: Sequence[int]) -> int:
        return self.terms.get(validate_partition(target), 0)

    def sorted_terms(self) -> list[tuple[Partition, int]]:
        order = partitions_of(sum(self.left) + sum(self.right))
        return [(shape, self.terms[shape]) for shape in order if shape in self.terms]

    def check_dimensions(self) -> bool:
        """Dimension count of the induced module, an exact identity."""
        r = sum(self.left) + sum(self.right)
        total = sum(c * hook_dimension(shape) for shape, c in self.terms.items())
        expected = (
            hook_dimension(self.left)
            * hook_dimension(self.right)
            * comb(r, sum(self.left))
        )
        return total == expected

    def pretty(self) -> str:
        body = " + ".join(
            (f"{c}*" if c > 1 else "") + format_partition(shape)
            for shape, c in self.sorted_terms()
        )
        return f"{format_partition(self.left)}{format_partition(self.right)} = {body}"


def lr_product(left: Sequence[int], right: Sequence[int]) -> LRDecomposition:
    """Full decomposition of the product of two irreducibles."""
    left = validate_partition(left)
    right = validate_partition(right)
    terms = {}
    for target in partitions_of(_require_weight(left, right)):
        c = lr_coefficient(left, right, target)
        if c:
            terms[target] = c
    return LRDecomposition(left, right, terms)


def admissible_pairs(target: Sequence[int]) -> list[tuple[Partition, Partition]]:
    """Pairs (l2, l3) of partitions of 2 and 3 whose product contains target.

    Containment is order-independent; both factor orders are computed
    and must agree.
    """
    target = validate_partition(target)
    if sum(target) != 5:
        raise ValueError(f"target must be a partition of 5, got {format_partition(target)}")
    pairs = []
    for l2 in partitions_of(2):
        for l3 in partitions_of(3):
            forward = lr_product(l2, l3).multiplicity(target)
            backward = lr_product(l3, l2).multiplicity(target)
            if forward != backward:
                raise ArithmeticError(f"asymmetric product for {l2} x {l3}")
            if forward > 0:
                pairs.append((l2, l3))
    return pairs


def induced_ideal_multiplicities(left: Sequence[int], right: Sequence[int]) -> dict[Partition, int]:
    """Cross-check of lr_product through the group ring and Fourier blocks.

    Embed Young symmetrizers of the two shapes on disjoint letter blocks,
    normalize their product to an idempotent, and read the multiplicity
    of each shape in the generated left ideal as the trace of the
    corresponding Fourier block.
    """
    left = validate_partition(left)
    right = validate_partition(right)
    r1, r2 = sum(left), sum(right)
    r = r1 + r2
    y1 = young_symmetrizer(standard_tableaux(left)[0])
    y2 = young_symmetrizer(standard_tableaux(right)[0])
    e1 = Fraction(hook_dimension(left), factorial(r1)) * y1
    e2 = Fraction(hook_dimension(right), factorial(r2)) * y2
    idem = e1.embed(r, range(1, r1 + 1)) * e2.embed(r, range(r1 + 1, r + 1))
    image = fourier_transform(idem)
    out = {}
    for shape, block in zip(partitions_of(r), image.blocks):
        trace = sum(block[i][i] for i in range(len(block)))
        if Fraction(trace).denominator != 1:
            raise ArithmeticError(f"non-integral multiplicity trace for {shape}")
        m = int(trace)
        if m:
            out[shape] = m
    return out
