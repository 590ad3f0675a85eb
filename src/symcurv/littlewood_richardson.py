"""Littlewood-Richardson products of symmetric-group irreducibles.

Coefficients are counted combinatorially: column-strict skew fillings
whose reverse reading word is a lattice word, grown one row of the right
factor at a time as a horizontal strip (W. Fulton, Young Tableaux, 1997,
section 5.2), so one pass gives every coefficient of a product. Products
of weight above the degree cap (8) are refused.

An independent representation-theoretic route (multiplicities of the
left ideal generated by embedded product symmetrizers, read off Fourier
blocks) is provided for cross-checking; it is the expensive option, not
the primary algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, product
from math import comb, factorial
from operator import add
from typing import Iterator, Sequence

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


def _require_weight(left: Partition, right: Partition) -> None:
    """Refuse |left| + |right| above the degree cap, before any filling is grown.

    The cap is the weight up to which the Fourier cross-check can confirm a product.
    """
    weight = sum(left) + sum(right)
    if weight > MAX_DEGREE:
        raise ValueError(
            f"|{format_partition(left)}| + |{format_partition(right)}| = {weight} "
            f"exceeds the degree cap {MAX_DEGREE}")


def _strips(lengths: Partition, size: int) -> Iterator[tuple[int, ...]]:
    """Boxes gained per row, the last entry a new row, by each horizontal strip of size boxes.

    Row i > 0 may gain at most lengths[i-1] - lengths[i], so no two new boxes share a column.
    """
    room = (size, *(a - b for a, b in zip(lengths, (*lengths[1:], 0))))
    return (g for g in product(*(range(min(r, size) + 1) for r in room)) if sum(g) == size)


def _lr_terms(left: Partition, right: Partition) -> dict[Partition, int]:
    """Multiplicity of every shape in left x right, grown one row of right at a time.

    Row k of right joins the shape as a horizontal strip of k's. The filling
    is kept while, row by row, its k's so far are at most the k-1's in the
    rows above: its reverse reading word is a lattice word. Cells of left
    carry no letter and letter 0 has none before it, so strip 0 is never
    checked. Fillings are merged on their shape and last strip, all that a
    later check reads.
    """
    fillings = {(left, ()): 1}
    for k, size in enumerate(right):
        grown: dict[tuple[Partition, tuple[int, ...]], int] = {}
        for (shape, previous), count in fillings.items():
            for strip in _strips(shape, size):
                if k and any(a > b for a, b in zip(accumulate(strip), accumulate((0, *previous)))):
                    continue
                key = (tuple(v for v in map(add, (*shape, 0), strip) if v), strip)
                grown[key] = grown.get(key, 0) + count
        fillings = grown
    terms: dict[Partition, int] = {}
    for (shape, _), count in fillings.items():
        terms[shape] = terms.get(shape, 0) + count
    return terms


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
    return _lr_terms(left, right).get(target, 0)


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
    _require_weight(left, right)
    return LRDecomposition(left, right, _lr_terms(left, right))


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
