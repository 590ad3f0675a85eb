from math import comb

import pytest

from conftest import backtrack_lr_coefficient
from symcurv import (
    admissible_pairs,
    hook_dimension,
    induced_ideal_multiplicities,
    lr_coefficient,
    lr_product,
    partitions_of,
)

# The six products of five-letter weight, frozen expected values.
PRODUCT_TABLE = {
    ((3,), (2,)): {(5,): 1, (3, 2): 1, (4, 1): 1},
    ((3,), (1, 1)): {(4, 1): 1, (3, 1, 1): 1},
    ((2, 1), (2,)): {(3, 2): 1, (4, 1): 1, (2, 2, 1): 1, (3, 1, 1): 1},
    ((2, 1), (1, 1)): {(3, 2): 1, (2, 2, 1): 1, (3, 1, 1): 1, (2, 1, 1, 1): 1},
    ((1, 1, 1), (2,)): {(3, 1, 1): 1, (2, 1, 1, 1): 1},
    ((1, 1, 1), (1, 1)): {(2, 2, 1): 1, (2, 1, 1, 1): 1, (1, 1, 1, 1, 1): 1},
}


@pytest.mark.parametrize("factors,expected", PRODUCT_TABLE.items())
def test_five_letter_product_table(factors, expected):
    left, right = factors
    assert lr_product(left, right).terms == expected


def test_lr_coefficient_examples():
    assert lr_coefficient((3,), (2,), (5,)) == 1
    assert lr_coefficient((2, 1), (1, 1), (3, 2)) == 1
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((3,), (1, 1), (3, 2)) == 0


def test_lr_coefficient_weight_mismatch():
    with pytest.raises(ValueError):
        lr_coefficient((2,), (2,), (3,))


def test_small_products():
    assert lr_product((1,), (1,)).terms == {(2,): 1, (1, 1): 1}
    assert lr_product((2,), (2,)).terms == {(4,): 1, (3, 1): 1, (2, 2): 1}


def test_multiplicity_two_appears():
    # smallest multiplicity-2 case: the (3 2 1) component of (2 1) x (2 1)
    assert lr_product((2, 1), (2, 1)).multiplicity((3, 2, 1)) == 2


def _pairs_up_to(total):
    for ra in range(1, total):
        for rb in range(1, total - ra + 1):
            for left in partitions_of(ra):
                for right in partitions_of(rb):
                    yield left, right


@pytest.mark.parametrize("weight", range(2, 9))
def test_products_match_backtracking_oracle(weight):
    # every ordered pair of this weight and every target; 301 pairs over weights 2..8
    for split in range(1, weight):
        for left in partitions_of(split):
            for right in partitions_of(weight - split):
                expected = {}
                for target in partitions_of(weight):
                    c = backtrack_lr_coefficient(left, right, target)
                    assert lr_coefficient(left, right, target) == c
                    if c:
                        expected[target] = c
                assert lr_product(left, right).terms == expected


def test_product_is_symmetric():
    for left, right in _pairs_up_to(6):
        assert lr_product(left, right).terms == lr_product(right, left).terms


def test_induced_dimension_identity():
    for left, right in _pairs_up_to(6):
        decomposition = lr_product(left, right)
        assert decomposition.check_dimensions()
        r = sum(left) + sum(right)
        total = sum(c * hook_dimension(s) for s, c in decomposition.terms.items())
        assert total == hook_dimension(left) * hook_dimension(right) * comb(r, sum(left))


def test_admissible_pairs_for_curvature_class():
    assert admissible_pairs((3, 2)) == [
        ((2,), (3,)),
        ((2,), (2, 1)),
        ((1, 1), (2, 1)),
    ]


def test_admissible_pairs_derived_targets():
    # oracle: scan the frozen product table rather than the library
    for target in [(1, 1, 1, 1, 1), (5,)]:
        expected = [
            (l2, l3)
            for l2 in partitions_of(2)
            for l3 in partitions_of(3)
            if PRODUCT_TABLE[(l3, l2)].get(target, 0) > 0
        ]
        assert admissible_pairs(target) == expected
    assert admissible_pairs((1, 1, 1, 1, 1)) == [((1, 1), (1, 1, 1))]
    assert admissible_pairs((5,)) == [((2,), (3,))]


def test_admissible_pairs_rejects_wrong_weight():
    with pytest.raises(ValueError):
        admissible_pairs((3, 1))


def test_sorted_terms_follow_partition_order():
    decomposition = lr_product((2, 1), (2,))
    shapes = [s for s, _ in decomposition.sorted_terms()]
    assert shapes == [(4, 1), (3, 2), (3, 1, 1), (2, 2, 1)]


def test_pretty_format():
    assert lr_product((3,), (2,)).pretty() == "(3)(2) = (5) + (4 1) + (3 2)"


def test_group_ring_route_matches_combinatorics():
    # independent route: multiplicities of the ideal generated by embedded
    # symmetrizer products, read from Fourier blocks
    for left in partitions_of(2):
        for right in partitions_of(3):
            assert induced_ideal_multiplicities(left, right) == lr_product(left, right).terms


def test_products_up_to_the_degree_cap_are_accepted():
    # weight 8, the cap: the induced dimension identity still holds
    for left, right in [((2, 2), (2, 2)), ((4, 3), (1,)), ((1,), (7,))]:
        decomposition = lr_product(left, right)
        assert decomposition.check_dimensions()
    assert lr_coefficient((2, 2), (2, 2), (4, 4)) == 1


def test_products_above_the_degree_cap_are_refused():
    # weight 9 and far beyond are refused before any partition is scanned
    for left, right in [((4, 4), (1,)), ((5,), (2, 2)), ((12, 12), (12, 12))]:
        with pytest.raises(ValueError, match="exceeds the degree cap 8"):
            lr_product(left, right)
    with pytest.raises(ValueError, match="exceeds the degree cap 8"):
        lr_coefficient((4, 4), (1,), (5, 4))
