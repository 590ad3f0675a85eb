from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from conftest import scanned_stabilizer_symmetrizer, sorted_standard_tableaux
from symcurv import (
    GroupRingElement,
    YoungTableau,
    curvature_tableau,
    hook_dimension,
    partitions_of,
    stabilizer_symmetrizer,
    standard_tableaux,
    weyl_dimension,
    young_symmetrizer,
)
from symcurv.tableaux import conjugate_partition, format_partition, validate_partition


def test_partitions_of_small():
    assert partitions_of(1) == ((1,),)
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert len(partitions_of(5)) == 7


def test_partitions_reverse_lexicographic():
    parts = partitions_of(6)
    assert parts[0] == (6,)
    assert parts[-1] == (1,) * 6
    assert list(parts) == sorted(parts, reverse=True)


def test_validate_partition():
    with pytest.raises(ValueError):
        validate_partition((1, 2))
    with pytest.raises(ValueError):
        validate_partition((2, 0))
    assert validate_partition([3, 2]) == (3, 2)


def test_conjugate():
    assert conjugate_partition((3, 2)) == (2, 2, 1)
    assert conjugate_partition((1, 1, 1)) == (3,)


def test_format_partition():
    assert format_partition((3, 2)) == "(3 2)"
    assert format_partition((1, 1, 1)) == "(1 1 1)"


# Textbook dimension values, hand-checkable from r!/hook products.
HOOK_TABLE = {
    (2,): 1, (1, 1): 1,
    (3,): 1, (2, 1): 2, (1, 1, 1): 1,
    (4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1,
    (5,): 1, (4, 1): 4, (3, 2): 5, (3, 1, 1): 6, (2, 2, 1): 5,
    (2, 1, 1, 1): 4, (1, 1, 1, 1, 1): 1,
}


def test_hook_dimension_known_values():
    for shape, d in HOOK_TABLE.items():
        assert hook_dimension(shape) == d


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_dimension_squares_sum_to_group_order(r):
    assert sum(hook_dimension(s) ** 2 for s in partitions_of(r)) == factorial(r)


@pytest.mark.parametrize("r", range(1, 11))
def test_standard_tableaux_match_sorted_oracle(r):
    # compared as tuples, so the last-letter order counts too
    for shape in partitions_of(r):
        assert standard_tableaux(shape) == sorted_standard_tableaux(shape)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_standard_tableau_count_matches_hook_formula(r):
    for shape in partitions_of(r):
        tableaux = standard_tableaux(shape)
        assert len(tableaux) == hook_dimension(shape)
        assert all(t.is_standard() for t in tableaux)
        assert len(set(tableaux)) == len(tableaux)


def test_single_row_has_one_tableau():
    assert len(standard_tableaux((4,))) == 1


def test_two_two_contains_curvature_tableau():
    assert curvature_tableau(0) in standard_tableaux((2, 2))


def test_last_letter_order_for_two_one():
    t1, t2 = standard_tableaux((2, 1))
    assert t1 == YoungTableau([[1, 2], [3]])
    assert t2 == YoungTableau([[1, 3], [2]])


def test_tableau_validation():
    with pytest.raises(ValueError):
        YoungTableau([[1, 2], [2]])
    with pytest.raises(ValueError):
        YoungTableau([[1], [2, 3]])


def test_row_and_column_groups():
    t = YoungTableau([[1, 2], [3]])
    assert sorted(p.images for p in t.horizontal_group()) == [(1, 2, 3), (2, 1, 3)]
    assert sorted(p.images for p in t.vertical_group()) == [(1, 2, 3), (3, 2, 1)]


def test_young_symmetrizer_frozen_terms():
    t1, t2 = standard_tableaux((2, 1))
    assert young_symmetrizer(t1) == GroupRingElement.from_terms(3, [
        ([1, 2, 3], 1), ([2, 1, 3], 1), ([3, 2, 1], -1), ([3, 1, 2], -1),
    ])
    assert young_symmetrizer(t2) == GroupRingElement.from_terms(3, [
        ([1, 2, 3], 1), ([3, 2, 1], 1), ([2, 1, 3], -1), ([2, 3, 1], -1),
    ])
    row = YoungTableau([[1, 2]])
    assert young_symmetrizer(row) == GroupRingElement.from_terms(2, [
        ([1, 2], 1), ([2, 1], 1),
    ])


def test_curvature_tableau_family():
    assert curvature_tableau(0) == YoungTableau([[1, 3], [2, 4]])
    assert curvature_tableau(1) == YoungTableau([[1, 3, 5], [2, 4]])
    assert curvature_tableau(2) == YoungTableau([[1, 3, 5, 6], [2, 4]])
    assert curvature_tableau(1).is_standard()
    with pytest.raises(ValueError):
        curvature_tableau(-1)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_symmetrizers_essentially_idempotent(r):
    for shape in partitions_of(r):
        scale = factorial(r) // hook_dimension(shape)
        for t in standard_tableaux(shape):
            y = young_symmetrizer(t)
            assert y * y == scale * y


@pytest.mark.parametrize("u", [0, 1, 2])
def test_normalized_curvature_symmetrizer_is_idempotent(u):
    y = young_symmetrizer(curvature_tableau(u))
    e = Fraction(u + 1, 2 * factorial(u + 3)) * y
    assert e * e == e


def test_weyl_dimension_values():
    # content-over-hook products, worked by hand
    assert weyl_dimension((3, 2), 3) == 15
    assert weyl_dimension((2, 2), 2) == 1
    assert weyl_dimension((2, 1), 3) == 8
    assert weyl_dimension((1, 1, 1), 2) == 0


def test_pretty_renders_rows():
    assert curvature_tableau(0).pretty() == "1 3\n2 4"


def test_young_symmetrizer_checks_degree_before_enumerating(monkeypatch):
    def enumerated(self):
        raise AssertionError("groups enumerated before the degree check")

    monkeypatch.setattr(YoungTableau, "horizontal_group", enumerated)
    monkeypatch.setattr(YoungTableau, "vertical_group", enumerated)
    with pytest.raises(ValueError, match="degree cap"):
        young_symmetrizer(curvature_tableau(20))
    with pytest.raises(ValueError, match="degree cap"):
        young_symmetrizer(YoungTableau([range(1, 10)]))


def double_sum_symmetrizer(t):
    """Σ over row permutations p and column permutations q of sgn(q) p*q."""
    columns = [(q, q.sign()) for q in t.vertical_group()]
    return GroupRingElement.from_terms(t.size, [(p * q, sign) for p in t.horizontal_group()
                                                for q, sign in columns])


@pytest.mark.parametrize("weight", [1, 2, 3, 4, 5, 6])
def test_young_symmetrizer_matches_double_sum(weight):
    for shape in partitions_of(weight):
        for t in standard_tableaux(shape):
            assert young_symmetrizer(t) == double_sum_symmetrizer(t)


@pytest.mark.parametrize("u", [0, 1, 2, 3])
def test_curvature_symmetrizer_matches_double_sum(u):
    t = curvature_tableau(u)
    assert young_symmetrizer(t) == double_sum_symmetrizer(t)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_stabilizer_symmetrizer_matches_group_scan(degree):
    positions = range(1, degree + 1)
    for fixed in [set(c) for k in range(degree + 1) for c in combinations(positions, k)]:
        for signed in (False, True):
            assert (stabilizer_symmetrizer(degree, fixed, signed)
                    == scanned_stabilizer_symmetrizer(degree, fixed, signed))
