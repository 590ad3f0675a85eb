import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import pytest

from conftest import (chain_stabilizer_symmetrizer, chain_young_symmetrizer, kostka_count,
                      scanned_stabilizer_symmetrizer, sorted_standard_tableaux)
from symcurv import (
    GroupRingElement,
    Permutation,
    YoungTableau,
    curvature_tableau,
    hook_dimension,
    partitions_of,
    stabilizer_symmetrizer,
    standard_tableaux,
    weyl_dimension,
    young_symmetrizer,
)
from symcurv.group_ring import _subgroup_ranks
from symcurv.permutation import perm_rank, symmetric_group
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


@pytest.mark.parametrize("parts", [[2.5, 1], [2.0, 1], [3, 1.0], [True], [2, True], ["2", "1"], ["3"]],
                         ids=repr)
def test_partitions_refuse_parts_that_are_not_ints(parts):
    # a float, bool or string used to be truncated by int(): hook_dimension([2.5, 1]) was 2
    for call in (validate_partition, hook_dimension, conjugate_partition, standard_tableaux,
                 lambda p: weyl_dimension(p, 3)):
        with pytest.raises(ValueError, match="partition parts must be ints"):
            call(parts)


@pytest.mark.parametrize("rows", [[[1.9, 2.2], [3.0]], [[1.0, 2], [3]], [["1", "2"], ["3"]],
                                  [[True, 2]], [[1, 2], [3.5]]], ids=repr)
def test_tableaux_refuse_entries_that_are_not_ints(rows):
    # YoungTableau([[1.9, 2.2], [3.0]]) used to become [[1, 2], [3]]
    with pytest.raises(ValueError, match="tableau entries must be ints"):
        YoungTableau(rows)


def test_tableaux_keep_int_rows_from_any_iterable():
    assert YoungTableau([range(1, 3), (3,)]).rows == ((1, 2), (3,))
    assert YoungTableau(iter([[1, 3], [2]])).rows == ((1, 3), (2,))


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
    # the int products never meet a float: a dim that is not an int is refused, not computed with
    for dim in (3.0, True, Fraction(3), Fraction(7, 2)):
        with pytest.raises(ValueError, match="dimension must be an int"):
            weyl_dimension((2, 1), dim)


def test_weyl_dimension_is_the_kostka_sum():
    # the semistandard tableaux with entries <= n, counted by weight: each partition weight mu
    # stands for its rearrangements into n values, zeros included
    for weight in range(1, 7):
        shapes = partitions_of(weight)
        kostka = {(shape, mu): kostka_count(shape, mu) for shape in shapes for mu in shapes if len(mu) <= 4}
        for n in range(1, 5):
            for shape in shapes:
                want = 0
                for mu in shapes:
                    if len(mu) <= n:
                        padded = mu + (0,) * (n - len(mu))
                        rearrangements = factorial(n)
                        for v in set(padded):
                            rearrangements //= factorial(padded.count(v))
                        want += kostka[shape, mu] * rearrangements
                assert weyl_dimension(shape, n) == want, (shape, n)


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


def _typed(a):
    return [(type(c), c) for c in a.coeffs]


@pytest.mark.parametrize("degree", range(1, 8))
def test_young_symmetrizer_matches_the_chain_build(degree):
    # every standard tableau, then seeded shuffled fillings of each shape
    rng = random.Random(300 + degree)
    for shape in partitions_of(degree):
        tableaux = list(standard_tableaux(shape))
        for _ in range(3):
            entries = rng.sample(range(1, degree + 1), degree)
            rows = [entries[sum(shape[:i]):sum(shape[:i + 1])] for i in range(len(shape))]
            tableaux.append(YoungTableau(rows))
        for t in tableaux:
            assert _typed(young_symmetrizer(t)) == _typed(chain_young_symmetrizer(t)), t


def test_young_symmetrizer_matches_the_chain_build_at_degree_8():
    rng = random.Random(308)
    for shape in partitions_of(8):
        t = standard_tableaux(shape)[rng.randrange(hook_dimension(shape))]
        y = young_symmetrizer(t)
        assert _typed(y) == _typed(chain_young_symmetrizer(t)), t
        assert y.support_size() == len(t.horizontal_group()) * len(t.vertical_group())


@pytest.mark.parametrize("degree", range(1, 8))
def test_stabilizer_symmetrizer_matches_the_chain_build(degree):
    rng = random.Random(320 + degree)
    positions = range(1, degree + 1)
    fixings = [set(c) for k in range(degree + 1) for c in combinations(positions, k)]
    for fixed in fixings if degree <= 5 else rng.sample(fixings, 12) + [set()]:
        for signed in (False, True):
            got = stabilizer_symmetrizer(degree, fixed, signed)
            assert _typed(got) == _typed(chain_stabilizer_symmetrizer(degree, fixed, signed)), (fixed, signed)


@pytest.mark.parametrize("degree", range(1, 7))
def test_subgroup_ranks_are_the_products_with_their_signs(degree):
    # seeded blocks on top of seeded starting permutations with seeded signs, against a scan of S_r
    rng = random.Random(330 + degree)
    group = symmetric_group(degree)
    for _ in range(4):
        letters = rng.sample(range(1, degree + 1), degree)
        cut = rng.randrange(degree + 1)
        blocks = [letters[:cut], letters[cut:]]
        start = rng.sample(group, min(3, len(group)))
        start_signs = [rng.choice((1, -1)) for _ in start]
        for signed in (False, True):
            ranks, signs = _subgroup_ranks(degree, blocks, signed, [perm_rank(p) for p in start], start_signs)
            subgroup = [g for g in group if all(g(v) in block for block in blocks for v in block)]
            expected = [(perm_rank(p * g), s * (g.sign() if signed else 1))
                        for p, s in zip(start, start_signs) for g in subgroup]
            assert sorted(zip(ranks, signs)) == sorted(expected), (blocks, signed)
    assert _subgroup_ranks(degree, [], True) == ([0], [1])


def test_block_permutations_keep_their_product_order():
    # the order the groups were listed in before they came from one enumeration
    t = YoungTableau([[1, 4, 6], [2, 5], [3]])
    for blocks, group in ((t.rows, t.horizontal_group()), (t.columns(), t.vertical_group())):
        listed = []
        for choice in product(*[permutations(block) for block in blocks]):
            images = list(range(1, t.size + 1))
            for block, rearranged in zip(blocks, choice):
                for src, dst in zip(block, rearranged):
                    images[src - 1] = dst
            listed.append(Permutation(images))
        assert group == listed
