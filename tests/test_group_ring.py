import random
from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_element, rank_test_elements, scanned_stabilizer_symmetrizer
from symcurv import (
    GroupRingElement,
    Permutation,
    curvature_tableau,
    hook_dimension,
    partitions_of,
    stabilizer_symmetrizer,
    standard_tableaux,
    symmetric_group,
    young_symmetrizer,
)
from symcurv.dft import fourier_eta, fourier_xi
from symcurv.group_ring import _inverse_table, _stabilizer_blocks
from symcurv.permutation import _rank_table
from symcurv.linalg import rank_of_rows


def basis(images):
    return GroupRingElement.from_permutation(Permutation(images))


def test_add_zero_and_doubling():
    a = random_element(random.Random(1), 3)
    assert a + GroupRingElement.zero(3) == a
    one = GroupRingElement.identity(3)
    assert one + one == 2 * one


def test_add_xi_eta_identity_coefficient():
    total = fourier_xi(0) + fourier_eta()
    assert total.coefficient(Permutation.identity(3)) == Fraction(2, 3)


def test_add_degree_mismatch():
    with pytest.raises(ValueError):
        GroupRingElement.zero(3) + GroupRingElement.zero(4)


def test_multiply_identity_is_neutral():
    a = random_element(random.Random(2), 4)
    assert GroupRingElement.identity(4) * a == a
    assert a * GroupRingElement.identity(4) == a


def test_multiply_young_symmetrizer_constant():
    y1 = young_symmetrizer(standard_tableaux((2, 1))[0])
    assert y1 * y1 == 3 * y1


def test_multiply_f_idempotent():
    f = fourier_xi(Fraction(1, 2))
    assert f * f == f


def test_star_examples():
    assert GroupRingElement.identity(3).star() == GroupRingElement.identity(3)
    rng = random.Random(3)
    a = random_element(rng, 4)
    assert a.star().star() == a


@settings(max_examples=20)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_star_antiautomorphism_s5(seed_a, seed_b):
    a = random_element(random.Random(seed_a), 5, span=2)
    b = random_element(random.Random(seed_b), 5, span=2)
    assert (a * b).star() == b.star() * a.star()


@settings(max_examples=10)
@given(st.integers(0, 10_000))
def test_ring_axioms_s4(seed):
    rng = random.Random(seed)
    a, b, c = (random_element(rng, 4, span=2) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_coefficients_stay_exact():
    with pytest.raises(TypeError):
        GroupRingElement(2, [0.5, 0])


def test_essential_idempotency_curvature_tableaux():
    from symcurv import curvature_tableau

    y4 = young_symmetrizer(curvature_tableau(0))
    assert y4.is_essentially_idempotent() == 12
    y5 = young_symmetrizer(curvature_tableau(1))
    assert y5.is_essentially_idempotent() == 24
    assert GroupRingElement.identity(3).is_essentially_idempotent() == 1


def test_essential_idempotency_negative_case():
    a = GroupRingElement.identity(3) + basis([1, 3, 2]) + 2 * basis([3, 2, 1])
    assert a.is_essentially_idempotent() is None
    with pytest.raises(ValueError):
        GroupRingElement.zero(3).is_essentially_idempotent()


def test_embed_identity_and_examples():
    assert GroupRingElement.identity(3).embed(5, (3, 4, 5)) == GroupRingElement.identity(5)
    assert basis([2, 1, 3]).embed(5, (3, 4, 5)) == basis([1, 2, 4, 3, 5])
    assert basis([2, 3, 1]).embed(5, (1, 2, 3)) == basis([2, 3, 1, 4, 5])


def test_embed_rejects_bad_slot_maps():
    a = GroupRingElement.identity(3)
    with pytest.raises(ValueError):
        a.embed(5, (1, 1, 2))
    with pytest.raises(ValueError):
        a.embed(5, (1, 2))
    with pytest.raises(ValueError):
        a.embed(5, (1, 2, 6))


def test_embed_is_ring_homomorphism():
    rng = random.Random(5)
    for slots in [(3, 4, 5), (1, 2, 3), (1, 3, 5)]:
        a = random_element(rng, 3, span=2)
        b = random_element(rng, 3, span=2)
        assert (a * b).embed(5, slots) == a.embed(5, slots) * b.embed(5, slots)


def test_stabilizer_symmetrizer_examples():
    assert stabilizer_symmetrizer(5, {3, 4, 5}) == (
        GroupRingElement.identity(5) + basis([2, 1, 3, 4, 5])
    )
    assert stabilizer_symmetrizer(3, {1, 2, 3}) == GroupRingElement.identity(3)
    signed = stabilizer_symmetrizer(3, set(), signed=True)
    expected = GroupRingElement.from_terms(
        3, [(p, p.sign()) for p in symmetric_group(3)]
    )
    assert signed == expected


def test_right_ideal_rank_examples():
    assert GroupRingElement.zero(3).right_ideal_rank() == 0
    assert GroupRingElement.identity(3).right_ideal_rank() == 6
    from symcurv import curvature_tableau

    assert young_symmetrizer(curvature_tableau(1)).right_ideal_rank() == 5


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_right_ideal_rank_matches_hook_dimension(r):
    for shape in partitions_of(r):
        d = hook_dimension(shape)
        for t in standard_tableaux(shape):
            assert young_symmetrizer(t).right_ideal_rank() == d


def dense_right_ideal_rank(a):
    """dim span{a * p : p in S_r} by eliminating all r! products."""
    return rank_of_rows([(a * GroupRingElement.from_permutation(p)).coeffs
                         for p in symmetric_group(a.degree)])


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_right_ideal_rank_matches_dense_elimination(degree):
    rng = random.Random(30 + degree)
    elements = rank_test_elements(rng, degree)
    if degree < 5:  # a dense element has full rank, slow to eliminate at r = 5
        elements += [random_element(rng, degree) for _ in range(3)]
    ranks = [a.right_ideal_rank() for a in elements]
    assert ranks == [dense_right_ideal_rank(a) for a in elements]
    assert len(set(ranks)) > 2


def test_permutation_module_rank_examples():
    one = GroupRingElement.identity(4)
    total = stabilizer_symmetrizer(4, set())
    signed = stabilizer_symmetrizer(4, set(), signed=True)
    for content in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]:
        words = factorial(4) // prod(map(factorial, content))
        assert one.permutation_module_rank(content) == words
        assert total.permutation_module_rank(content) == 1
        assert signed.permutation_module_rank(content) == (content == (1, 1, 1, 1))
    # zero counts and letter order do not change the module
    y = young_symmetrizer(standard_tableaux((2, 2))[1])
    assert y.permutation_module_rank((0, 1, 2, 0, 1)) == y.permutation_module_rank((2, 1, 1))
    assert GroupRingElement.identity(1).permutation_module_rank((1,)) == 1
    for content in [(2, 1), (1, 1, 1, 1, 1), (4, -1, 1)]:
        with pytest.raises(ValueError):
            one.permutation_module_rank(content)


def test_scalar_multiplication_and_negation():
    a = random_element(random.Random(8), 3)
    assert Fraction(1, 2) * (2 * a) == a
    assert a + (-a) == GroupRingElement.zero(3)


def test_json_round_trip():
    rng = random.Random(9)
    a = random_element(rng, 4)
    assert GroupRingElement.from_json(a.to_json()) == a
    assert GroupRingElement.from_json(GroupRingElement.zero(3).to_json()) == GroupRingElement.zero(3)


def test_terms_in_enumeration_order():
    a = basis([3, 2, 1]) + basis([1, 2, 3])
    perms = [p for p, _ in a.terms()]
    assert perms == [Permutation([1, 2, 3]), Permutation([3, 2, 1])]


def test_degree_cap():
    with pytest.raises(ValueError):
        GroupRingElement.zero(9)


# -- the factored product against the direct convolution ------------------------


def direct_product(a, b):
    """a * b as the double loop over the terms of both factors."""
    return GroupRingElement.from_terms(
        a.degree, [(p * q, cp * cq) for p, cp in a.terms() for q, cq in b.terms()])


def sparse_element(rng, degree, support):
    return GroupRingElement.from_terms(
        degree, [(rng.choice(symmetric_group(degree)),
                  Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2])))
                 for _ in range(support)])


def group_sum(degree, block, signed=False):
    """Σ g (signed: Σ sgn(g) g) over the permutations moving only the block, by a scan."""
    return scanned_stabilizer_symmetrizer(degree, set(range(1, degree + 1)) - set(block), signed)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_product_matches_direct_on_random_pairs(degree):
    rng = random.Random(60 + degree)
    for _ in range(10):
        if degree <= 4:
            a, b = random_element(rng, degree, span=2), random_element(rng, degree, span=2)
        else:
            a, b = sparse_element(rng, degree, 12), sparse_element(rng, degree, 12)
        assert a * b == direct_product(a, b)


@pytest.mark.parametrize("degree", [3, 4, 5])
def test_product_matches_direct_on_stabilizer_right_factors(degree):
    rng = random.Random(70 + degree)
    right = [stabilizer_symmetrizer(degree, {1}, signed=signed) for signed in (False, True)]
    right += [stabilizer_symmetrizer(degree, set(), signed=signed) for signed in (False, True)]
    # several blocks, with both signs
    right.append(direct_product(group_sum(degree, {1, 2}),
                                group_sum(degree, set(range(3, degree + 1)), signed=True)))
    right.append(direct_product(group_sum(degree, {1, 3}, signed=True),
                                group_sum(degree, {2, degree}, signed=True)))
    # a stabilizer times a sparse element on the left leaves a b0 of several terms
    right += [direct_product(sparse_element(rng, degree, 3), b) for b in right[:3]]
    for b in right:
        for a in (random_element(rng, degree, span=2), sparse_element(rng, degree, 4)):
            assert a * b == direct_product(a, b)


@pytest.mark.parametrize("weight", [1, 2, 3, 4, 5])
def test_product_matches_direct_on_young_symmetrizers(weight):
    rng = random.Random(80 + weight)
    for shape in partitions_of(weight):
        for t in standard_tableaux(shape):
            y = young_symmetrizer(t)
            for left, right in [(y, y), (y.star(), y.star()), (y.star(), y), (y, y.star())]:
                assert left * right == direct_product(left, right)
            a = sparse_element(rng, weight, 5)
            assert a * y.star() == direct_product(a, y.star())


def test_product_matches_direct_at_degree_7():
    rng = random.Random(7)
    for _ in range(3):
        a, b = sparse_element(rng, 7, 30), sparse_element(rng, 7, 30)
        assert a * b == direct_product(a, b)
    y = young_symmetrizer(curvature_tableau(3)).star()
    s = sparse_element(rng, 7, 4)
    assert y * s == direct_product(y, s)
    assert s * y == direct_product(s, y)
    # the dense y*y* is checked through its constant 7!/f^(5 2) = 360
    assert y.is_essentially_idempotent() == 360


def test_stabilizer_blocks_of_curvature_symmetrizers():
    y = young_symmetrizer(curvature_tableau(1))
    # y = R C is stable under its columns with sign -1, y* = C R under its rows
    assert _stabilizer_blocks({p.images: c for p, c in y.terms()}) == [([0, 1], -1), ([2, 3], -1)]
    assert (_stabilizer_blocks({p.images: c for p, c in y.star().terms()})
            == [([0, 2, 4], 1), ([1, 3], 1)])
    assert _stabilizer_blocks({}) == []


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_times_group_sum_of_identity_is_full_symmetrizer(r):
    one = GroupRingElement.identity(r)
    assert one.times_group_sum(range(1, r + 1)) == GroupRingElement.from_terms(
        r, [(p, 1) for p in symmetric_group(r)])
    assert one.times_group_sum(range(1, r + 1), signed=True) == GroupRingElement.from_terms(
        r, [(p, p.sign()) for p in symmetric_group(r)])


def test_times_group_sum_matches_product_with_group_sum():
    rng = random.Random(11)
    for block in [{2}, {1, 4}, {2, 3, 5}, {1, 2, 4, 5}, set()]:
        for signed in (False, True):
            a = sparse_element(rng, 5, 6)
            expected = direct_product(a, group_sum(5, block, signed))
            assert a.times_group_sum(block, signed) == expected
            assert a.times_group_sum(sorted(block, reverse=True), signed) == expected


def test_times_group_sum_rejects_bad_blocks():
    a = GroupRingElement.identity(4)
    for block in [(0, 1), (1, 5), (2, 2)]:
        with pytest.raises(ValueError):
            a.times_group_sum(block)


def test_degree_8_curvature_symmetrizer_is_essentially_idempotent():
    # the u = 4 class, out of reach of the direct convolution: 8!/f^(6 2) = 2016
    y = young_symmetrizer(curvature_tableau(4)).star()
    assert y.support_size() == 6 * 5 * 4 * 3 * 2 * 2 * 4
    assert y.is_essentially_idempotent() == 2016


@pytest.mark.parametrize("degree", range(1, 8))
def test_rank_and_inverse_tables_match_permutation_objects(degree):
    group = sorted(Permutation(w) for w in permutations(range(1, degree + 1)))
    assert symmetric_group(degree) == tuple(group)
    assert list(_rank_table(degree).items()) == [(p.images, i) for i, p in enumerate(group)]
    inverse_rank = {p.inverse(): i for i, p in enumerate(group)}
    assert _inverse_table(degree) == tuple(inverse_rank[p] for p in group)
