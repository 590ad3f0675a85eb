import random
from fractions import Fraction

import pytest

from conftest import random_element, tabloid_solve_rep
from symcurv import (
    BlockMatrixImage,
    GroupRingElement,
    Permutation,
    character,
    fourier_eta,
    fourier_transform,
    fourier_xi,
    hook_dimension,
    inverse_fourier,
    natural_rep_matrix,
    partitions_of,
    standard_tableaux,
    symmetric_group,
    x_matrix,
    y_matrix,
    young_symmetrizer,
)
from symcurv.dft import _generators, _specht_matrix
from symcurv.group_ring import MAX_DEGREE
from symcurv.linalg import identity_matrix, mat_mul, rank_of_rows


def expected_xi(nu):
    """Frozen affine coefficient pattern of the xi family."""
    nu = Fraction(nu)
    third = Fraction(1, 3)
    return GroupRingElement.from_terms(3, [
        ([1, 2, 3], third),
        ([1, 3, 2], third * nu),
        ([2, 1, 3], third * (1 - nu)),
        ([2, 3, 1], third * -nu),
        ([3, 1, 2], third * (nu - 1)),
        ([3, 2, 1], -third),
    ])


EXPECTED_ETA = GroupRingElement.from_terms(3, [
    ([1, 2, 3], Fraction(1, 3)),
    ([2, 1, 3], Fraction(-1, 3)),
    ([2, 3, 1], Fraction(-1, 3)),
    ([3, 2, 1], Fraction(1, 3)),
])


@pytest.mark.parametrize("r", [2, 3, 4])
def test_identity_maps_to_identity_blocks(r):
    p = Permutation.identity(r)
    for shape in partitions_of(r):
        assert natural_rep_matrix(shape, p) == identity_matrix(hook_dimension(shape))


@pytest.mark.parametrize("r", [3, 4, 5])
def test_one_dimensional_blocks(r):
    for p in symmetric_group(r):
        assert natural_rep_matrix((r,), p) == ((1,),)
        assert natural_rep_matrix((1,) * r, p) == ((p.sign(),),)


def test_natural_rep_is_homomorphism_exhaustive_s3():
    group = symmetric_group(3)
    for shape in partitions_of(3):
        mats = {p: natural_rep_matrix(shape, p) for p in group}
        for p in group:
            for q in group:
                assert mats[p * q] == mat_mul(mats[p], mats[q])


def test_natural_rep_is_homomorphism_sampled_s4():
    rng = random.Random(4)
    group = symmetric_group(4)
    for _ in range(25):
        p, q = rng.choice(group), rng.choice(group)
        for shape in partitions_of(4):
            assert natural_rep_matrix(shape, p * q) == mat_mul(
                natural_rep_matrix(shape, p), natural_rep_matrix(shape, q)
            )


def test_natural_rep_entries_are_integers():
    for p in symmetric_group(4):
        for shape in partitions_of(4):
            for row in natural_rep_matrix(shape, p):
                assert all(isinstance(v, int) for v in row)


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        natural_rep_matrix((2, 1), Permutation.identity(4))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_matches_tabloid_solve_exhaustive(r):
    for shape in partitions_of(r):
        for p in symmetric_group(r):
            assert natural_rep_matrix(shape, p) == tabloid_solve_rep(shape, p)


@pytest.mark.parametrize("r, per_shape", [(6, 8), (7, 2)])
def test_matches_tabloid_solve_sampled(r, per_shape):
    rng = random.Random(r)
    group = symmetric_group(r)
    for shape in partitions_of(r):
        for p in rng.sample(group, per_shape):
            assert natural_rep_matrix(shape, p) == tabloid_solve_rep(shape, p)


SHAPES_UP_TO_7 = [shape for r in range(1, 8) for shape in partitions_of(r)]


@pytest.mark.parametrize("shape", SHAPES_UP_TO_7, ids=str)
def test_coxeter_relations(shape):
    r = sum(shape)
    s = [None] + [natural_rep_matrix(shape, Permutation.transposition(r, i, i + 1))
                  for i in range(1, r)]
    one = identity_matrix(hook_dimension(shape))
    for i in range(1, r):
        assert all(isinstance(v, int) for row in s[i] for v in row)
        assert mat_mul(s[i], s[i]) == one
        if i + 1 < r:
            assert mat_mul(s[i], mat_mul(s[i + 1], s[i])) == mat_mul(s[i + 1], mat_mul(s[i], s[i + 1]))
        for j in range(i + 2, r):
            assert mat_mul(s[i], s[j]) == mat_mul(s[j], s[i])


@pytest.mark.parametrize("r", range(1, MAX_DEGREE + 1))
def test_generators_build_at_every_degree(r):
    # the standard polytabloids must be unitriangular on the standard tabloids
    for shape in partitions_of(r):
        a = _specht_matrix(shape)
        assert all(row[k] == 1 and not any(row[k + 1:]) for k, row in enumerate(a))
        gens = _generators(shape)
        assert len(gens) == r - 1
        assert all(isinstance(c, int) for gen in gens for column in gen for _, c in column)


def test_oversized_shapes_refused_before_enumeration():
    with pytest.raises(ValueError, match="degree cap"):
        natural_rep_matrix((6, 6), Permutation.identity(12))
    with pytest.raises(ValueError, match="degree cap"):
        character((5, 4), Permutation.identity(9))
    with pytest.raises(ValueError, match="degree cap"):
        _generators((MAX_DEGREE + 1,))


@pytest.mark.parametrize("r", [2, 3, 4])
def test_round_trip_on_all_basis_elements(r):
    for p in symmetric_group(r):
        e = GroupRingElement.from_permutation(p)
        assert inverse_fourier(fourier_transform(e)) == e


def test_round_trip_on_random_elements():
    rng = random.Random(5)
    for r in (3, 4):
        a = random_element(rng, r)
        assert inverse_fourier(fourier_transform(a)) == a


def test_transform_is_multiplicative():
    rng = random.Random(6)
    for r in (3, 4):
        for _ in range(10):
            a = random_element(rng, r, span=2)
            b = random_element(rng, r, span=2)
            assert fourier_transform(a * b) == fourier_transform(a) @ fourier_transform(b)


def test_transform_of_identity_is_identity_blocks():
    assert fourier_transform(GroupRingElement.identity(3)) == BlockMatrixImage.one(3)


def test_transform_of_antisymmetrizer():
    from symcurv import stabilizer_symmetrizer

    y = stabilizer_symmetrizer(3, set(), signed=True)
    # independent oracle: the sign-block entry is the sum of squared signs
    expected = sum(p.sign() ** 2 for p in symmetric_group(3))
    image = fourier_transform(y)
    assert image.block((1, 1, 1)) == ((expected,),)
    assert image.block((3,)) == ((0,),)
    assert image.block((2, 1)) == ((0, 0), (0, 0))


def test_inverse_of_identity_blocks():
    assert inverse_fourier(BlockMatrixImage.one(3)) == GroupRingElement.identity(3)


def test_idempotent_matrices():
    for nu in (0, 1, Fraction(1, 2), Fraction(-2, 3)):
        x = x_matrix(nu)
        assert mat_mul(x, x) == x
    assert mat_mul(y_matrix(), y_matrix()) == y_matrix()


@pytest.mark.parametrize("nu", [0, 1, Fraction(1, 2), Fraction(-2, 3), -1, 2])
def test_xi_matches_frozen_coefficients(nu):
    assert fourier_xi(nu) == expected_xi(nu)


def test_eta_matches_frozen_coefficients():
    assert fourier_eta() == EXPECTED_ETA


def test_xi_zero_and_eta_are_normalized_symmetrizers():
    t1, t2 = standard_tableaux((2, 1))
    assert fourier_xi(0) == Fraction(1, 3) * young_symmetrizer(t1)
    assert fourier_eta() == Fraction(1, 3) * young_symmetrizer(t2)


@pytest.mark.parametrize("nu", [0, 1, Fraction(1, 2), Fraction(-2, 3), 5])
def test_xi_is_idempotent(nu):
    xi = fourier_xi(nu)
    assert xi * xi == xi


def test_eta_is_idempotent():
    eta = fourier_eta()
    assert eta * eta == eta


def test_transform_of_xi_recovers_single_block():
    for nu in (0, Fraction(1, 2), Fraction(-2, 3)):
        assert fourier_transform(fourier_xi(nu)) == BlockMatrixImage.from_single_block(
            3, (2, 1), x_matrix(nu)
        )
    assert fourier_transform(fourier_eta()) == BlockMatrixImage.from_single_block(
        3, (2, 1), y_matrix()
    )


def _right_translate_rows(a):
    return [
        (a * GroupRingElement.from_permutation(q)).coeffs
        for q in symmetric_group(a.degree)
    ]


def test_distinct_parameters_give_distinct_right_ideals():
    # joint span above 2 shows the two rank-2 ideals differ
    for nu, mu in [(0, 1), (0, Fraction(1, 2)), (1, -1)]:
        rows = _right_translate_rows(fourier_xi(nu)) + _right_translate_rows(fourier_xi(mu))
        assert rank_of_rows(rows) == 4 > 2
    rows = _right_translate_rows(fourier_xi(0)) + _right_translate_rows(fourier_eta())
    assert rank_of_rows(rows) == 4 > 2


def test_each_xi_ideal_has_rank_two():
    assert fourier_xi(0).right_ideal_rank() == 2
    assert fourier_xi(Fraction(1, 2)).right_ideal_rank() == 2
    assert fourier_eta().right_ideal_rank() == 2


def test_character_values():
    # trivial + sign + 2 * standard at the identity recovers 3! over the blocks
    assert character((3,), Permutation.identity(3)) == 1
    assert character((1, 1, 1), Permutation([2, 1, 3])) == -1
    assert character((2, 1), Permutation.identity(3)) == 2


def test_block_image_validation():
    with pytest.raises(ValueError):
        BlockMatrixImage(3, [((1,),), ((1,),), ((1,),)])
    with pytest.raises(ValueError):
        BlockMatrixImage(3, [((1,),), identity_matrix(2)])
