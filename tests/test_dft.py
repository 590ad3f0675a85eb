import pickle
import random
from fractions import Fraction
from math import factorial

import pytest

from conftest import (_generators, block_columns, descent_transform, generator_intertwiner, random_element,
                      rank_test_elements, sparse_element, tabloid_solve_rep, unit_vector_table)
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
from symcurv import seminormal
from symcurv.dft import _intertwiner, _specht_matrix, block_ranks
from symcurv.group_ring import MAX_DEGREE, _stabilizer_blocks
from symcurv.linalg import identity_matrix, mat_mul, rank_of_rows
from symcurv.tensor import curvature_symmetrizer_star


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
        _specht_matrix((MAX_DEGREE + 1,))


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
    # the benchmark's degrees, on sparse elements like its own
    for r, support, pairs in ((5, 6, 6), (6, 4, 3)):
        for _ in range(pairs):
            a, b = sparse_element(rng, r, support), sparse_element(rng, r, support)
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


def factored_transform_inputs():
    """Elements with right stabilizers of both signs, and elements with none."""
    out = []
    for r in range(1, 6):
        for shape in partitions_of(r):
            for t in standard_tableaux(shape):
                y = young_symmetrizer(t)
                out += [y, y.star()]
    out += [curvature_symmetrizer_star(u) for u in range(4)]
    # the idempotents whose blocks induced_ideal_multiplicities reads
    for left in partitions_of(2):
        for right in partitions_of(3):
            e1 = Fraction(hook_dimension(left), 2) * young_symmetrizer(standard_tableaux(left)[0])
            e2 = Fraction(hook_dimension(right), 6) * young_symmetrizer(standard_tableaux(right)[0])
            out.append(e1.embed(5, range(1, 3)) * e2.embed(5, range(3, 6)))
    out += [GroupRingElement.zero(r) for r in (1, 4, 6)]
    rng = random.Random(12)
    for r in (3, 5, 6):
        for _ in range(3):
            coeffs = [c if rng.random() < 0.05 else 0 for c in random_element(rng, r).coeffs]
            out.append(GroupRingElement(r, coeffs))
    return out


def test_factored_transform_matches_descent_transform():
    elements = factored_transform_inputs()
    assert any(_stabilizer_blocks({p.images: c for p, c in a.terms()}) for a in elements)
    for a in elements:
        assert fourier_transform(a) == descent_transform(a)


def test_factored_transform_matches_factored_walk():
    # the descent-tree walk with Jucys-Murphy chains of natural generators, which Clausen's recursion replaced
    for a in factored_transform_inputs():
        columns, den = block_columns(a, partitions_of(a.degree))
        assert fourier_transform(a).blocks == tuple(
            tuple(tuple(Fraction(x, den) for x in row) for row in zip(*c)) for c in columns)


@pytest.mark.parametrize("r", range(2, 7))
def test_transform_and_block_ranks_match_descent_transform(r):
    elements = rank_test_elements(random.Random(300 + r), r)
    elements += [a for a in factored_transform_inputs() if a.degree == r]
    shapes = partitions_of(r)
    for a in elements:
        image = descent_transform(a)
        assert fourier_transform(a) == image
        assert block_ranks(a, shapes) == [rank_of_rows(block) for block in image.blocks]
        assert block_ranks(a, shapes[::-2]) == [rank_of_rows(image.block(s)) for s in shapes[::-2]]


@pytest.mark.parametrize("shape", [(2, 1), (1,), (3, 2), (2, 3, 1), (0, 4), (4, 0)])
def test_block_ranks_refuses_shapes_of_another_degree(shape):
    with pytest.raises(ValueError, match=rf"shape \[{', '.join(map(str, shape))}\] is not a partition of the degree 4"):
        block_ranks(GroupRingElement.identity(4), [(4,), shape])
    assert block_ranks(GroupRingElement.identity(4), [[3, 1], (4,)]) == [3, 1]


def test_dense_degree_7_round_trip_and_full_rank():
    a = random_element(random.Random(7), 7)
    assert a.support_size() > 4000
    assert inverse_fourier(fourier_transform(a)) == a
    assert a.right_ideal_rank() == factorial(7)


def _seminormal_matrix(ops, f):
    """The exact matrix of a generator's row operations, from their action on the identity."""
    den, _ = ops
    rows = seminormal._apply([[int(i == j) for j in range(f)] for i in range(f)], ops)
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


SHAPES_UP_TO_6 = [shape for r in range(1, 7) for shape in partitions_of(r)]


@pytest.mark.parametrize("shape", SHAPES_UP_TO_6, ids=str)
def test_seminormal_coxeter_relations(shape):
    r, f = sum(shape), hook_dimension(shape)
    left, right, _ = seminormal.generators(shape)
    s = [None] + [_seminormal_matrix(ops, f) for ops in left]
    one = identity_matrix(f)
    for i in range(1, r):
        # the transposed operations give the same matrix
        assert tuple(zip(*_seminormal_matrix(right[i - 1], f))) == s[i]
        assert mat_mul(s[i], s[i]) == one
        if i + 1 < r:
            st = mat_mul(s[i], s[i + 1])
            assert mat_mul(st, mat_mul(st, st)) == one
        for j in range(i + 2, r):
            assert mat_mul(s[i], s[j]) == mat_mul(s[j], s[i])


@pytest.mark.parametrize("r", range(2, 6))
def test_jucys_murphy_elements_act_by_contents(r):
    for shape in partitions_of(r):
        f = hook_dimension(shape)
        left, _, contents = seminormal.generators(shape)
        s = [None] + [_seminormal_matrix(ops, f) for ops in left]
        for j in range(2, r + 1):
            total = [[0] * f for _ in range(f)]
            for i in range(1, j):
                # (i j) as the palindrome s_{j-1}···s_i···s_{j-1}
                m = identity_matrix(f)
                for k in (*range(j - 1, i, -1), *range(i, j)):
                    m = mat_mul(m, s[k])
                total = [[x + y for x, y in zip(p, q)] for p, q in zip(total, m)]
            assert total == [[contents[t][j] if t == u else 0 for u in range(f)] for t in range(f)]


@pytest.mark.parametrize("shape", SHAPES_UP_TO_7, ids=str)
def test_intertwiner_carries_seminormal_to_natural(shape):
    f = hook_dimension(shape)
    p, p_den, q, q_den = _intertwiner(shape)
    assert all(p[i][i] == p_den and not any(p[j][i] for j in range(i + 1, f)) for i in range(f))
    assert mat_mul(p, q) == tuple(tuple(p_den * q_den * int(i == j) for j in range(f)) for i in range(f))
    for gen, ops in zip(_generators(shape), seminormal.generators(shape)[0]):
        natural = [[0] * f for _ in range(f)]
        for a, column in enumerate(gen):
            for b, c in column:
                natural[b][a] = c
        assert mat_mul(p, _seminormal_matrix(ops, f)) == mat_mul(natural, p)


@pytest.mark.parametrize("r", range(1, MAX_DEGREE + 1))
def test_intertwiner_matches_the_generator_recursion(r):
    # P/p and Q/q from the seminormal walk equal those of the natural generators, as rationals
    def rational(p, p_den, q, q_den):
        return [[[Fraction(x, den) for x in row] for row in rows] for rows, den in ((p, p_den), (q, q_den))]

    for shape in partitions_of(r):
        assert rational(*_intertwiner(shape)) == rational(*generator_intertwiner(shape))


@pytest.mark.parametrize("shape", SHAPES_UP_TO_7[1:], ids=str)
def test_branches_are_runs_in_the_smaller_shapes_order(shape):
    r = sum(shape)
    tableaux = standard_tableaux(shape)
    runs = seminormal.branches(shape)
    assert sum(size for _, _, size in runs) == len(tableaux)
    for mu, offset, size in runs:
        smaller = [tuple(filter(None, (tuple(v for v in row if v != r) for row in t.rows)))
                   for t in tableaux[offset:offset + size]]
        assert smaller == [t.rows for t in standard_tableaux(mu)]


@pytest.mark.parametrize("r", range(1, 7))
def test_recursion_order_groups_words_by_last_entry(r):
    order = seminormal.recursion_order(r)
    assert sorted(order) == list(range(factorial(r)))
    group = symmetric_group(r)
    step = factorial(r - 1)
    assert all(group[k].images[-1] == j // step + 1 for j, k in enumerate(order))


@pytest.mark.parametrize("r", range(1, 5))
def test_grown_tables_match_the_unit_vector_build(r, monkeypatch):
    monkeypatch.setattr(seminormal, "TABLE_DEGREE", 1)
    rows = lambda table: tuple(map(tuple, table))
    for shape in partitions_of(r):
        den, f, forward, adjoint = unit_vector_table(shape)
        table_den, table_f, table = seminormal._forward_table(shape)
        assert (table_den, table_f, rows(table)) == (den, f, rows(forward))
        table_den, table = seminormal._adjoint_table(shape)
        assert (table_den, rows(table)) == (den, rows(adjoint))


def _table_degree_outputs(elements):
    shapes = partitions_of(elements[0].degree)
    images = [fourier_transform(a) for a in elements]
    return pickle.dumps((images, [inverse_fourier(image) for image in images],
                         [block_ranks(a, shapes) for a in elements]))


@pytest.mark.parametrize("r", range(4, 8))
def test_tables_at_degree_4_keep_every_value_and_type(r, monkeypatch):
    rng = random.Random(440 + r)
    elements = [sparse_element(rng, r, 6), young_symmetrizer(standard_tableaux((r - 2, 2))[0]).scale(Fraction(1, 3))]
    if r < 7:
        elements += rank_test_elements(rng, r)[:3] + [random_element(rng, r)]
    pickled = _table_degree_outputs(elements)
    monkeypatch.setattr(seminormal, "TABLE_DEGREE", 3)
    assert _table_degree_outputs(elements) == pickled


def test_block_ranks_builds_no_adjoint_table():
    caches = (seminormal._words, seminormal._forward_table, seminormal._adjoint_table)
    for cache in caches:
        cache.cache_clear()
    assert block_ranks(random_element(random.Random(45), 5), partitions_of(5)) == [1, 4, 5, 6, 5, 4, 1]
    assert seminormal._forward_table.cache_info().currsize == len(partitions_of(4))
    assert seminormal._adjoint_table.cache_info().currsize == 0
    for cache in caches:
        cache.cache_clear()


def test_inverse_of_identity_blocks():
    assert inverse_fourier(BlockMatrixImage.one(3)) == GroupRingElement.identity(3)


def test_images_above_the_degree_cap_refused_before_any_block_is_built():
    for build in (lambda: BlockMatrixImage.one(MAX_DEGREE + 1),
                  lambda: BlockMatrixImage.from_single_block(MAX_DEGREE + 1, (9,), ((1,),)),
                  lambda: BlockMatrixImage(MAX_DEGREE + 1, []),
                  lambda: BlockMatrixImage(0, [])):
        with pytest.raises(ValueError, match=f"degree must be in 1..{MAX_DEGREE}"):
            build()


def test_inverse_of_degree_8_blocks():
    # one identity (4 3 1) block inverts to the central idempotent (70/8!) Σ_p χ(p^{-1}) p
    shape = (4, 3, 1)
    central = inverse_fourier(BlockMatrixImage.from_single_block(8, shape, identity_matrix(70)))
    rng = random.Random(431)
    for p in [Permutation.identity(8)] + [Permutation(rng.sample(range(1, 9), 8)) for _ in range(6)]:
        assert central.coefficient(p) == Fraction(70, factorial(8)) * character(shape, p.inverse())
    assert central.coefficient(Permutation.identity(8)) == Fraction(70 * 70, factorial(8))
    # the trivial block alone inverts to the normalized group sum
    trivial = inverse_fourier(BlockMatrixImage.from_single_block(8, (8,), ((1,),)))
    assert trivial == GroupRingElement(8, [Fraction(1, factorial(8))] * factorial(8))


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


@pytest.mark.parametrize("shape", [(2, 2), (3, 1), (1,), (2,)])
def test_single_block_of_another_degree_is_refused(shape):
    with pytest.raises(ValueError, match=rf"\({', '.join(map(str, shape))},?\) is not a partition of 3"):
        BlockMatrixImage.from_single_block(3, shape, ((1,),))
    assert BlockMatrixImage.from_single_block(3, (3,), ((1,),)).block((3,)) == ((1,),)


def test_block_image_validation():
    with pytest.raises(ValueError):
        BlockMatrixImage(3, [((1,),), ((1,),), ((1,),)])
    with pytest.raises(ValueError):
        BlockMatrixImage(3, [((1,),), identity_matrix(2)])
