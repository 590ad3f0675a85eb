import random
from fractions import Fraction
from functools import partial
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (assert_block_sum_matches_scatter, direct_product, group_sum, kernel_vectors,
                      lookup_inverse_table, lookup_swap_table, module_rank, random_element, rank_test_elements,
                      rebuilt_from_split, right_split, scatter_star, sorted_on, sparse_element)
from symcurv import (
    BlockMatrixImage,
    GroupRingElement,
    Permutation,
    curvature_tableau,
    hook_dimension,
    inverse_fourier,
    partitions_of,
    projector_rank,
    stabilizer_symmetrizer,
    standard_tableaux,
    symmetric_group,
    weyl_dimension,
    young_symmetrizer,
)
from symcurv.dft import fourier_eta, fourier_xi
from symcurv.group_ring import (MAX_DEGREE, _factored, _inverse_table, _positions, _stabilizer_blocks,
                                _swap_table)
from symcurv.permutation import _rank_table
from symcurv.linalg import rank_of_rows
from symcurv.tensor import _curvature_annihilators
from symcurv.verify import stab_xi


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


@settings(max_examples=20, deadline=None)
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


@pytest.mark.parametrize("position", [0, 3, 5], ids=["first", "after_ints", "last"])
def test_coefficients_stay_exact(position):
    coeffs = [1] * 6
    for bad in (True, 0.5, "1", None):
        coeffs[position] = bad
        with pytest.raises(TypeError):
            GroupRingElement(3, coeffs)
    coeffs[position] = Fraction(-6, 3)
    a = GroupRingElement(3, coeffs)
    assert type(a.coeffs[position]) is int and a.coeffs[position] == -2


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


@pytest.mark.parametrize("r", range(1, 8))
def test_identity_right_ideal_rank_is_order(r):
    # the unit rows of the regular module: r! sparse rows, each with one entry
    assert GroupRingElement.identity(r).right_ideal_rank() == factorial(r)


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
        assert module_rank(one, content) == words
        assert module_rank(total, content) == 1
        assert module_rank(signed, content) == (content == (1, 1, 1, 1))
    # zero counts and letter order do not change the module
    y = young_symmetrizer(standard_tableaux((2, 2))[1])
    assert module_rank(y, (0, 1, 2, 0, 1)) == module_rank(y, (2, 1, 1))
    assert module_rank(GroupRingElement.identity(1), (1,)) == 1
    for content in [(2, 1), (1, 1, 1, 1, 1), (4, -1, 1)]:
        with pytest.raises(ValueError):
            module_rank(one, content)


def test_right_ideal_rank_of_dense_elements_with_known_block_ranks():
    # inverse_fourier of 0/1 diagonal blocks: a dense element whose block ranks
    # are the counts of ones
    for degree in (5, 6):
        rng = random.Random(40 + degree)
        shapes = partitions_of(degree)
        diagonals = [[rng.randint(0, 1) for _ in range(hook_dimension(s))] for s in shapes]
        image = BlockMatrixImage(degree, [[[int(i == j) * d[i] for j in range(len(d))]
                                           for i in range(len(d))] for d in diagonals])
        a = inverse_fourier(image)
        assert a.support_size() > factorial(degree) // 2
        ranks = [sum(d) for d in diagonals]
        assert a.right_ideal_rank() == sum(hook_dimension(s) * k for s, k in zip(shapes, ranks))
        for dim in range(1, degree + 2):
            assert projector_rank(a, dim) == sum(weyl_dimension(s, dim) * k
                                                 for s, k in zip(shapes, ranks) if len(s) <= dim)


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
    # each constructor refuses before it builds r! coefficients; degrees 10..20
    # are never tried, since a constructor that checked late would allocate them
    builders = (
        GroupRingElement.zero,
        GroupRingElement.identity,
        lambda degree: GroupRingElement.from_permutation(Permutation.identity(degree)),
        lambda degree: GroupRingElement.from_terms(degree, []),
    )
    for degree in (0, 9, 30):
        for build in builders:
            # at degree 0 there is no permutation, which Permutation itself refuses
            with pytest.raises(ValueError, match=r"degree must be (in 1\.\.8|at least 1)"):
                build(degree)


# -- the factored product against the direct convolution ------------------------


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


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_product_of_fractional_factors_matches_direct(degree):
    rng = random.Random(90 + degree)
    ident = GroupRingElement.identity(degree)
    swap = GroupRingElement.from_permutation(Permutation.transposition(degree, 1, 2))
    # (1/2)(1 + s) * (1/3)(1 - s) = 0, and with 3x/2 and 2y/3 every coefficient of a*b is an int
    pairs = [(Fraction(1, 2) * (ident + swap), Fraction(1, 3) * (ident - swap))]
    for _ in range(4):
        x, y = (GroupRingElement.from_terms(degree, [(p, rng.choice((-1, 1, 5))) for p in
                                                     rng.sample(symmetric_group(degree), min(3, degree))])
                for _ in range(2))
        pairs.append((Fraction(3, 2) * x, Fraction(2, 3) * y))
        pairs.append((Fraction(3, 2) * x, Fraction(2, 3) * y + Fraction(1, 6) * swap))
    mixed = 0
    for a, b in pairs:
        assert any(type(c) is Fraction for c in a.coeffs)
        assert any(type(c) is Fraction for c in b.coeffs)
        product, expected = a * b, direct_product(a, b)
        assert [(type(c), c) for c in product.coeffs] == [(type(c), c) for c in expected.coeffs]
        mixed += 0 in product.coeffs and any(c and type(c) is int for c in product.coeffs)
    assert (pairs[0][0] * pairs[0][1]).is_zero()
    assert mixed  # some product has both a zero and a nonzero int coefficient


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


def test_positions_read_any_number_of_positions():
    for w in ((5, 6, 7), [5, 6, 7]):
        assert tuple(_positions([2, 0])(w)) == (7, 5)
        assert tuple(_positions([1])(w)) == (6,)
        assert tuple(_positions([])(w)) == ()


def test_stabilizer_blocks_of_curvature_symmetrizers():
    y = young_symmetrizer(curvature_tableau(1))
    # y = R C is stable under its columns with sign -1, y* = C R under its rows
    assert _stabilizer_blocks({p.images: c for p, c in y.terms()}) == [([0, 1], -1), ([2, 3], -1)]
    assert (_stabilizer_blocks({p.images: c for p, c in y.star().terms()})
            == [([0, 2, 4], 1), ([1, 3], 1)])
    assert _stabilizer_blocks({}) == []


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_factored_form_rebuilds_the_element(degree):
    for a in rank_test_elements(random.Random(70 + degree), degree):
        assert rebuilt_from_split(a) == a
        assert rebuilt_from_split(a.scale(Fraction(-2, 3))) == a.scale(Fraction(-2, 3))
    assert rebuilt_from_split(GroupRingElement.zero(degree)) == GroupRingElement.zero(degree)


@pytest.mark.parametrize("u", [0, 1, 2, 3])
def test_factored_form_rebuilds_the_curvature_symmetrizer(u):
    t = curvature_tableau(u)
    ystar = young_symmetrizer(t).star()
    rows, columns = ([[v - 1 for v in b] for b in bs if len(b) > 1] for bs in (t.rows, t.columns()))
    # y* = V·H: its rows on the right, its columns on the left, one word between
    den, left, rest, right = _factored(ystar)
    assert (den, rest) == (1, {tuple(range(1, u + 5)): 1})
    assert right == [(b, 1) for b in rows] and left == [(b, -1) for b in columns]
    assert rebuilt_from_split(ystar) == ystar


def test_factored_filter_matches_the_per_word_test():
    # one block pair, several pairs over one block, pairs over two blocks, no pairs
    swap12 = basis([2, 1, 3])
    elements = [GroupRingElement.identity(3) + swap12, GroupRingElement.identity(3) - swap12,
                GroupRingElement.identity(4).times_group_sum([1, 2]).times_group_sum([3, 4], signed=True),
                random_element(random.Random(3), 4)]
    elements += [young_symmetrizer(curvature_tableau(u)).star() for u in (0, 1, 2, 3)]
    elements += rank_test_elements(random.Random(75), 5)
    for a in elements:
        den, right, rest = right_split(a)
        assert _factored(a, two_sided=False) == (den, [], rest, right)
        inverse = {Permutation(w).inverse().images: n for w, n in rest.items()}
        left = _stabilizer_blocks(inverse)
        rest = {Permutation(w).inverse().images: n for w, n in inverse.items() if sorted_on(w, left)}
        assert _factored(a) == (den, left, rest, right)


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6, 7])
def test_times_block_sum_matches_the_scatter_oracle(degree):
    rng = random.Random(80 + degree)
    swap = partial(_swap_table, degree)
    blocks = [list(range(degree)), sorted(rng.sample(range(degree), 2))]
    if degree >= 4:
        blocks.append(sorted(rng.sample(range(degree), 3)))
    for coeffs, canonical in kernel_vectors(rng, factorial(degree)):
        for block in blocks:
            for sign in (1, -1):
                assert_block_sum_matches_scatter(coeffs, block, sign, swap, canonical)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7])
def test_star_matches_the_scatter_oracle(degree):
    rng = random.Random(90 + degree)
    elements = [GroupRingElement.zero(degree), GroupRingElement.identity(degree),
                random_element(rng, degree), sparse_element(rng, degree, 5)]
    if degree >= 4:
        elements.append(young_symmetrizer(curvature_tableau(degree - 4)))
    for a in elements:
        assert [(type(c), c) for c in a.star().coeffs] == [(type(c), c) for c in scatter_star(a).coeffs]


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


@pytest.mark.parametrize("call", [
    lambda: stabilizer_symmetrizer(4, {1.5}),
    lambda: stabilizer_symmetrizer(4, {2.0}),
    lambda: stabilizer_symmetrizer(4, {True}),
    lambda: GroupRingElement.identity(3).times_group_sum([1.5, 2]),
    lambda: GroupRingElement.identity(3).times_group_sum([True, 2]),
    lambda: GroupRingElement.identity(3).embed(5, [1.5, 2, 3]),
    lambda: GroupRingElement.identity(3).embed(5, [True, 2, 3]),
], ids=["fixed 1.5", "fixed 2.0", "fixed True", "block 1.5", "block True", "slot 1.5", "slot True"])
def test_float_and_bool_positions_are_refused(call):
    with pytest.raises(ValueError, match="must be ints"):
        call()


def test_degree_8_curvature_symmetrizer_is_essentially_idempotent():
    # the u = 4 class, out of reach of the direct convolution: 8!/f^(6 2) = 2016
    y = young_symmetrizer(curvature_tableau(4)).star()
    assert y.support_size() == 6 * 5 * 4 * 3 * 2 * 2 * 4
    assert y.is_essentially_idempotent() == 2016


@pytest.mark.parametrize("degree", range(1, MAX_DEGREE + 1))
def test_grown_tables_match_the_word_lookups(degree):
    ranks = list(_rank_table(degree).values())
    tables = {"inverse": (_inverse_table(degree), lookup_inverse_table(degree))}
    for j in range(degree):
        for i in range(j):
            tables[i + 1, j + 1] = (_swap_table(degree, i, j), lookup_swap_table(degree, i, j))
    for name, (got, want) in tables.items():
        assert got == want, name
        # each cached entry is the rank table's own int object, as the lookups' are
        assert all(x is ranks[x] for x in got), name


@pytest.mark.parametrize("degree", range(1, 8))
def test_rank_and_inverse_tables_match_permutation_objects(degree):
    group = sorted(Permutation(w) for w in permutations(range(1, degree + 1)))
    assert symmetric_group(degree) == tuple(group)
    assert list(_rank_table(degree).items()) == [(p.images, i) for i, p in enumerate(group)]
    inverse_rank = {p.inverse(): i for i, p in enumerate(group)}
    assert _inverse_table(degree) == tuple(inverse_rank[p] for p in group)


def split_inputs(rng, degree):
    """Seeded elements without stabilizers and with right, left and two-sided group sums, over rationals."""
    a = sparse_element(rng, degree, 5)
    out = [a, GroupRingElement.zero(degree), GroupRingElement.identity(degree), random_element(rng, degree)]
    for _ in range(2 if degree > 1 else 0):
        right, left = (sorted(rng.sample(range(1, degree + 1), min(degree - 1, 3) or 2)) for _ in range(2))
        b = a.times_group_sum(right, signed=rng.random() < 0.5)
        # left group sums through the involution: (Σ g·x*)* = Σ x·g^{-1}
        out += [b, b.star().times_group_sum(left, signed=rng.random() < 0.5).star(),
                a.star().times_group_sum(left, signed=rng.random() < 0.5).star()]
    return out


@pytest.mark.parametrize("degree", range(1, 8))
def test_split_rebuilds_seeded_elements(degree):
    elements = split_inputs(random.Random(400 + degree), degree)
    for a in elements:
        assert rebuilt_from_split(a) == a
    if degree > 2:
        # a left group sum after a right one need not show: the rest keeps one word per right coset, not a left-stable set
        assert any(_factored(a)[1] for a in elements) and any(_factored(a)[3] for a in elements)


@pytest.mark.parametrize("u", [0, 1, 2, 3])
def test_split_rebuilds_curvature_symmetrizers_and_their_products(u):
    y = young_symmetrizer(curvature_tableau(u))
    ystar = y.star()
    # y = H·V keeps H in its rest: one word per coset w·V, increasing along the columns, is not an H-stable set
    assert not _factored(y)[1] and _factored(y)[3]
    for a in (y, ystar, ystar * ystar, ystar * y):
        assert rebuilt_from_split(a) == a


def test_split_rebuilds_the_paper_operators():
    elements = [stab_xi(1), stab_xi(2), *_curvature_annihilators(4), *_curvature_annihilators(5)]
    assert any(_factored(a)[3] for a in elements)
    for a in elements:
        assert rebuilt_from_split(a) == a


@pytest.mark.parametrize("degree", range(1, 7))
def test_product_by_left_group_sums_matches_direct(degree):
    # the left chain runs on a's numerators: rational a, and b whose rest keeps the identity and other words
    rng = random.Random(420 + degree)
    for b in split_inputs(rng, degree):
        a = sparse_element(rng, degree, 6)
        assert a * b == direct_product(a, b)
        assert b * a == direct_product(b, a)
