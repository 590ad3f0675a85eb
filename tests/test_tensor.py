import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    random_alternating2,
    random_element,
    random_frame,
    random_symmetric2,
    random_symmetric3,
    random_tensor,
)
from symcurv import (
    DenseTensor,
    GroupRingElement,
    Permutation,
    alpha,
    alternating_basis,
    apply_operator,
    coordinate_basis,
    gamma,
    gamma_hat,
    generator_span_rank,
    is_acdc,
    is_algebraic_curvature,
    projector_rank,
    symmetric_basis,
    symmetric_order3_basis,
    t_b,
    tensor_product,
    weyl_dimension,
)
from symcurv.tensor import curvature_symmetrizer_star, frame


def basis_elem(images):
    return GroupRingElement.from_permutation(Permutation(images))


# -- DenseTensor basics -------------------------------------------------------


def test_indexing_is_one_based():
    t = DenseTensor.from_entries(2, 2, {(1, 2): 5})
    assert t[(1, 2)] == 5
    assert t[(2, 1)] == 0
    with pytest.raises(ValueError):
        t[(0, 1)]
    with pytest.raises(ValueError):
        t[(1, 2, 1)]


def test_floats_rejected():
    with pytest.raises(TypeError):
        DenseTensor(1, 2, [0.5, 1])


def test_json_round_trip():
    rng = random.Random(0)
    t = random_tensor(rng, 3, 2)
    assert DenseTensor.from_json(t.to_json()) == t
    z = DenseTensor.zero(2, 3)
    assert DenseTensor.from_json(z.to_json()) == z


def test_kronecker_tensor():
    d = DenseTensor.kronecker(3)
    assert d[(1, 1)] == d[(2, 2)] == d[(3, 3)] == 1
    assert d[(1, 2)] == 0


# -- operator action ----------------------------------------------------------


def test_apply_identity_operator():
    rng = random.Random(1)
    t = random_tensor(rng, 3, 3)
    assert apply_operator(GroupRingElement.identity(3), t) == t


def test_apply_symmetrizer_to_symmetric_tensor():
    rng = random.Random(2)
    s = random_symmetric2(rng, 3)
    op = GroupRingElement.identity(2) + basis_elem([2, 1])
    assert apply_operator(op, s) == s.scale(2)


def test_apply_degree_mismatch():
    with pytest.raises(ValueError):
        apply_operator(GroupRingElement.identity(3), DenseTensor.zero(2, 2))


def test_operator_composition_order_regression():
    # frozen convention: (a*b) acts as a after b
    rng = random.Random(3)
    for _ in range(20):
        a = random_element(rng, 3, span=2)
        b = random_element(rng, 3, span=2)
        t = random_tensor(rng, 3, 2)
        assert apply_operator(a * b, t) == apply_operator(a, apply_operator(b, t))


def test_single_permutation_action_on_basis_tensor():
    # (pT)[i1,i2,i3] = T[i_{p(1)}, i_{p(2)}, i_{p(3)}], checked on a basis tensor
    p = Permutation([2, 3, 1])
    t = DenseTensor.basis(3, 2, (1, 2, 2))
    moved = apply_operator(GroupRingElement.from_permutation(p), t)
    expected = {
        idx: 1
        for idx in [(i1, i2, i3)
                    for i1 in (1, 2) for i2 in (1, 2) for i3 in (1, 2)]
        if (idx[p(1) - 1], idx[p(2) - 1], idx[p(3) - 1]) == (1, 2, 2)
    }
    assert moved == DenseTensor.from_entries(3, 2, expected)


# -- frame evaluation ---------------------------------------------------------


def test_frame_evaluation_of_zero():
    z = DenseTensor.zero(3, 3)
    b = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert t_b(z, b) == GroupRingElement.zero(3)


def test_frame_evaluation_symmetric_order2():
    rng = random.Random(4)
    s = random_symmetric2(rng, 3)
    b = random_frame(rng, 2, 3)
    elem = t_b(s, b)
    assert elem.coefficient([1, 2]) == elem.coefficient([2, 1])


def test_frame_evaluation_intertwines_star():
    rng = random.Random(5)
    for _ in range(25):
        a = random_element(rng, 3, span=2)
        t = random_tensor(rng, 3, 3)
        b = random_frame(rng, 3, 3)
        assert t_b(apply_operator(a, t), b) == t_b(t, b) * a.star()


def test_frame_validation():
    with pytest.raises(ValueError):
        t_b(DenseTensor.zero(2, 2), [[1, 2]])
    with pytest.raises(ValueError):
        t_b(DenseTensor.zero(2, 2), [[1, 2, 3], [1, 0, 0]])
    with pytest.raises(ValueError):
        frame([[1, 2], [1]])


def test_symmetric_class_frames_span_the_left_ideal():
    # order-2 symmetric class: every frame evaluation lies in the
    # one-dimensional left ideal spanned by id + (1 2), and the
    # evaluations of basis tensors over basis frames already span it
    sym_op = GroupRingElement.identity(2) + basis_elem([2, 1])
    vectors = []
    frames = [[[1, 0], [0, 1]], [[1, 0], [1, 0]], [[0, 1], [0, 1]],
              [[1, 1], [0, 1]], [[1, 2], [3, 5]]]
    for s in symmetric_basis(2):
        for b in frames:
            elem = t_b(s, b)
            assert (elem.coefficient([1, 2]) == elem.coefficient([2, 1]))
            vectors.append(elem.coeffs)
    from symcurv.linalg import rank_of_rows

    assert rank_of_rows(vectors) == 1
    assert sym_op.right_ideal_rank() == 1


# -- tensor product -----------------------------------------------------------


def test_tensor_product_with_zero():
    rng = random.Random(6)
    t = random_tensor(rng, 2, 2)
    z = DenseTensor.zero(3, 2)
    assert tensor_product(t, z).is_zero()


def test_tensor_product_kronecker_entry():
    d = DenseTensor.kronecker(2)
    prod = tensor_product(d, d)
    assert prod[(1, 1, 2, 2)] == 1
    assert prod[(1, 2, 2, 1)] == 0


def test_tensor_product_order_adds():
    s = DenseTensor.zero(2, 3)
    w = DenseTensor.zero(3, 3)
    assert tensor_product(s, w).order == 5


def test_tensor_product_dim_mismatch():
    with pytest.raises(ValueError):
        tensor_product(DenseTensor.zero(2, 2), DenseTensor.zero(2, 3))


# -- curvature generators -----------------------------------------------------


def test_gamma_on_kronecker():
    g = gamma(DenseTensor.kronecker(2))
    assert g[(1, 2, 2, 1)] == Fraction(1, 3)
    assert g[(1, 2, 1, 2)] == Fraction(-1, 3)


def test_gamma_vanishes_on_repeated_last_pair():
    rng = random.Random(7)
    s = random_symmetric2(rng, 3)
    g = gamma(s)
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                assert g[(i, j, k, k)] == 0


def test_gamma_is_symmetrized_square():
    rng = random.Random(8)
    y4s = curvature_symmetrizer_star(0)
    for _ in range(5):
        s = random_symmetric2(rng, 3)
        assert gamma(s).scale(12) == apply_operator(y4s, tensor_product(s, s))


def test_gamma_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        gamma(DenseTensor.from_entries(2, 2, {(1, 2): 1}))


def test_alpha_square_entry():
    a = DenseTensor.from_entries(2, 2, {(1, 2): 3, (2, 1): -3})
    assert alpha(a)[(1, 2, 1, 2)] == 9


def test_alpha_of_zero():
    assert alpha(DenseTensor.zero(2, 3)).is_zero()


def test_alpha_is_symmetrized_square():
    rng = random.Random(9)
    y4s = curvature_symmetrizer_star(0)
    for _ in range(5):
        a = random_alternating2(rng, 3)
        assert alpha(a).scale(12) == apply_operator(y4s, tensor_product(a, a))


def test_alpha_rejects_symmetric():
    with pytest.raises(ValueError):
        alpha(DenseTensor.kronecker(2))


def test_gamma_hat_antisymmetric_in_first_pair():
    rng = random.Random(10)
    gh = gamma_hat(random_symmetric2(rng, 2), random_symmetric3(rng, 2))
    for k in (1, 2):
        for l in (1, 2):
            for s in (1, 2):
                assert gh[(1, 1, k, l, s)] == 0
                assert gh[(2, 2, k, l, s)] == 0


def test_gamma_hat_equals_both_symmetrized_products():
    rng = random.Random(11)
    y5s = curvature_symmetrizer_star(1)
    for _ in range(3):
        s = random_symmetric2(rng, 3)
        w = random_symmetric3(rng, 3)
        gh = gamma_hat(s, w)
        assert gh == apply_operator(y5s, tensor_product(s, w))
        assert gh == apply_operator(y5s, tensor_product(w, s))


def test_gamma_hat_termwise_against_kronecker():
    # independent oracle: substitute the Kronecker tensor into the
    # four-term closed form by hand
    rng = random.Random(12)
    w = random_symmetric3(rng, 2)
    d = DenseTensor.kronecker(2)
    gh = gamma_hat(d, w)
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                for l in (1, 2):
                    for s in (1, 2):
                        expected = 4 * (
                            (1 if i == l else 0) * w[(j, k, s)]
                            - (1 if j == l else 0) * w[(i, k, s)]
                            + (1 if j == k else 0) * w[(i, l, s)]
                            - (1 if i == k else 0) * w[(j, l, s)]
                        )
                        assert gh[(i, j, k, l, s)] == expected


def test_gamma_hat_validates_symmetry():
    asym = DenseTensor.from_entries(2, 2, {(1, 2): 1})
    rng = random.Random(13)
    with pytest.raises(ValueError):
        gamma_hat(asym, random_symmetric3(rng, 2))
    with pytest.raises(ValueError):
        gamma_hat(DenseTensor.kronecker(2), DenseTensor.basis(3, 2, (1, 2, 2)))


# -- identity diagnostics -----------------------------------------------------


def test_gamma_output_is_algebraic_curvature():
    rng = random.Random(14)
    for _ in range(3):
        report = is_algebraic_curvature(gamma(random_symmetric2(rng, 3)))
        assert report.ok and report.symmetrizer_fixed_point


def test_kronecker_square_is_not_curvature():
    d = DenseTensor.kronecker(2)
    report = is_algebraic_curvature(tensor_product(d, d))
    assert not report.ok
    assert "skew_last_pair" in report.failures()


def test_zero_is_curvature_and_acdc():
    assert is_algebraic_curvature(DenseTensor.zero(4, 2)).ok
    assert is_acdc(DenseTensor.zero(5, 2)).ok


def test_gamma_hat_output_is_acdc():
    rng = random.Random(15)
    report = is_acdc(gamma_hat(random_symmetric2(rng, 3), random_symmetric3(rng, 3)))
    assert report.ok and report.symmetrizer_fixed_point


def test_generic_order5_tensor_is_not_acdc():
    assert not is_acdc(DenseTensor.basis(5, 2, (1, 1, 1, 1, 1))).ok
    rng = random.Random(16)
    assert not is_acdc(random_tensor(rng, 5, 2)).ok


def test_identity_and_fixed_point_routes_agree_on_projected_tensors():
    rng = random.Random(17)
    y4s = curvature_symmetrizer_star(0)
    for _ in range(100):
        projected = apply_operator(y4s, random_tensor(rng, 4, 3))
        report = is_algebraic_curvature(projected)
        assert report.ok and report.symmetrizer_fixed_point


def test_order_validation():
    with pytest.raises(ValueError):
        is_algebraic_curvature(DenseTensor.zero(5, 2))
    with pytest.raises(ValueError):
        is_acdc(DenseTensor.zero(4, 2))


# -- ranks --------------------------------------------------------------------


def test_projector_rank_of_zero():
    assert projector_rank(GroupRingElement.zero(3), 3) == 0


def test_projector_rank_order5_class():
    # oracle: content-over-hook dimension of the two-row shape at n = 3
    ystar = curvature_symmetrizer_star(1)
    assert projector_rank(ystar, 3) == weyl_dimension((3, 2), 3) == 15


def test_projector_rank_order4_class_at_n2():
    ystar = curvature_symmetrizer_star(0)
    assert projector_rank(ystar, 2) == weyl_dimension((2, 2), 2) == 1


def test_projector_rank_cap():
    with pytest.raises(ValueError):
        projector_rank(GroupRingElement.identity(5), 3, max_dim=100)


def test_generator_span_rank_empty():
    assert generator_span_rank([]) == 0


def test_generator_span_rank_shape_mismatch():
    with pytest.raises(ValueError):
        generator_span_rank([DenseTensor.zero(2, 2), DenseTensor.zero(3, 2)])


def test_gamma_hat_family_spans_the_class():
    family = [
        gamma_hat(s, w)
        for s in symmetric_basis(3)
        for w in symmetric_order3_basis(3)
    ]
    assert generator_span_rank(family) == 15


def test_basis_family_sizes():
    assert len(symmetric_basis(3)) == 6
    assert len(alternating_basis(3)) == 3
    assert len(symmetric_order3_basis(3)) == 10
    assert len(coordinate_basis(2, 3)) == 9
    assert all(t.is_fully_symmetric() for t in symmetric_order3_basis(3))
    assert all(t.is_alternating() for t in alternating_basis(3))


# -- index-loop oracle for the annihilator route -------------------------------
#
# The identity checks used to be written as loops over every index; they are
# kept here as an independent reference for the group-ring annihilators.


def _indices(order, dim):
    return itertools.product(range(1, dim + 1), repeat=order)


def reference_curvature(t):
    idx = list(_indices(4, t.dim))
    return (
        all(t[(i, j, k, l)] == -t[(i, j, l, k)] for i, j, k, l in idx),
        all(t[(i, j, k, l)] == t[(k, l, i, j)] for i, j, k, l in idx),
        all(t[(i, j, k, l)] + t[(i, k, l, j)] + t[(i, l, j, k)] == 0 for i, j, k, l in idx),
    )


def reference_acdc(t):
    idx = list(_indices(5, t.dim))
    return (
        all(t[(i, j, k, l, m)] == -t[(i, j, l, k, m)] for i, j, k, l, m in idx),
        all(t[(i, j, k, l, m)] == t[(k, l, i, j, m)] for i, j, k, l, m in idx),
        all(t[(i, j, k, l, m)] + t[(i, k, l, j, m)] + t[(i, l, j, k, m)] == 0
            for i, j, k, l, m in idx),
        all(t[(i, j, k, l, m)] + t[(i, j, l, m, k)] + t[(i, j, m, k, l)] == 0
            for i, j, k, l, m in idx),
    )


def reference_fully_symmetric(t):
    return all(t[word] == t[idx] for idx in _indices(t.order, t.dim)
               for word in itertools.permutations(idx))


def reference_alternating(t):
    return all(t[(i, j)] == -t[(j, i)] for i, j in _indices(2, t.dim))


def _element(degree, *terms):
    return GroupRingElement.from_terms(degree, [(Permutation(w), c) for w, c in terms])


def _order_samples(rng, order, dim):
    """Random tensors, full projections, and projections that satisfy only
    some identities (antisymmetrized last pair, or symmetrized pairs)."""
    ident = tuple(range(1, order + 1))
    tail = ident[4:]
    skew_last = _element(order, (ident, 1), ((1, 2, 4, 3) + tail, -1))
    skew_both = skew_last * _element(order, (ident, 1), ((2, 1, 3, 4) + tail, -1))
    exchange = _element(order, (ident, 1), ((3, 4, 1, 2) + tail, 1))
    partial = [skew_last, exchange * skew_both]
    ystar = curvature_symmetrizer_star(order - 4)
    out = []
    for _ in range(4):
        t = random_tensor(rng, order, dim, span=2)
        out += [t, apply_operator(ystar, t)]
        out += [apply_operator(a, t) for a in partial]
        if order == 5:
            # satisfies every order-4 identity in the first four slots only
            r = apply_operator(curvature_symmetrizer_star(0), random_tensor(rng, 4, dim, span=2))
            out.append(tensor_product(r, random_tensor(rng, 1, dim, span=2)))
    return out


@pytest.mark.parametrize("dim", [2, 3, 4])  # first Bianchi is independent from n = 4
def test_curvature_annihilators_match_index_loops(dim):
    rng = random.Random(40 + dim)
    for t in _order_samples(rng, 4, dim):
        report = is_algebraic_curvature(t)
        expected = reference_curvature(t)
        assert (report.skew_last_pair, report.pair_exchange, report.first_bianchi) == expected
        assert report.ok == all(expected) == report.symmetrizer_fixed_point


@pytest.mark.parametrize("dim", [2, 3])
def test_acdc_annihilators_match_index_loops(dim):
    rng = random.Random(50 + dim)
    samples = _order_samples(rng, 5, dim)
    assert any(is_acdc(t).ok for t in samples) and not all(is_acdc(t).ok for t in samples)
    for t in samples:
        report = is_acdc(t)
        expected = reference_acdc(t)
        got = (report.skew_middle_pair, report.pair_exchange,
               report.first_bianchi, report.second_bianchi)
        assert got == expected
        assert report.ok == all(expected) == report.symmetrizer_fixed_point


@pytest.mark.parametrize("order,dim", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_symmetry_predicates_match_index_loops(order, dim):
    rng = random.Random(60 + 10 * order + dim)
    symmetrizer = GroupRingElement(order, [1] * len(GroupRingElement.zero(order).coeffs))
    samples = []
    for _ in range(6):
        t = random_tensor(rng, order, dim, span=2)
        samples += [t, apply_operator(symmetrizer, t)]
    if order == 2:
        samples += [random_alternating2(rng, dim), random_symmetric2(rng, dim)]
    else:
        samples += [random_symmetric3(rng, dim)]
    for t in samples:
        assert t.is_fully_symmetric() == reference_fully_symmetric(t)
        if order == 2:
            assert t.is_alternating() == reference_alternating(t)
    assert any(t.is_fully_symmetric() for t in samples)
    assert not all(t.is_fully_symmetric() for t in samples)


def test_diagnostics_failures_and_truth():
    report = is_algebraic_curvature(random_tensor(random.Random(70), 4, 2))
    assert not report and report.failures() == [
        "skew_last_pair", "pair_exchange", "first_bianchi", "symmetrizer_fixed_point"]
    assert is_acdc(DenseTensor.zero(5, 2)) and is_acdc(DenseTensor.zero(5, 2)).failures() == []


@pytest.mark.parametrize("degree,dim", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_projector_rank_is_star_invariant(degree, dim):
    # rows are the images a.e_k, the columns of the operator matrix, so the
    # rank must not change under the star involution (M(a*) = M(a)^T)
    rng = random.Random(80 + 10 * degree + dim)
    for _ in range(5):
        sparse = [c if rng.random() < 0.3 else 0 for c in random_element(rng, degree).coeffs]
        a = GroupRingElement(degree, sparse)
        assert projector_rank(a, dim) == projector_rank(a.star(), dim)


def test_projector_rank_rejects_nonpositive_dim():
    for dim in (0, -1):
        with pytest.raises(ValueError):
            projector_rank(GroupRingElement.identity(2), dim)
