import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial, perm, prod

import pytest

from conftest import (
    assert_block_sum_matches_scatter,
    direct_apply,
    direct_tensor_product,
    kernel_vectors,
    module_rank,
    random_alternating2,
    random_element,
    random_frame,
    random_symmetric2,
    random_symmetric3,
    random_tensor,
    rank_test_elements,
    sparse_element,
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
    partitions_of,
    projector_rank,
    standard_tableaux,
    symmetric_basis,
    symmetric_group,
    symmetric_order3_basis,
    t_b,
    tensor_product,
    weyl_dimension,
    young_symmetrizer,
)
from symcurv import tensor as tensor_module
from symcurv.group_ring import _swap
from symcurv.linalg import RowBasis
from symcurv.tensor import (
    _COMPILED_CELLS,
    _compiled_action,
    _curvature_annihilators,
    _slot_lookup,
    _slot_sum,
    curvature_symmetrizer_star,
    frame,
)
from symcurv.verify import class_idempotent, sigma_element


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


@pytest.mark.parametrize("position", [0, 5, 7], ids=["first", "after_ints", "last"])
def test_floats_rejected(position):
    coords = [1] * 8
    for bad in (True, 0.5, "1", None):
        coords[position] = bad
        with pytest.raises(TypeError):
            DenseTensor(3, 2, coords)
    coords[position] = Fraction(-6, 3)
    t = DenseTensor(3, 2, coords)
    assert type(t.coords[position]) is int and t.coords[position] == -2


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


def _action_operators(order):
    """Every operator family the package applies to order-r tensors, and a few more."""
    third = Fraction(1, 3)
    ops = [GroupRingElement.zero(order)]
    for shape in partitions_of(order):
        for tableau in standard_tableaux(shape):
            y = young_symmetrizer(tableau)
            ops += [y, y.star()]
    if order >= 4:
        ystar = curvature_symmetrizer_star(order - 4)
        ops += [ystar * ystar, *_curvature_annihilators(order)]
    if order == 3:
        ops += [class_idempotent(nu) for nu in (Fraction(1, 2), Fraction(-2, 3), None)]
    if order == 4:
        ops += [_slot_sum(4, ("(2 4 3)", third), ("(2 3)", -third)),
                _slot_sum(4, ("()", 2 * third), ("(2 3)", third), ("(2 4 3)", -third))]
    if order == 5:
        ops += [_slot_sum(5, ("(2 4 3)", 4), ("(1 2 4 3)", -4), ("(1 2 3)", 4), ("(2 3)", -4))]
        cases = ((0, 1, True), (Fraction(1, 2), -1, False), (None, 1, False),
                 (Fraction(-2, 3), -1, True))
        ops += [sigma_element(nu, eps, u_first) for nu, eps, u_first in cases]
    rng = random.Random(order)
    group = symmetric_group(order)
    for _ in range(3):
        ops.append(GroupRingElement.from_terms(
            order, [(rng.choice(group), rng.randint(-2, 2)) for _ in range(3)]))
    return ops


def _action_tensors(order, dim):
    """Dense, half-dense, sparse, single-entry and zero tensors of one shape."""
    rng = random.Random(10 * order + dim)
    size = dim ** order
    nonzero = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(size)]
    place = rng.sample(range(size), size)

    def keep(count):
        kept = set(place[:count])
        return DenseTensor(order, dim, [v if k in kept else 0 for k, v in enumerate(nonzero)])

    half = (size + 1) // 2  # the fewest nonzeros that take the factored path
    return [
        DenseTensor(order, dim, nonzero),
        DenseTensor(order, dim, [Fraction(v, rng.choice((1, 2, 3))) for v in nonzero]),
        keep(half),
        keep(half - 1),
        keep(max(1, size // 10)),
        DenseTensor.basis(order, dim, [rng.randint(1, dim) for _ in range(order)]),
        DenseTensor.zero(order, dim),
    ]


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_apply_operator_matches_direct_scatter(order):
    every_op = _action_operators(order)
    for dim in (1, 2, 3, 4):
        ops, tensors = every_op, _action_tensors(order, dim)
        if (order, dim) == (5, 4):
            # the oracle's Fraction sums over 1,024 coordinates take tens of
            # seconds, so Fraction tensors and coefficients are compared at dims 1-3
            ops = [a for a in ops if all(type(c) is int for c in a.coeffs)]
            del tensors[1]
        for t in tensors:
            for a in ops:
                assert _typed(apply_operator(a, t)) == _typed(direct_apply(a, t))


def test_slot_lookup_cache_is_bounded():
    # one table per (images, order, dim): sparse order-2 tensors at 69 dims
    # ask for the identity's two half tables each, 138 keys
    _slot_lookup.cache_clear()
    _compiled_action.cache_clear()
    for dim in range(2, 71):
        t = DenseTensor.basis(2, dim, (dim, 1))
        assert apply_operator(GroupRingElement.identity(2), t) == t
    assert _slot_lookup.cache_info().misses == 138
    assert _slot_lookup.cache_info().currsize == 128


def test_dense_action_splits_the_operator_once(monkeypatch):
    a = curvature_symmetrizer_star(1)
    t = random_tensor(random.Random(19), 5, 3)
    assert 2 * t.coords.count(0) <= len(t.coords)  # the dense branch
    expected = direct_apply(a, t)
    split = tensor_module._factored
    calls = []
    monkeypatch.setattr(tensor_module, "_factored", lambda op: calls.append(1) or split(op))
    _compiled_action.cache_clear()
    for _ in range(3):
        assert apply_operator(a, t) == expected
    assert len(calls) == 1
    _compiled_action.cache_clear()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_order_one_operators_act_as_scale(dim):
    # order 1 runs through the compiled action like every order; dim 1 reads
    # each gather through a one-entry slot table
    rng = random.Random(30 + dim)
    values = [rng.choice((-3, -1, 2, 3)) for _ in range(dim)]
    tensors = [DenseTensor(1, dim, values), DenseTensor(1, dim, [Fraction(v, 2) for v in values]),
               DenseTensor.basis(1, dim, [dim]), DenseTensor.from_entries(1, dim, {(1,): Fraction(-4, 3)}),
               DenseTensor.zero(1, dim)]
    for c in (0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 3)):
        a = GroupRingElement(1, [c])
        for t in tensors:
            assert _typed(apply_operator(a, t)) == _typed(t.scale(c))


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_block_sum_on_slot_tables_matches_the_scatter_oracle(order):
    identity = tuple(range(1, order + 1))
    for dim in (1, 2, 3, 4):
        rng = random.Random(60 + 10 * order + dim)
        swap = lambda i, j: _slot_lookup(_swap(identity, i, j), order, dim)
        blocks = [list(range(order)), sorted(rng.sample(range(order), 2))]
        for coeffs, canonical in kernel_vectors(rng, dim ** order):
            for block in blocks:
                for sign in (1, -1):
                    assert_block_sum_matches_scatter(coeffs, block, sign, swap, canonical)


def test_dense_branch_edge_cases():
    rng = random.Random(23)
    cases = []
    for order in (2, 3, 4, 5):
        # the zero operator has no words to gather
        dense = DenseTensor(order, 3, [rng.choice((-2, -1, 1, 2)) for _ in range(3 ** order)])
        cases.append((GroupRingElement.zero(order), dense))
        if order >= 4:
            # few distinct numerators over den 3, some of them multiples of 3
            cases.append((curvature_symmetrizer_star(order - 4).scale(Fraction(1, 3)), dense))
        # at dim 1 every slot table has one entry
        for value in (4, Fraction(-5, 3)):
            one = DenseTensor(order, 1, [value])
            ops = [GroupRingElement.zero(order), GroupRingElement.identity(order),
                   sparse_element(rng, order, 3), young_symmetrizer(standard_tableaux((order - 1, 1))[0])]
            if order >= 4:
                ops.append(curvature_symmetrizer_star(order - 4))
            cases += [(a, one) for a in ops]
        # numerators other than ±1 over den > 1, a first word at -1, on a Fraction tensor
        fractions = DenseTensor(order, 3, [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5)))
                                           for _ in range(3 ** order)])
        ops = [_slot_sum(order, ("()", Fraction(2, 3)), ("(1 2)", Fraction(-5, 3)),
                         (f"(1 {order})", Fraction(7, 2))),
               _slot_sum(order, ("()", -1), ("(1 2)", 3), (f"(1 2 {order})" if order > 2 else "(1 2)", 1)),
               sparse_element(rng, order, 4).scale(Fraction(-4, 7))]
        if order >= 4:
            ops.append(curvature_symmetrizer_star(order - 4).scale(Fraction(-5, 6)))
        cases += [(a, fractions) for a in ops]
    for a, t in cases:
        assert 2 * t.coords.count(0) <= len(t.coords)  # the dense branch
        assert _typed(apply_operator(a, t)) == _typed(direct_apply(a, t))


def _rebuilt(t):
    """t's coordinates read again by the public constructor, which makes every scalar canonical."""
    return _typed(DenseTensor(t.order, t.dim, list(t.coords)))


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_operator_outputs_are_canonical_type_for_type(order):
    rng = random.Random(80 + order)
    one = GroupRingElement.identity(order)
    swap = GroupRingElement.from_permutation(Permutation.parse("(1 2)", order))
    ops = [one.scale(Fraction(1, 2)), one + swap, one - swap.scale(3), sparse_element(rng, order, 3)]
    if order >= 4:
        ystar = curvature_symmetrizer_star(order - 4)
        ops += [ystar, ystar.scale(Fraction(1, 3))]
    for dim in (2, 3):
        size = dim ** order
        spots = {tuple(rng.randint(1, dim) for _ in range(order)) for _ in range(3)}
        tensors = [
            DenseTensor(order, dim, [rng.choice((-2, 2, 4)) for _ in range(size)]),
            DenseTensor.from_entries(order, dim, dict.fromkeys(spots, 2)),
            DenseTensor(order, dim, [Fraction(rng.choice((-1, 1, 3)), 2) for _ in range(size)]),
            DenseTensor.from_entries(order, dim, dict.fromkeys(spots, Fraction(3, 2))),
            DenseTensor.zero(order, dim),
        ]
        for t in tensors:
            for a in ops:
                out = apply_operator(a, t)
                assert type(out.coords) is tuple
                assert _typed(out) == _rebuilt(out) == _typed(direct_apply(a, t))
        # the coefficient 1/2 on a value 2 is the int 1 on both branches
        for t in tensors[:2]:
            halved = apply_operator(ops[0], t).coords
            assert 1 in halved and all(type(c) is int for c in halved)


def test_tensor_product_outputs_are_canonical_type_for_type():
    rng = random.Random(88)
    for dim in (2, 3):
        for order in (1, 2, 3):
            size = dim ** order
            spots = {tuple(rng.randint(1, dim) for _ in range(order)) for _ in range(2)}
            factors = [
                DenseTensor(order, dim, [rng.randint(-3, 3) for _ in range(size)]),
                DenseTensor.from_entries(order, dim, dict.fromkeys(spots, -2)),
                DenseTensor(order, dim, [Fraction(2 * rng.choice((-1, 1)), 3) for _ in range(size)]),
                DenseTensor(order, dim, [Fraction(3 * rng.choice((-1, 1)), 2) for _ in range(size)]),
                DenseTensor.from_entries(order, dim, dict.fromkeys(spots, Fraction(1, 2))),
                DenseTensor.zero(order, dim),
            ]
            for left in factors:
                for right in factors:
                    out = tensor_product(left, right)
                    assert type(out.coords) is tuple
                    assert _typed(out) == _rebuilt(out) == _typed(direct_tensor_product(left, right))
            # (2/3)·(3/2) = 1: every entry of the product is an int
            assert all(type(c) is int for c in tensor_product(factors[2], factors[3]).coords)


def _sparse_operators(order):
    """Operators with Fraction coefficients, and ones whose terms cancel on repeated entries."""
    rng = random.Random(40 + order)
    ops = [GroupRingElement.zero(order), GroupRingElement.identity(order)]
    ops += [sparse_element(rng, order, support) for support in (2, 4)]
    if order >= 2:
        swap = GroupRingElement.from_permutation(Permutation.parse("(1 2)", order))
        one = GroupRingElement.identity(order)
        ops += [one - swap.scale(Fraction(3, 2))]
        # an antisymmetrizer kills every index with two equal entries on its slots
        ops += [one.times_group_sum(range(1, min(order, 3) + 1), signed=True),
                one.times_group_sum(range(1, order + 1), signed=True)]
    if order == 5:
        ops += [curvature_symmetrizer_star(1), sigma_element(Fraction(-2, 3), -1, True)]
    return ops


def _sparse_tensors(order, dim):
    """Tensors with fewer than half their coordinates nonzero, the most such ones included."""
    rng = random.Random(10 * order + dim)
    size = dim ** order
    most = (size - 1) // 2  # the most nonzeros that keep the sparse path

    def keep(count, values):
        kept = set(rng.sample(range(size), count))
        return DenseTensor(order, dim, [rng.choice(values) if k in kept else 0 for k in range(size)])

    return [
        keep(most, (-3, -2, -1, 1, 2, 3)),
        keep(most, (Fraction(1, 2), Fraction(-2, 3), 1, -1)),
        keep(max(1, size // 10) if most else 0, (-2, 1, 3)),
        DenseTensor.basis(order, dim, [rng.randint(1, dim) for _ in range(order)]) if most else
        DenseTensor.zero(order, dim),
    ]


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
def test_compiled_action_matches_direct_scatter_with_a_warm_cache(order):
    for dim in (1, 2, 3, 4):
        ops, tensors = _sparse_operators(order), _sparse_tensors(order, dim)
        if dim ** order > 1024:
            # the oracle's Fraction sums over thousands of coordinates take tens of
            # seconds, so there the operators are the few-term ones
            ops = [a for a in ops if sum(1 for c in a.coeffs if c) <= 6]
        expected = [[_typed(direct_apply(a, t)) for a in ops] for t in tensors]
        for _ in range(3):  # the first round merges the patterns, the later ones reuse them
            for t, images in zip(tensors, expected):
                assert [_typed(apply_operator(a, t)) for a in ops] == images


def _pattern(j, order, dim):
    """Each slot of coordinate j names the first slot equal to it."""
    digits = []
    for _ in range(order):
        j, digit = divmod(j, dim)
        digits.insert(0, digit)
    return tuple(digits.index(d) for d in digits)


def test_compiled_patterns_are_merged_and_cancellation_free():
    ystar = curvature_symmetrizer_star(1)
    basis = coordinate_basis(5, 3)
    images = [apply_operator(ystar, b) for b in basis]
    assert sum(image.is_zero() for image in images) == 33
    patterns = _compiled_action(ystar, 3)
    split = 3 ** 3
    outputs = 0
    for j, (b, image) in enumerate(zip(basis, images)):
        assert image == direct_apply(ystar, b)
        hi, lo = divmod(j, split)
        merged = patterns[_pattern(j, 5, 3)]
        indices = [high[hi] + low[lo] for _, high, low in merged]
        assert len(set(indices)) == len(indices)
        assert all(c for c, _, _ in merged)
        assert sorted(indices) == [i for i, c in enumerate(image.coords) if c]
        outputs += len(indices)
    assert outputs == 2232  # 48 terms merge into 9.2 outputs per coordinate on average
    assert len(patterns) == 41  # Bell(5) patterns, less the 11 with more than 3 entries


def _held_cells(patterns):
    return (len(patterns.high_digits) + len(patterns.low_digits)
            + sum(1 + len(merged) for merged in patterns.values())
            + sum(len(table) for table in patterns.tables.values()))


def test_compiled_action_cache_is_bounded(monkeypatch):
    # more distinct operators than the cache holds, on a sparse tensor
    t = DenseTensor.basis(3, 3, (1, 2, 2))
    maxsize = _compiled_action.cache_info().maxsize
    swap = GroupRingElement.from_permutation(Permutation.parse("(2 3)", 3))
    for k in range(maxsize + 8):
        a = GroupRingElement.identity(3) + swap.scale(k + 1)
        assert apply_operator(a, t) == direct_apply(a, t)
        assert _compiled_action.cache_info().currsize <= maxsize
    # an operator whose patterns and tables pass its cells keeps what fits and merges the rest per call
    rng = random.Random(77)
    size = 6 ** 5
    kept = set(rng.sample(range(size), size // 2 - 1))
    t = DenseTensor(5, 6, [rng.randint(1, 3) if k in kept else 0 for k in range(size)])
    a = curvature_symmetrizer_star(1)
    expected = direct_apply(a, t)
    _compiled_action.cache_clear()
    assert apply_operator(a, t) == expected
    assert _held_cells(_compiled_action(a, 6)) == _compiled_action(a, 6).cells <= _COMPILED_CELLS
    roomy = len(_compiled_action(a, 6))
    assert roomy == 52  # every pattern of 5 slots is met on 6 values and kept
    _compiled_action.cache_clear()
    monkeypatch.setattr(tensor_module, "_COMPILED_CELLS", 2000)
    for _ in range(2):
        assert apply_operator(a, t) == expected
        patterns = _compiled_action(a, 6)
        assert _held_cells(patterns) == patterns.cells <= 2000
        assert patterns.full and len(patterns) < roomy
    _compiled_action.cache_clear()


def test_unstored_patterns_are_merged_once_per_call(monkeypatch):
    # with room for few patterns, a pattern the operator cannot keep is merged
    # once per call, not once per nonzero that has it
    rng = random.Random(78)
    size = 6 ** 5
    kept = set(rng.sample(range(size), size // 2 - 1))
    t = DenseTensor(5, 6, [rng.randint(1, 3) if k in kept else 0 for k in range(size)])
    distinct = len({_pattern(j, 5, 6) for j in kept})
    a = curvature_symmetrizer_star(1)
    expected = direct_apply(a, t)
    merges = []
    merge = tensor_module._Patterns.merge
    monkeypatch.setattr(tensor_module._Patterns, "merge",
                        lambda self, pattern, spare: merges.append(pattern) or merge(self, pattern, spare))
    monkeypatch.setattr(tensor_module, "_COMPILED_CELLS", 2000)
    _compiled_action.cache_clear()
    for _ in range(3):
        merges.clear()
        assert apply_operator(a, t) == expected
        assert len(set(merges)) == len(merges) <= distinct
    assert _compiled_action(a, 6).full
    assert 0 < len(merges) == distinct - len(_compiled_action(a, 6))
    _compiled_action.cache_clear()


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


def _product_factors(rng, order, dim):
    """Int, Fraction and zero tensors of one shape, and a pair of Fraction
    tensors whose entrywise products are all integral: 3v/2 times 2w/3."""
    size = dim ** order
    ints = [rng.randint(-3, 3) for _ in range(size)]
    return (
        [DenseTensor(order, dim, ints),
         DenseTensor(order, dim, [Fraction(v, rng.choice((1, 2, 3))) for v in ints]),
         DenseTensor.zero(order, dim)],
        DenseTensor(order, dim, [Fraction(3 * rng.choice((-1, 1, 3)), 2) if v else 0 for v in ints]),
        DenseTensor(order, dim, [Fraction(2 * rng.choice((-2, 1, 5)), 3) if v else 0 for v in ints]),
    )


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_tensor_product_matches_dense_loop(dim):
    rng = random.Random(40 + dim)
    for left_order in (1, 2, 3):
        for right_order in (1, 2, 3):
            left, halves, _ = _product_factors(rng, left_order, dim)
            right, _, thirds = _product_factors(rng, right_order, dim)
            for a in left:
                for b in right:
                    assert _typed(tensor_product(a, b)) == _typed(direct_tensor_product(a, b))
            # 3v/2 * 2w/3 = vw: every entry of the product is an int
            product = tensor_product(halves, thirds)
            assert _typed(product) == _typed(direct_tensor_product(halves, thirds))
            assert all(type(c) is int for c in product.coords)
            assert any(type(c) is Fraction for c in halves.coords + thirds.coords)


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


def test_projector_rank_at_degree_8():
    assert projector_rank(GroupRingElement.zero(7), 7) == 0
    assert projector_rank(GroupRingElement.zero(8), 4) == 0
    # a dense degree-8 element is invertible, so it acts on the 2^8 tensors bijectively
    assert projector_rank(random_element(random.Random(88), 8), 2) == 2 ** 8


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


# -- index-loop oracles for the group-ring routes -------------------------------
#
# The identity checks and the closed-form generators used to be written as
# loops over every index; they are kept here as an independent reference for
# the group-ring elements that replaced them.


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


def reference_gamma(s):
    n = s.dim
    third = Fraction(1, 3)
    entries = {}
    for i, j, k, l in _indices(4, n):
        v = third * (s[(i, l)] * s[(j, k)] - s[(i, k)] * s[(j, l)])
        if v:
            entries[(i, j, k, l)] = v
    return DenseTensor.from_entries(4, n, entries)


def reference_alpha(a):
    n = a.dim
    third = Fraction(1, 3)
    entries = {}
    for i, j, k, l in _indices(4, n):
        v = third * (2 * a[(i, j)] * a[(k, l)] + a[(i, k)] * a[(j, l)] - a[(i, l)] * a[(j, k)])
        if v:
            entries[(i, j, k, l)] = v
    return DenseTensor.from_entries(4, n, entries)


def reference_gamma_hat(s, s3):
    n = s.dim
    entries = {}
    for i, j, k, l, m in _indices(5, n):
        v = 4 * (
            s[(i, l)] * s3[(j, k, m)]
            - s[(j, l)] * s3[(i, k, m)]
            + s[(j, k)] * s3[(i, l, m)]
            - s[(i, k)] * s3[(j, l, m)]
        )
        if v:
            entries[(i, j, k, l, m)] = v
    return DenseTensor.from_entries(5, n, entries)


def _typed(t):
    return [(type(c), c) for c in t.coords]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_generators_match_index_loops(dim):
    rng = random.Random(90 + dim)
    inputs = [(DenseTensor.zero(2, dim), DenseTensor.zero(2, dim), DenseTensor.zero(3, dim))]
    for scale in (1, 1, Fraction(1, 2), Fraction(-2, 3)):
        inputs.append((random_symmetric2(rng, dim).scale(scale),
                       random_alternating2(rng, dim).scale(scale),
                       random_symmetric3(rng, dim).scale(scale)))
    for s, a, w in inputs:
        assert _typed(gamma(s)) == _typed(reference_gamma(s))
        assert _typed(alpha(a)) == _typed(reference_alpha(a))
        assert _typed(gamma_hat(s, w)) == _typed(reference_gamma_hat(s, w))


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


# -- dense oracle for the weight-space route -----------------------------------


def dense_projector_rank(a, dim):
    """Rank of T -> aT by eliminating all dim**r images a.e_k."""
    basis = RowBasis()
    for idx in itertools.product(range(1, dim + 1), repeat=a.degree):
        basis.add(enumerate(apply_operator(a, DenseTensor.basis(a.degree, dim, idx)).coords))
    return basis.rank


@pytest.mark.parametrize("degree,dim", [(2, 2), (2, 6), (3, 3), (3, 4), (4, 2), (4, 3),
                                        (5, 2), (5, 3), (5, 4)])
def test_projector_rank_matches_dense_elimination(degree, dim):
    # full-rank elements only where the oracle's dim**r rows stay cheap
    elements = rank_test_elements(random.Random(100 * degree + dim), degree, dim ** degree <= 243)
    ranks = [projector_rank(a, dim) for a in elements]
    assert ranks == [dense_projector_rank(a, dim) for a in elements]
    assert len(set(ranks)) > 1


@pytest.mark.parametrize("u", [0, 1, 2, 3, 4])
def test_projector_rank_of_curvature_class_is_weyl_dimension(u):
    # degree 8 is the costliest class, so u = 4 samples four dims, n >= 5 among them
    ystar = curvature_symmetrizer_star(u)
    for dim in (1, 2, 5, 10) if u == 4 else range(1, 7):
        assert projector_rank(ystar, dim) == weyl_dimension((u + 2, 2), dim)


def test_right_ideal_rank_of_degree8_curvature_class():
    # y* generates one copy of the (6 2) block: f^(6 2) = 20
    assert curvature_symmetrizer_star(4).right_ideal_rank() == 20


def weight_space_projector_rank(a, dim, module_ranks):
    """Σ over λ with at most dim parts of (weight spaces of content λ) · rank on M^λ."""
    return sum(perm(dim, len(shape)) // prod(map(factorial, Counter(shape).values())) * k
               for shape, k in module_ranks.items() if len(shape) <= dim)


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_block_ranks_match_weight_space_elimination(degree):
    # a full-rank element costs the oracle seconds on the 720 words of degree 6
    ranks = []
    for a in rank_test_elements(random.Random(200 + degree), degree, degree < 6):
        module_ranks = {shape: module_rank(a, shape) for shape in partitions_of(degree)}
        assert a.right_ideal_rank() == module_ranks[(1,) * degree]
        for dim in range(1, degree + 2):
            assert projector_rank(a, dim) == weight_space_projector_rank(a, dim, module_ranks)
        ranks.append(module_ranks[(1,) * degree])
    assert len(set(ranks)) > 1
