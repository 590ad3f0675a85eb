import random
from fractions import Fraction
from itertools import compress
from math import lcm

import pytest

from conftest import DenseRowBasis, RescaledRowBasis, fraction_mat_mul, solve_columns
from symcurv import linalg
from symcurv.linalg import (
    RowBasis,
    identity_matrix,
    mat_add,
    mat_mul,
    mat_transpose,
    matrix,
    rank_of_rows,
    trace_of_product,
)
from symcurv.rationals import as_rational


def test_rank_of_simple_rows():
    rows = [
        [1, 2, 3],
        [2, 4, 6],
        [Fraction(1, 2), 1, Fraction(3, 2)],
        [0, 1, 1],
    ]
    assert rank_of_rows(rows) == 2


def test_rank_empty_and_zero():
    assert rank_of_rows([]) == 0
    assert rank_of_rows([[0, 0], [0, 0]]) == 0


def test_row_basis_membership():
    basis = RowBasis()
    assert basis.add([(0, 1), (2, 1)])
    assert basis.add([(1, 1), (2, 1)])
    assert not basis.add([(0, 1), (1, 1), (2, 2)])
    assert basis.contains([(0, Fraction(1, 3)), (1, Fraction(1, 3)), (2, Fraction(2, 3))])
    assert not basis.contains([(0, 1)])
    assert basis.rank == 2


def _oracle_rows(rng, width):
    """Seeded rational rows with zero, repeated and dependent rows mixed in."""
    rows = []
    for _ in range(rng.randint(1, width + 4)):
        kind = rng.random()
        if kind < 0.1:
            row = [0] * width
        elif kind < 0.25 and rows:
            row = list(rng.choice(rows))
        elif kind < 0.4 and len(rows) > 1:
            a, b = rng.sample(rows, 2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            row = [x + c * y for x, y in zip(a, b)]
        else:
            row = [0 if rng.random() < 0.4 else
                   Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 7]))
                   for _ in range(width)]
            # Fraction(k, 1) entries, as sums of Fractions produce
            row = [Fraction(x) if rng.random() < 0.3 else as_rational(x) for x in row]
            lead = next((i for i, x in enumerate(row) if x), None)
            if lead is not None and rng.random() < 0.5:
                row[lead] = -abs(row[lead])
        rows.append(row)
    return rows


@pytest.mark.parametrize("width", range(1, 41))
def test_row_basis_matches_dense_oracle(width):
    rng = random.Random(7000 + width)
    for _ in range(3):
        rows = _oracle_rows(rng, width)
        sparse, dense = RowBasis(), DenseRowBasis(width)
        kept = [sparse.add(enumerate(row)) for row in rows]
        assert kept == [dense.add(row) for row in rows]
        assert sparse.rank == dense.rank == rank_of_rows(rows)
        assert [[r.get(i, 0) for i in range(width)] for r in sparse.rows] == dense.rows
        assert all(0 not in r.values() for r in sparse.rows)


def test_row_basis_sparse_pairs():
    basis = RowBasis()
    assert not basis.add([(0, 0), (2, Fraction(0))])
    assert not basis.add([])
    # unsorted pairs with gaps: primitive, pivot at the lowest column, made positive
    assert basis.add([(5, 2), (1, -4), (3, 6)])
    assert basis.rows == ({1: 2, 3: -3, 5: -1},)
    # an explicit zero value stores nothing at its column
    assert basis.add(iter([(10**9, Fraction(1, 2)), (7, 0), (0, 1)]))
    assert basis.rows[1] == {0: 2, 10**9: 1}
    assert basis.contains([(10**9, 3), (0, 6)])
    assert not basis.contains([(10**9, 1)])
    assert basis.add([(10**9, 1)])
    assert basis.rows[2] == {10**9: 1}
    assert basis.contains([(5, -7), (1, 14), (0, Fraction(-2, 5)), (3, -21), (10**9, 3)])
    assert not basis.contains([(3, 1)])
    assert basis.rank == 3


def _mixed_rows(rng, width):
    """Seeded rows of ints, canonical Fractions and Fraction(k, 1), with dependent rows mixed in."""
    rows = []
    for _ in range(rng.randint(1, width + 4)):
        kind = rng.random()
        if kind < 0.2 and rows:
            k = rng.choice((-2, -1, 2, 3))
            row = [k * x for x in rng.choice(rows)]
        elif kind < 0.35 and len(rows) > 1:
            a, b = rng.sample(rows, 2)
            row = [x + rng.randint(-2, 2) * y for x, y in zip(a, b)]
        else:
            row = [0 if rng.random() < 0.5 else rng.randint(-6, 6) for _ in range(width)]
            style = rng.random()
            if style < 0.3:
                row = [Fraction(x, rng.choice((2, 3))) if rng.random() < 0.3 else x for x in row]
            elif style < 0.5:
                # Fraction(k, 1) entries, as sums of Fractions produce
                row = [Fraction(x) if rng.random() < 0.3 else x for x in row]
        rows.append(row)
    return rows


def _typed_rows(basis):
    return [[(i, type(x), x) for i, x in row.items()] for row in basis.rows]


@pytest.mark.parametrize("width", range(1, 31))
def test_row_basis_matches_rescaling_oracle(width):
    rng = random.Random(7100 + width)
    feeds = (enumerate, lambda row: compress(enumerate(row), row))
    for _ in range(3):
        rows = _mixed_rows(rng, width)
        oracle = RescaledRowBasis()
        kept = [oracle.add(enumerate(row)) for row in rows]
        probes = _mixed_rows(rng, width)
        for feed in feeds:
            basis = RowBasis()
            assert [basis.add(feed(row)) for row in rows] == kept
            assert basis.rank == oracle.rank
            assert _typed_rows(basis) == _typed_rows(oracle)
            for row in probes:
                residual, expected = basis.residual(feed(row)), oracle.residual(enumerate(row))
                assert residual == expected
                assert residual is None or {int} == set(map(type, residual.values()))


@pytest.mark.parametrize("row", [[0.5], ["1", 2], [True, 1], [1, 2.0], [Fraction(1, 2), True], [3, "4/5"],
                                 [0.0, 1], [False, 1], ["", 1], [None, 1]])
def test_row_basis_refuses_non_rational_entries(row):
    with pytest.raises(TypeError):
        rank_of_rows([row])
    with pytest.raises(TypeError):
        RowBasis().add(enumerate(row))
    basis = RowBasis()
    assert basis.add([(0, 1), (1, 1)])
    with pytest.raises(TypeError):
        basis.contains(enumerate(row))
    assert basis.rank == 1


def test_solve_columns_exact():
    a = [[1, 2], [3, 4], [5, 6]]
    x = [[Fraction(1, 3), 2], [5, Fraction(-1, 2)]]
    b = mat_mul(matrix(a), matrix(x))
    solved = solve_columns(a, [list(row) for row in b])
    assert matrix(solved) == matrix(x)


def test_solve_columns_rejects_deficient():
    with pytest.raises(ValueError):
        solve_columns([[1, 2], [2, 4]], [[1, 0], [2, 0]])


def test_trace_of_product_matches_full_product():
    a = matrix([[1, 2], [3, Fraction(1, 5)]])
    b = matrix([[0, 1], [Fraction(2, 7), 4]])
    full = mat_mul(a, b)
    assert trace_of_product(a, b) == full[0][0] + full[1][1]


def test_trace_of_product_and_mat_add_reject_mismatched_shapes():
    with pytest.raises(ValueError):
        trace_of_product(((1, 2, 3),), ((1,), (2,)))  # 1 x 3 times 2 x 1
    with pytest.raises(ValueError):
        trace_of_product(((1, 2),), ((1,), (2, 3)))  # ragged right factor
    with pytest.raises(ValueError):
        trace_of_product(((1, 2), (3,)), ((1, 2), (3, 4)))  # ragged left factor
    with pytest.raises(ValueError):
        mat_add(((1, 2),), ((1,),))  # row lengths 2 and 1
    with pytest.raises(ValueError):
        mat_add(((1,), (2,)), ((1,),))  # heights 2 and 1
    assert trace_of_product(((1, 2, 3),), ((1,), (2,), (3,))) == 14
    assert mat_add(((1, 2),), ((3, Fraction(1, 2)),)) == ((4, Fraction(5, 2)),)


def _random_matrix(rng, rows, cols, zeros=False):
    if zeros:
        return tuple((0,) * cols for _ in range(rows))
    return matrix([[Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 7, 12]))
                    for _ in range(cols)] for _ in range(rows)])


def _mat_mul_cases():
    rng = random.Random(17)
    shapes = [(1, 1, 1), (2, 2, 2), (5, 5, 5), (16, 16, 16), (1, 3, 1), (3, 1, 4), (2, 5, 3), (6, 2, 1)]
    for n, k, m in shapes:
        yield _random_matrix(rng, n, k), _random_matrix(rng, k, m)
        yield _random_matrix(rng, n, k, zeros=True), _random_matrix(rng, k, m)
        yield _random_matrix(rng, n, k), _random_matrix(rng, k, m, zeros=True)
        # integral products: an integer factor times a fractional one, or den·I times a
        a = _random_matrix(rng, k, m)
        den = lcm(*(x.denominator for row in a for x in row))
        yield matrix([[rng.randint(-5, 5) * den for _ in range(k)] for _ in range(n)]), a
        yield matrix([[den if i == j else 0 for j in range(k)] for i in range(k)]), a
    yield identity_matrix(4), identity_matrix(4)
    yield (), ()


def test_mat_mul_matches_fraction_oracle():
    integral = 0
    for a, b in _mat_mul_cases():
        product, expected = mat_mul(a, b), fraction_mat_mul(a, b)
        assert product == expected
        assert [list(map(type, row)) for row in product] == [list(map(type, row)) for row in expected]
        assert not any(isinstance(x, Fraction) and x.denominator == 1 for row in product for x in row)
        integral += bool(product) and all(isinstance(x, int) for row in product for x in row)
    assert integral >= 16


def test_mat_mul_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        mat_mul(((1, 2, 3),), ((1,), (2,)))  # inner dimensions 3 and 2
    with pytest.raises(ValueError):
        mat_mul(((1, 2),), ((1,), (2, 3)))  # ragged right factor
    with pytest.raises(ValueError):
        mat_mul(((1, 2), (3,)), ((1,), (2,)))  # ragged left factor


@pytest.mark.parametrize("a,b", [(((0.5,),), ((1,),)), (((1,),), ((2.0,),)), (((True,),), ((1,),))])
def test_mat_mul_rejects_floats_and_bools(a, b):
    with pytest.raises(TypeError):
        mat_mul(a, b)


def test_transpose_identity():
    m = identity_matrix(3)
    assert mat_transpose(m) == m


def test_unitriangular_solve_columns_exact():
    a = [[1, 0, 0], [2, 1, 0], [-1, 3, 1]]
    x = [[1, -2], [0, 5], [4, 1]]
    b = mat_mul(matrix(a), matrix(x))
    solved = linalg.solve_columns(a, b)
    assert solved == x
    assert all(isinstance(v, int) for row in solved for v in row)


def test_unitriangular_solve_columns_rejects_other_matrices():
    for a in ([[2, 0], [1, 1]], [[1, 1], [0, 1]]):
        with pytest.raises(ArithmeticError):
            linalg.solve_columns(a, [[1], [1]])
