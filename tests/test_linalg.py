from fractions import Fraction

import pytest

from conftest import solve_columns
from symcurv import linalg
from symcurv.linalg import (
    RowBasis,
    identity_matrix,
    mat_mul,
    mat_transpose,
    matrix,
    rank_of_rows,
    trace_of_product,
)


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
    basis = RowBasis(3)
    assert basis.add([1, 0, 1])
    assert basis.add([0, 1, 1])
    assert not basis.add([1, 1, 2])
    assert basis.contains([Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)])
    assert not basis.contains([1, 0, 0])
    assert basis.rank == 2


def test_row_basis_rejects_bad_width():
    basis = RowBasis(2)
    with pytest.raises(ValueError):
        basis.add([1, 2, 3])


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
