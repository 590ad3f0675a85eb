from fractions import Fraction

from hypothesis import given, strategies as st
import pytest

from symcurv.permutation import Permutation, perm_rank, symmetric_group


def perm_strategy(degree):
    return st.permutations(list(range(1, degree + 1))).map(Permutation)


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([1, 1, 2])
    with pytest.raises(ValueError):
        Permutation([0, 1])
    with pytest.raises(ValueError):
        Permutation([])


@pytest.mark.parametrize("images", [[2.7, 1], [2.0, 1], ["2", "1"], [True, 2], [Fraction(2), 1]], ids=repr)
def test_rejects_non_int_images(images):
    # int() would truncate 2.7 to 2 and read True as 1
    with pytest.raises(ValueError, match="must be ints"):
        Permutation(images)


def test_transposition_and_cycles_reject_non_int_points():
    for build in (lambda: Permutation.transposition(3, 1.0, 2), lambda: Permutation.transposition(3, True, 2),
                  lambda: Permutation.from_cycles(3, [[1.0, 2]]), lambda: Permutation.from_cycles(3, [["1", "2"]])):
        with pytest.raises(ValueError):
            build()


def test_compose_identity_law():
    p = Permutation([2, 3, 1])
    assert Permutation.identity(3) * p == p
    assert p * Permutation.identity(3) == p


def test_compose_hand_evaluated():
    # (p*q)(i) = p(q(i)), worked pointwise by hand
    assert Permutation([2, 1, 3]) * Permutation([1, 3, 2]) == Permutation([2, 3, 1])


def test_compose_involution():
    t = Permutation([3, 2, 1])
    assert t * t == Permutation.identity(3)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        Permutation([2, 1]) * Permutation([1, 2, 3])


def test_inverse_examples():
    assert Permutation([1, 2, 3]).inverse() == Permutation([1, 2, 3])
    # solve p(i) = j pointwise: 1->2, 2->3, 3->1 inverts to 1->3, 2->1, 3->2
    assert Permutation([2, 3, 1]).inverse() == Permutation([3, 1, 2])
    assert Permutation([2, 1, 3]).inverse() == Permutation([2, 1, 3])


def test_sign_examples():
    assert Permutation.identity(4).sign() == 1
    assert Permutation([2, 1, 3]).sign() == -1
    assert Permutation([2, 3, 1]).sign() == 1


@given(st.integers(2, 5).flatmap(lambda r: st.tuples(*[perm_strategy(r)] * 3)))
def test_composition_associative(triple):
    p, q, s = triple
    assert (p * q) * s == p * (q * s)


@given(st.integers(2, 5).flatmap(lambda r: st.tuples(perm_strategy(r), perm_strategy(r))))
def test_inverse_antihomomorphism(pair):
    p, q = pair
    assert (p * q).inverse() == q.inverse() * p.inverse()
    assert p * p.inverse() == Permutation.identity(p.degree)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_sign_homomorphism_exhaustive(degree):
    group = symmetric_group(degree)
    signs = {p: p.sign() for p in group}
    for p in group:
        for q in group:
            assert signs[p] * signs[q] == (p * q).sign()


def test_enumeration_is_lexicographic():
    group = symmetric_group(3)
    assert [p.images for p in group] == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    ]
    assert [perm_rank(p) for p in group] == list(range(6))


def test_cycle_parsing_and_printing():
    p = Permutation.parse("(1 3)", degree=3)
    assert p == Permutation([3, 2, 1])
    q = Permutation.parse("(1 2)(3 4)", degree=5)
    assert q == Permutation([2, 1, 4, 3, 5])
    assert Permutation.parse("[2,1,3]") == Permutation([2, 1, 3])
    assert q.cycle_string() == "(1 2)(3 4)"
    assert Permutation.identity(3).cycle_string() == "()"


@pytest.mark.parametrize("text, degree", [("(1 2", 4), ("(1 2) junk", 4), ("[2,1", None)])
def test_parse_refuses_malformed_text(text, degree):
    with pytest.raises(ValueError):
        Permutation.parse(text, degree)


def test_parse_accepts_the_identity_and_fixed_point_cycles():
    assert Permutation.parse("()", 3) == Permutation.identity(3)
    assert Permutation.parse("(1)(2 3)", 3) == Permutation([1, 3, 2])


def test_one_line_repr_round_trips():
    p = Permutation([3, 1, 2])
    assert Permutation.parse(repr(p)) == p


def test_from_cycles_rejects_overlap():
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [(1, 2), (2, 3)])


def test_fixed_points():
    assert Permutation([2, 1, 3, 4, 5]).fixed_points() == (3, 4, 5)
