"""The contract shared by the package's value types: immutable, equal by value, hashable, picklable."""

import copy
import pickle
from fractions import Fraction

import pytest

from symcurv import BlockMatrixImage, DenseTensor, GroupRingElement, Permutation, YoungTableau

FIELDS = {
    "Permutation": ("images",),
    "YoungTableau": ("rows",),
    "GroupRingElement": ("degree", "coeffs"),
    "DenseTensor": ("order", "dim", "coords"),
    "BlockMatrixImage": ("degree", "blocks"),
}

# Two equal values per type, built from different input forms, so that
# normalization (generators, lists, Fraction(k, 1)) is part of what is compared.
EQUAL_PAIRS = {
    "Permutation": (Permutation([2, 3, 1]), Permutation(v for v in (2, 3, 1))),
    "YoungTableau": (YoungTableau([[1, 3], [2]]), YoungTableau(((1, 3), (2,)))),
    "GroupRingElement": (GroupRingElement(2, [1, Fraction(1, 2)]),
                         GroupRingElement(2, (Fraction(2, 2), Fraction(1, 2)))),
    "DenseTensor": (DenseTensor(2, 2, [1, 0, 0, Fraction(1, 3)]),
                    DenseTensor(2, 2, (Fraction(3, 3), 0, 0, Fraction(1, 3)))),
    "BlockMatrixImage": (BlockMatrixImage.one(3),
                         BlockMatrixImage(3, [[[1]], [[1, 0], [0, Fraction(4, 4)]], [[1]]])),
}


@pytest.mark.parametrize("name", list(EQUAL_PAIRS))
def test_value_types_refuse_every_assignment(name):
    value, _ = EQUAL_PAIRS[name]
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("name", list(EQUAL_PAIRS))
def test_equal_values_hash_equal(name):
    first, second = EQUAL_PAIRS[name]
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize("name", list(EQUAL_PAIRS))
@pytest.mark.parametrize("duplicate", [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_value_types_pickle_and_copy(name, duplicate):
    for value in EQUAL_PAIRS[name]:
        twin = duplicate(value)
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert all(getattr(twin, field) == getattr(value, field) for field in FIELDS[name])


def test_values_of_different_types_are_unequal():
    element, tensor = GroupRingElement(1, (1,)), DenseTensor(1, 1, (1,))
    assert element != tensor and tensor != element
    assert Permutation([1]) != (1,) and YoungTableau([[1]]) != ((1,),)


def test_permutations_sort_by_degree_first():
    perms = [Permutation([2, 1, 3]), Permutation([1]), Permutation([2, 1]), Permutation([1, 2, 3])]
    assert sorted(perms) == [Permutation([1]), Permutation([2, 1]),
                             Permutation([1, 2, 3]), Permutation([2, 1, 3])]


# Two vectors of one shape and one of another shape per ExactVector type, with their coefficient lists.
VECTORS = {
    "GroupRingElement": (lambda values: GroupRingElement(2, values), [1, Fraction(-1, 2)], [Fraction(1, 3), 2],
                         GroupRingElement(3, [0] * 6)),
    "DenseTensor": (lambda values: DenseTensor(2, 2, values), [1, 0, Fraction(-1, 2), 3], [0, Fraction(1, 3), 2, -3],
                    DenseTensor(2, 3, [0] * 9)),
}


def _values(v):
    return v.coeffs if isinstance(v, GroupRingElement) else v.coords


@pytest.mark.parametrize("name", list(VECTORS))
def test_exact_vector_arithmetic(name):
    build, x, y, _ = VECTORS[name]
    a, b = build(x), build(y)
    assert a + b == build([p + q for p, q in zip(x, y)])
    assert a - b == build([p - q for p, q in zip(x, y)])
    assert -a == build([-p for p in x])
    assert a.scale(Fraction(2, 3)) == build([Fraction(2, 3) * p for p in x])
    assert 3 * a == Fraction(3) * a == a.scale(3) and type(3 * a) is type(a)
    # every entry of 3*b is integral, and sums come back canonical: ints, not Fraction(k, 1)
    assert [type(c) for c in _values(b + b + b)] == [int] * len(y)
    assert (a - a).is_zero() and not a.is_zero() and (0 * a).is_zero()


@pytest.mark.parametrize("name", list(VECTORS))
def test_exact_vector_refuses_other_types_and_shapes(name):
    build, x, _, other_shape = VECTORS[name]
    a = build(x)
    for other in (1, "a", (1, 2)) + tuple(pair[0] for n, pair in EQUAL_PAIRS.items() if n != name):
        assert a.__add__(other) is NotImplemented and a.__sub__(other) is NotImplemented
        with pytest.raises(TypeError):
            a + other
        with pytest.raises(TypeError):
            a - other
    assert a.__rmul__(1.5) is NotImplemented and a.__rmul__("a") is NotImplemented
    for bad in (1.5, True):
        with pytest.raises(TypeError):
            a.scale(bad)
    for op in (lambda: a + other_shape, lambda: a - other_shape, lambda: other_shape - a):
        with pytest.raises(ValueError, match="mismatch"):
            op()


@pytest.mark.parametrize("name", list(VECTORS))
def test_exact_vector_json_round_trip(name):
    build, x, y, other_shape = VECTORS[name]
    for v in (build(x), build(y), build(x) - build(x), other_shape):
        twin = type(v).from_json(v.to_json())
        assert twin == v and [type(c) for c in _values(twin)] == [type(c) for c in _values(v)]
