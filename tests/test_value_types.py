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
