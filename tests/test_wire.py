"""The JSON wire formats: strict reading at the boundary, exit 2 on bad input."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symcurv import DenseTensor, GroupRingElement, Permutation
from symcurv.cli import main
from symcurv.rationals import wire_scalar

ELEMENT = {"degree": 2, "terms": [{"perm": [2, 1], "coeff": "1/2"}]}
TENSOR = {"order": 2, "dim": 2, "coords": [{"idx": [1, 2], "val": "-2/7"}]}


def _with(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


BAD_ELEMENTS = {
    "array_document": [1, 2],
    "string_document": "[2,1]",
    "float_coeff": _with(ELEMENT, ("terms", 0, "coeff"), 0.5),
    "bool_coeff": _with(ELEMENT, ("terms", 0, "coeff"), True),
    "float_perm_entry": _with(ELEMENT, ("terms", 0, "perm"), [2.0, 1]),
    "bool_perm_entry": _with(ELEMENT, ("terms", 0, "perm"), [True, 2]),
    "float_degree": _with(ELEMENT, ("degree",), 2.0),
    "degree_beyond_cap": _with(ELEMENT, ("degree",), 9),
    "terms_not_array": _with(ELEMENT, ("terms",), {"perm": [2, 1]}),
    "bad_rational_string": _with(ELEMENT, ("terms", 0, "coeff"), "1/0"),
}

BAD_TENSORS = {
    "array_document": [1, 2],
    "float_val": _with(TENSOR, ("coords", 0, "val"), 1.25),
    "bool_val": _with(TENSOR, ("coords", 0, "val"), False),
    "float_index": _with(TENSOR, ("coords", 0, "idx"), [1.0, 2]),
    "bool_index": _with(TENSOR, ("coords", 0, "idx"), [True, 2]),
    "string_index": _with(TENSOR, ("coords", 0, "idx"), ["1", "2"]),
    "bool_dim": _with(TENSOR, ("dim",), True),
    "coordinate_not_object": _with(TENSOR, ("coords", 0), [1, 2]),
    "duplicate_coordinate": _with(TENSOR, ("coords",), [
        {"idx": [1, 2], "val": "1"}, {"idx": [1, 2], "val": "2"}]),
}


@pytest.mark.parametrize("case", sorted(BAD_ELEMENTS))
def test_bad_element_document_exits_2(case, tmp_path, capsys):
    path = tmp_path / "element.json"
    path.write_text(json.dumps(BAD_ELEMENTS[case]))
    with pytest.raises(ValueError):
        GroupRingElement.from_dict(BAD_ELEMENTS[case])
    assert main(["rank", "--element", str(path), "--dim", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("case", sorted(BAD_TENSORS))
def test_bad_tensor_document_exits_2(case, tmp_path, capsys):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(BAD_TENSORS[case]))
    with pytest.raises(ValueError):
        DenseTensor.from_dict(BAD_TENSORS[case])
    assert main(["check-tensor", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_good_documents_are_read_exactly():
    element = GroupRingElement.from_dict(ELEMENT)
    assert element.coefficient(Permutation([2, 1])) == Fraction(1, 2)
    assert GroupRingElement.from_dict(_with(ELEMENT, ("terms", 0, "coeff"), -3)).coeffs == (0, -3)
    tensor = DenseTensor.from_dict(TENSOR)
    assert tensor[(1, 2)] == Fraction(-2, 7)
    assert DenseTensor.from_dict({"order": 1, "dim": 2}) == DenseTensor.zero(1, 2)


def test_wire_scalar_rules():
    assert wire_scalar(3, "x") == 3
    assert wire_scalar("-4/6", "x") == Fraction(-2, 3)
    assert wire_scalar("6/3", "x") == 2 and isinstance(wire_scalar("6/3", "x"), int)
    for bad in (0.5, True, None, [1], "pi"):
        with pytest.raises(ValueError):
            wire_scalar(bad, "x")
    with pytest.raises(ValueError):
        wire_scalar("3", "x", integer=True)


_rationals = st.fractions(max_denominator=50).map(lambda q: int(q) if q.denominator == 1 else q)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda r: st.tuples(st.just(r), st.lists(_rationals, min_size=len(GroupRingElement.zero(r).coeffs),
                                             max_size=len(GroupRingElement.zero(r).coeffs)))))
def test_element_wire_round_trip(case):
    degree, coeffs = case
    element = GroupRingElement(degree, coeffs)
    assert GroupRingElement.from_json(element.to_json()) == element


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda shape: st.tuples(st.just(shape), st.lists(_rationals, min_size=shape[1] ** shape[0],
                                                     max_size=shape[1] ** shape[0]))))
def test_tensor_wire_round_trip(case):
    (order, dim), coords = case
    tensor = DenseTensor(order, dim, coords)
    assert DenseTensor.from_json(tensor.to_json()) == tensor
