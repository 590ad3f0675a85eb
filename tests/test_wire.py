"""The JSON wire formats: strict reading at the boundary, exit 2 on bad input."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symcurv import DenseTensor, GroupRingElement, Permutation
from symcurv.cli import main
from symcurv.rationals import parse_rational, wire_scalar

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
    "duplicate_term": _with(ELEMENT, ("terms",), [
        {"perm": [1, 2], "coeff": "1"}, {"perm": [1, 2], "coeff": "1"}]),
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


# the degree is checked once, by the constructor the reader ends in, before it allocates
DEGREES_OUT_OF_RANGE = {
    "degree_0_no_terms": {"degree": 0, "terms": []},
    "degree_30_one_term": _with(ELEMENT, ("degree",), 30),
}


@pytest.mark.parametrize("case", sorted(DEGREES_OUT_OF_RANGE))
def test_element_degree_out_of_range_exits_2(case, tmp_path, capsys):
    path = tmp_path / "element.json"
    path.write_text(json.dumps(DEGREES_OUT_OF_RANGE[case]))
    with pytest.raises(ValueError, match=r"degree must be in 1\.\.8"):
        GroupRingElement.from_dict(DEGREES_OUT_OF_RANGE[case])
    assert main(["rank", "--element", str(path), "--dim", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: degree must be in 1..8") and err.count("\n") == 1


def test_duplicate_term_is_refused_by_every_reader(tmp_path, capsys):
    path = tmp_path / "element.json"
    path.write_text(json.dumps(BAD_ELEMENTS["duplicate_term"]))
    with pytest.raises(ValueError, match=r"duplicate permutation \[1, 2\]"):
        GroupRingElement.from_dict(BAD_ELEMENTS["duplicate_term"])
    assert main(["fourier", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: duplicate permutation") and err.count("\n") == 1
    # the Python constructor still sums repeated terms
    assert GroupRingElement.from_terms(2, [([1, 2], 1), ([1, 2], 1)]).coeffs == (2, 0)


# every required field, dropped in turn: (document, path to the field, the object the message names)
MISSING_FIELDS = {
    "element_degree": (ELEMENT, ("degree",), "element"),
    "term_perm": (ELEMENT, ("terms", 0, "perm"), "term"),
    "term_coeff": (ELEMENT, ("terms", 0, "coeff"), "term"),
    "tensor_order": (TENSOR, ("order",), "tensor"),
    "tensor_dim": (TENSOR, ("dim",), "tensor"),
    "coordinate_idx": (TENSOR, ("coords", 0, "idx"), "coordinate"),
    "coordinate_val": (TENSOR, ("coords", 0, "val"), "coordinate"),
}


@pytest.mark.parametrize("case", sorted(MISSING_FIELDS))
def test_missing_field_is_named_and_exits_2(case, tmp_path, capsys):
    source, path, what = MISSING_FIELDS[case]
    kind, command = (GroupRingElement, "fourier") if source is ELEMENT else (DenseTensor, "check-tensor")
    doc = json.loads(json.dumps(source))
    target = doc
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    message = f"{what} has no field {path[-1]!r}"
    with pytest.raises(ValueError) as excinfo:
        kind.from_dict(doc)
    assert str(excinfo.value) == message
    file = tmp_path / "document.json"
    file.write_text(json.dumps(doc))
    assert main([command, str(file)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# documents with two faults: the shape is checked before any entry, and each permutation
# before the repeat check and its coefficient, so the first message is the one shown
TWO_FAULTS = {
    "order_then_index": (DenseTensor, _with(_with(TENSOR, ("order",), 9), ("coords", 0, "idx"), [1.5]),
                         "order must be in 1..8, got 9"),
    "dim_then_missing_idx": (DenseTensor, {"order": 2, "dim": 0, "coords": [{"val": 1}]},
                             "need dim >= 1 and dim**2 <= 1048576, got dim 0"),
    "bijection_then_repeat": (GroupRingElement, {"degree": 2, "terms": [{"perm": [1, 1], "coeff": 1}] * 2},
                              "not a bijection of 1..2: [1, 1]"),
    "bijection_then_missing_coeff": (GroupRingElement, {"degree": 2, "terms": [{"perm": [1, 1]}]},
                                     "not a bijection of 1..2: [1, 1]"),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULTS))
def test_first_fault_in_reading_order_is_reported(case):
    kind, doc, message = TWO_FAULTS[case]
    with pytest.raises(ValueError) as excinfo:
        kind.from_dict(doc)
    assert str(excinfo.value) == message


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


# one grammar, [+-]?[0-9]+(/[0-9]+)?, on every Python version
ACCEPTED_TEXT = {
    "3": 3, "-4/6": Fraction(-2, 3), "+3": 3, "6/3": 2, "007": 7, "-0": 0, "0/5": 0,
    "-12/8": Fraction(-3, 2), "+1/2": Fraction(1, 2),
}
REFUSED_TEXT = [
    "1e3", "1.5", "0.5", "2.0", ".5", "1.", " 3", "3 ", "\t3\n", "1/2 ", "1 / 2", "\u0663", "\uff13",
    "1_0", "1/1_0", "3/-4", "3/+4", "+-3", "1/2/3", "", "-", "/2", "3/", "1/0", "0/0", "inf", "nan", "0x10",
    "\u00bd",
]


@pytest.mark.parametrize("text", sorted(ACCEPTED_TEXT))
def test_rational_text_accepted(text, capsys):
    value = ACCEPTED_TEXT[text]
    for parsed in (parse_rational(text), wire_scalar(text, "x")):
        assert parsed == value and type(parsed) is type(value)
    assert main(["xi", f"--nu={text}", "--json"]) == 0
    assert main(["rank", f"--xi-nu={text}", "--dim", "2"]) == 0


@pytest.mark.parametrize("text", REFUSED_TEXT, ids=ascii)
def test_rational_text_refused(text, capsys):
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_rational(text)
    with pytest.raises(ValueError):
        wire_scalar(text, "x")
    for argv in (["xi", f"--nu={text}"], ["rank", f"--xi-nu={text}", "--dim", "2"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
    assert "not an exact rational" in capsys.readouterr().err


DEEP_ARRAY = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv", [
    ["fourier", "{}"],
    ["check-tensor", "{}"],
    ["rank", "--element", "{}", "--dim", "2"],
    ["gamma-hat", "--s", "{}", "--shat", "{}"],
], ids=lambda argv: argv[0])
def test_deeply_nested_document_exits_2(argv, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_ARRAY)
    assert main([arg.format(path) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "nested too deeply" in err and err.count("\n") == 1


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
