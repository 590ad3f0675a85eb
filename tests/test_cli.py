import hashlib
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_element, random_symmetric2, random_symmetric3, random_tensor
from symcurv import DenseTensor, GroupRingElement, apply_operator, gamma, gamma_hat, weyl_dimension
from symcurv.cli import main
from symcurv.tensor import curvature_symmetrizer_star

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lr_text_output(capsys):
    code, out, _ = run_cli(capsys, "lr", "--left", "2,1", "--right", "2")
    assert code == 0
    assert out.strip() == "(2 1)(2) = (4 1) + (3 2) + (3 1 1) + (2 2 1)"


def test_lr_json_output(capsys):
    code, out, _ = run_cli(capsys, "lr", "--left", "3", "--right", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [
        {"partition": [5], "multiplicity": 1},
        {"partition": [4, 1], "multiplicity": 1},
        {"partition": [3, 2], "multiplicity": 1},
    ]


def test_lr_weight_above_degree_cap_exits_2(capsys):
    code, out, err = run_cli(capsys, "lr", "--left", "4,4", "--right", "4")
    assert code == 2
    assert out == ""
    assert err == "error: |(4 4)| + |(4)| = 12 exceeds the degree cap 8\n"
    code, out, err = run_cli(capsys, "lr", "--left", "12,12", "--right", "12,12")
    assert (code, out, err.count("\n")) == (2, "", 1)
    code, out, _ = run_cli(capsys, "lr", "--left", "2,2", "--right", "2,2")
    assert code == 0
    assert out.startswith("(2 2)(2 2) = (4 4) + ")


def test_xi_half_prints_f(capsys):
    code, out, _ = run_cli(capsys, "xi", "--nu", "1/2")
    assert code == 0
    assert out.strip() == (
        "1/3 [1,2,3] + 1/6 [1,3,2] + 1/6 [2,1,3] - 1/6 [2,3,1] - 1/6 [3,1,2] - 1/3 [3,2,1]"
    )


def test_xi_json_round_trips(capsys):
    from symcurv import fourier_xi

    code, out, _ = run_cli(capsys, "xi", "--nu=-2/3", "--json")
    assert code == 0
    assert GroupRingElement.from_json(out) == fourier_xi(Fraction(-2, 3))


def test_eta_output(capsys):
    code, out, _ = run_cli(capsys, "eta")
    assert code == 0
    assert out.strip() == "1/3 [1,2,3] - 1/3 [2,1,3] - 1/3 [2,3,1] + 1/3 [3,2,1]"


def test_xi_rejects_bad_rational(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["xi", "--nu", "pi"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("spaced,joined", [
    (["xi", "--nu", "-2/3"], ["xi", "--nu=-2/3"]),
    (["xi", "--nu", "-2/3", "--json"], ["xi", "--nu=-2/3", "--json"]),
    (["xi", "--json", "--nu", "-5/2"], ["xi", "--json", "--nu=-5/2"]),
    (["rank", "--xi-nu", "-2/3", "--dim", "3"], ["rank", "--xi-nu=-2/3", "--dim", "3"]),
    (["rank", "--dim", "2", "--xi-nu", "-1/7"], ["rank", "--dim", "2", "--xi-nu=-1/7"]),
])
def test_negative_fraction_after_its_option(capsys, monkeypatch, spaced, joined):
    expected = run_cli(capsys, *joined)
    assert expected[0] == 0 and expected[1] and not expected[2]
    assert run_cli(capsys, *spaced) == expected
    # the same through sys.argv, as the entry point reads it
    monkeypatch.setattr("sys.argv", ["symcurv", *spaced])
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected


@pytest.mark.parametrize("argv", [
    ["xi", "--nu", "-x"],
    ["xi", "--nu", "-2/0"],
    ["xi", "--nu", "--json"],
    ["xi", "--nu=-pi"],
    ["rank", "--xi-nu", "-1/3/4", "--dim", "3"],
    ["rank", "--xi-nu", "--dim", "3"],
])
def test_option_value_that_is_not_a_rational_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--" in captured.err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_symmetrizer_by_shape(capsys):
    code, out, _ = run_cli(capsys, "symmetrizer", "--shape", "2,1", "--index", "0")
    assert code == 0
    assert "[2,1,3]" in out
    code, _, err = run_cli(capsys, "symmetrizer", "--shape", "2,1", "--index", "5")
    assert code == 2
    assert "index" in err


def test_symmetrizer_index_goes_with_shape_only(capsys):
    code, out, err = run_cli(capsys, "symmetrizer", "--curvature", "4", "--index", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--index" in err and err.count("\n") == 1
    # without --index a shape means its first standard tableau
    assert run_cli(capsys, "symmetrizer", "--shape", "3,1") == run_cli(
        capsys, "symmetrizer", "--shape", "3,1", "--index", "0")


def test_symmetrizer_curvature_star_json(capsys):
    code, out, _ = run_cli(capsys, "symmetrizer", "--curvature", "1", "--star", "--json")
    assert code == 0
    element = GroupRingElement.from_json(out)
    assert element.degree == 5
    assert element.is_essentially_idempotent() == 24


# symmetrizer --curvature 1 --star --json, one signed word per term, in output order
CURVATURE_1_STAR = """
    +12345 -12435 -12534 +12543 -13425 -13524 +14325 +14523
    -21345 +21435 +21534 -21543 +23415 +23514 -24315 -24513
    -31245 -31542 +32145 +32541 +34125 -34215 -34512 +34521
    +41235 +41532 -42135 -42531 -43125 +43215 +43512 -43521
    +51234 -51243 -51342 +51432 -52134 +52143 +52341 -52431
    -53124 +53214 +53412 -53421 +54123 -54213 -54312 +54321
"""


def test_symmetrizer_curvature_star_json_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "symmetrizer", "--curvature", "1", "--star", "--json")
    assert code == 0
    terms = [{"perm": [int(v) for v in word[1:]], "coeff": "1" if word[0] == "+" else "-1"}
             for word in CURVATURE_1_STAR.split()]
    assert out == json.dumps({"degree": 5, "terms": terms}) + "\n"


def test_symmetrizer_degree_8_curvature_star(capsys):
    code, out, _ = run_cli(capsys, "symmetrizer", "--curvature", "4", "--star", "--json")
    assert code == 0
    element = GroupRingElement.from_json(out)
    assert element.degree == 8
    assert element.support_size() == 5760


def test_fourier_of_element_file(tmp_path, capsys):
    rng = random.Random(20)
    element = random_element(rng, 3)
    path = tmp_path / "element.json"
    path.write_text(element.to_json())
    code, out, _ = run_cli(capsys, "fourier", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 3
    assert [b["partition"] for b in data["blocks"]] == [[3], [2, 1], [1, 1, 1]]
    code, out, _ = run_cli(capsys, "fourier", str(path))
    assert code == 0
    assert "(2 1)" in out


@pytest.mark.parametrize("u", range(4))
def test_fourier_json_of_curvature_star_is_pinned(tmp_path, capsys, u):
    # every natural-basis block of y* at degrees 4-7, byte for byte
    code, out, _ = run_cli(capsys, "symmetrizer", "--curvature", str(u), "--star", "--json")
    assert code == 0
    path = tmp_path / "ystar.json"
    path.write_text(out)
    code, out, err = run_cli(capsys, "fourier", "--json", str(path))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"fourier_curvature_{u}_star.json").read_text(encoding="utf-8")


def test_gamma_hat_file_round_trip(tmp_path, capsys):
    rng = random.Random(21)
    s = random_symmetric2(rng, 3)
    w = random_symmetric3(rng, 3)
    s_path = tmp_path / "s.json"
    w_path = tmp_path / "w.json"
    out_path = tmp_path / "out.json"
    s_path.write_text(s.to_json())
    w_path.write_text(w.to_json())
    code, _, _ = run_cli(capsys, "gamma-hat", "--s", str(s_path), "--shat", str(w_path),
                         "--out", str(out_path))
    assert code == 0
    assert DenseTensor.from_json(out_path.read_text()) == gamma_hat(s, w)


def test_gamma_hat_output_is_pinned(tmp_path, capsys):
    s_path = tmp_path / "s.json"
    w_path = tmp_path / "w.json"
    s_path.write_text(DenseTensor.from_entries(
        2, 2, {(1, 1): 1, (1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2), (2, 2): -3}).to_json())
    w = {(1, 1, 1): 2, (1, 1, 2): -1, (1, 2, 2): Fraction(1, 3), (2, 2, 2): 5}
    w_path.write_text(DenseTensor.from_entries(
        3, 2, {word: v for idx, v in w.items() for word in itertools.permutations(idx)}).to_json())
    code, out, _ = run_cli(capsys, "gamma-hat", "--s", str(s_path), "--shat", str(w_path))
    assert code == 0
    assert out == (
        '{"order": 5, "dim": 2, "coords": ['
        '{"idx": [1, 2, 1, 2, 1], "val": "56/3"}, {"idx": [1, 2, 1, 2, 2], "val": "-92/3"}, '
        '{"idx": [1, 2, 2, 1, 1], "val": "-56/3"}, {"idx": [1, 2, 2, 1, 2], "val": "92/3"}, '
        '{"idx": [2, 1, 1, 2, 1], "val": "-56/3"}, {"idx": [2, 1, 1, 2, 2], "val": "92/3"}, '
        '{"idx": [2, 1, 2, 1, 1], "val": "56/3"}, {"idx": [2, 1, 2, 1, 2], "val": "-92/3"}]}\n'
    )


def test_gamma_hat_rejects_asymmetric_input(tmp_path, capsys):
    bad = DenseTensor.from_entries(2, 2, {(1, 2): 1})
    w = random_symmetric3(random.Random(22), 2)
    bad_path = tmp_path / "bad.json"
    w_path = tmp_path / "w.json"
    bad_path.write_text(bad.to_json())
    w_path.write_text(w.to_json())
    code, _, err = run_cli(capsys, "gamma-hat", "--s", str(bad_path), "--shat", str(w_path))
    assert code == 2
    assert "symmetric" in err


def test_check_tensor_pass_and_fail(tmp_path, capsys):
    rng = random.Random(23)
    good = gamma(random_symmetric2(rng, 2))
    good_path = tmp_path / "good.json"
    good_path.write_text(good.to_json())
    code, out, _ = run_cli(capsys, "check-tensor", str(good_path))
    assert code == 0
    assert "is an algebraic curvature tensor" in out

    bad = random_tensor(rng, 5, 2)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(bad.to_json())
    code, out, _ = run_cli(capsys, "check-tensor", str(bad_path), "--json")
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False

    wrong_order = tmp_path / "wrong.json"
    wrong_order.write_text(DenseTensor.zero(3, 2).to_json())
    code, _, err = run_cli(capsys, "check-tensor", str(wrong_order))
    assert code == 2


# `check-tensor --json` on a dense order-5 dim-4 tensor T (seed 31) and on y*·T, byte for byte
CHECK_TENSOR_ACDC = (
    '{"kind": "algebraic covariant derivative curvature tensor", "passed": %s, "checks": '
    '{"skew_middle_pair": %s, "pair_exchange": %s, "first_bianchi": %s, "second_bianchi": %s, '
    '"symmetrizer_fixed_point": %s}}\n'
)
# sha256 of y*·T's JSON wire form
YSTAR_T_SHA256 = "5adad54ceb7410e926814cc1abaf2795acb46c50747a3bece557caed77083620"


@pytest.mark.parametrize("project", [True, False], ids=["ystar_t", "t"])
def test_check_tensor_json_on_dense_order5_is_pinned(tmp_path, capsys, project):
    t = random_tensor(random.Random(31), 5, 4)
    if project:
        t = apply_operator(curvature_symmetrizer_star(1), t)
        assert hashlib.sha256(t.to_json().encode()).hexdigest() == YSTAR_T_SHA256
    path = tmp_path / "t.json"
    path.write_text(t.to_json())
    code, out, _ = run_cli(capsys, "check-tensor", "--json", str(path))
    assert code == (0 if project else 1)
    assert out == CHECK_TENSOR_ACDC % ((json.dumps(project),) * 6)


def test_check_tensor_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(DenseTensor.zero(4, 2).to_json()))
    code, out, _ = run_cli(capsys, "check-tensor", "-")
    assert code == 0


def test_rank_subcommand(capsys):
    code, out, _ = run_cli(capsys, "rank", "--curvature", "1", "--star", "--dim", "3")
    assert code == 0
    assert out.strip() == "15"
    # a primitive (2 1)-class idempotent projects onto one Weyl module
    code, out, _ = run_cli(capsys, "rank", "--xi-nu", "1/2", "--dim", "2")
    assert code == 0
    assert out.strip() == str(weyl_dimension((2, 1), 2)) == "2"
    # the work stops growing with dim once dim reaches the degree
    code, out, _ = run_cli(capsys, "rank", "--curvature", "1", "--star", "--dim", "1000000")
    assert code == 0
    assert out.strip() == str(weyl_dimension((3, 2), 1000000))


def test_rank_answers_at_degrees_7_and_8(capsys, tmp_path):
    # the degree-7 class at dim 7 needs the 5040-word weight space the old cap refused
    code, out, _ = run_cli(capsys, "rank", "--curvature", "3", "--dim", "7")
    assert code == 0
    assert out.strip() == str(weyl_dimension((5, 2), 7)) == "6468"
    # a dense degree-8 element is invertible, so it acts on the tensors of order 8 bijectively
    path = tmp_path / "dense8.json"
    path.write_text(random_element(random.Random(8), 8).to_json())
    code, out, _ = run_cli(capsys, "rank", "--element", str(path), "--dim", "2")
    assert code == 0
    assert out.strip() == str(2 ** 8)
    with pytest.raises(SystemExit) as excinfo:
        main(["rank", "--curvature", "1", "--dim", "3", "--max-dim", "100000"])
    assert excinfo.value.code == 2


def test_verify_full_suite_exits_clean(capsys):
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


@pytest.mark.parametrize("argv,golden", [([], "verify_paper.txt"), (["--json"], "verify_paper.json")],
                         ids=["text", "json"])
def test_verify_paper_output_is_pinned(capsys, argv, golden):
    # every printed number of the claim suite, byte for byte
    code, out, err = run_cli(capsys, "verify-paper", *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_verify_only_subset(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--only", "xi_half_idempotent")
    assert code == 0
    assert out.splitlines()[0].startswith("PASS xi_half_idempotent")


def test_verify_only_json(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--only", "admissible_pairs", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == [{
        "name": "admissible_pairs",
        "passed": True,
        "details": "exactly (2)x(3), (2)x(2 1), (1 1)x(2 1) reach class (3 2)",
    }]


def test_verify_unknown_name(capsys):
    code, _, err = run_cli(capsys, "verify-paper", "--only", "nonexistent")
    assert code == 2
    assert "no check" in err


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_rank_rejects_nonpositive_dim(capsys, dim):
    code, out, err = run_cli(capsys, "rank", "--curvature", "0", "--dim", dim)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--curvature", "20"], ["--shape", "12"]])
def test_symmetrizer_beyond_degree_cap_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "symmetrizer", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["symmetrizer", "--shape", "100000"],
    ["symmetrizer", "--curvature", "1000000"],
    ["symmetrizer", "--curvature", "99999999999999999999"],
    ["rank", "--curvature", "99999999999999999999", "--dim", "3"],
])
def test_huge_inputs_refused_at_the_degree_cap_before_any_work(capsys, monkeypatch, argv):
    def refuse(shape):
        raise AssertionError("hook_dimension called before the degree check")

    monkeypatch.setattr("symcurv.cli.hook_dimension", refuse)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "degree cap" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--shape", "6,6,6"], ["--shape", "2,1", "--index", "2"]])
def test_symmetrizer_refuses_before_enumerating_tableaux(capsys, monkeypatch, argv):
    def enumerate_nothing(shape):
        raise AssertionError("standard_tableaux called")

    monkeypatch.setattr("symcurv.cli.standard_tableaux", enumerate_nothing)
    code, out, err = run_cli(capsys, "symmetrizer", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("order,dim", [(40, 10), (-1, 2), (9, 9), (8, 10), (2, 0)])
def test_check_tensor_refuses_out_of_range_size(capsys, monkeypatch, order, dim):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"order": order, "dim": dim})))
    code, out, err = run_cli(capsys, "check-tensor", "-")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
