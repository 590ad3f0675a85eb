from collections import Counter
from fractions import Fraction
from itertools import permutations
from operator import add

import pytest

from conftest import full_product_span_rank, kostka_count
from symcurv import weyl_dimension
from symcurv.verify import (
    DOMINANT_WEIGHTS,
    MIXED_CLASS_CASES,
    NU_GENERATOR_CASES,
    CheckReport,
    all_mixed_class_checks,
    check_admissible_pairs,
    check_dichotomy,
    check_gamma_hat_generators,
    check_mixed_class_generators,
    check_sigma_nonzero,
    check_xi_half_is_f,
    dominant_weight_ranks,
    mixed_class_span_rank,
    run_all,
    sigma_element,
    stab_xi,
)


def test_xi_half_check_passes():
    report = check_xi_half_is_f()
    assert report.passed, report.details


def test_admissible_pairs_check_passes():
    report = check_admissible_pairs()
    assert report.passed, report.details


def test_sigma_nonzero_check_passes():
    report = check_sigma_nonzero()
    assert report.passed, report.details


def test_dichotomy_checks_pass():
    for report in check_dichotomy():
        assert report.passed, f"{report.name}: {report.details}"


def test_gamma_hat_generators_check_passes():
    report = check_gamma_hat_generators()
    assert report.passed, report.details


def test_mixed_class_checks_pass():
    for report in all_mixed_class_checks():
        assert report.passed, f"{report.name}: {report.details}"


def test_mixed_class_checks_build_each_class_image_once():
    import symcurv.verify as verify

    verify._class_image.cache_clear()
    all_mixed_class_checks()
    info = verify._class_image.cache_info()
    assert (info.misses, info.hits) == (6, 18)
    # 0.5 equals the cached key 1/2 but is not exact: it is refused, not served
    with pytest.raises(TypeError):
        mixed_class_span_rank(0.5, 1, False)


def test_excluded_class_spans_nothing():
    # the computed value for the excluded class: the products vanish outright
    assert mixed_class_span_rank(Fraction(1, 2), 1, False) == 0
    assert mixed_class_span_rank(Fraction(1, 2), -1, True) == 0


# every mixed-class case, then two more generating classes at both signs and orders
SPAN_RANK_CASES = MIXED_CLASS_CASES + tuple(
    (nu, epsilon, u_first) for nu in (Fraction(1, 3), Fraction(-2, 3))
    for epsilon in (1, -1) for u_first in (False, True))


@pytest.mark.parametrize("case", SPAN_RANK_CASES, ids=str)
def test_span_rank_by_dominant_weights_matches_the_full_product_span(case):
    assert mixed_class_span_rank(*case) == full_product_span_rank(*case)


def test_class_image_rows_are_weight_vectors():
    import symcurv.verify as verify

    order3 = set(permutations((3, 0, 0))) | set(permutations((2, 1, 0))) | {(1, 1, 1)}
    pair = set(permutations((2, 0, 0))) | set(permutations((1, 1, 0)))
    # each class is a copy of S^(2 1), so its weight-w space has dimension K_(2 1),w
    want = Counter({w: kostka_count((2, 1), sorted(w, reverse=True)) for w in order3
                    if any(tuple(map(add, w, p)) in DOMINANT_WEIGHTS for p in pair)})
    for nu in (*NU_GENERATOR_CASES, None):
        found = Counter()
        for row in verify._class_image(nu):
            weights = {verify._weight(i, 3) for i, c in enumerate(row.coords) if c}
            assert len(weights) == 1, (nu, weights)
            found.update(weights)
        assert found == +want, nu


def test_dominant_weight_spaces_have_the_kostka_dimensions():
    kostka = {mu: kostka_count((3, 2), mu) for mu in DOMINANT_WEIGHTS}
    assert list(kostka.values()) == [0, 0, 1, 1, 2]
    assert sum(len(set(permutations(mu))) * k for mu, k in kostka.items()) == weyl_dimension((3, 2), 3)
    for nu, epsilon, u_first in MIXED_CLASS_CASES:
        want = {mu: 0 for mu in DOMINANT_WEIGHTS} if nu == Fraction(1, 2) else kostka
        assert dominant_weight_ranks(nu, epsilon, u_first) == want, (nu, epsilon, u_first)


@pytest.mark.parametrize("epsilon, u_first", [(1.0, False), (True, False), (1, "no"), (1, 2), (1, None)])
@pytest.mark.parametrize("function", [mixed_class_span_rank, check_mixed_class_generators, sigma_element])
def test_product_type_must_be_an_int_sign_and_a_bool_order(function, epsilon, u_first):
    with pytest.raises(ValueError):
        function(0, epsilon, u_first)


def test_sigma_element_orders():
    assert sigma_element(0, 1, False).degree == 5
    assert not sigma_element(0, 1, False).is_zero()
    assert sigma_element(Fraction(1, 2), -1, True).is_zero()


def test_stab_xi_structure():
    assert stab_xi(1).support_size() == 12
    assert stab_xi(2).support_size() == 12
    with pytest.raises(ValueError):
        stab_xi(3)


def test_invalid_epsilon_rejected():
    with pytest.raises(ValueError):
        check_mixed_class_generators(0, 2, False)


def test_run_all_passes_and_is_deterministic():
    first = run_all()
    second = run_all()
    assert first == second
    assert all(r.passed for r in first), [r.name for r in first if not r.passed]
    names = [r.name for r in first]
    assert len(names) == len(set(names))


def test_run_all_filtering():
    reports = run_all(only="mixed_class_generators[eta")
    assert reports and all(r.name.startswith("mixed_class_generators[eta") for r in reports)
    assert run_all(only="no_such_check") == []


def test_report_serialization():
    report = CheckReport("demo", True, "fine")
    assert report.to_dict() == {"name": "demo", "passed": True, "details": "fine"}
    assert report.line() == "PASS demo: fine"


def test_run_all_only_runs_matching_checks(monkeypatch):
    import symcurv.verify as verify

    def not_selected():
        raise AssertionError("a check outside the --only prefix ran")

    for name in ("check_sigma_nonzero", "check_gamma_hat_generators",
                 "check_mixed_class_generators", "_check_dichotomy_variant"):
        monkeypatch.setattr(verify, name, not_selected)
    assert [r.name for r in run_all(only="xi_half")] == ["xi_half_idempotent"]
    assert [r.name for r in run_all(only="admissible")] == ["admissible_pairs"]


def test_check_registry_names_match_reports():
    from symcurv.verify import CHECKS

    assert list(CHECKS)[:6] == [
        "xi_half_idempotent", "admissible_pairs", "sigma_nonzero",
        "dichotomy[order2-first]", "dichotomy[order3-first]", "gamma_hat_generators",
    ]
    assert [r.name for r in check_dichotomy()] == list(CHECKS)[3:5]
    mixed = [name for name in CHECKS if name.startswith("mixed_class_generators[")]
    assert len(CHECKS) == 30 and len(mixed) == 24
    assert mixed[0] == check_mixed_class_generators(0, 1, False).name
    assert mixed[-1] == "mixed_class_generators[eta,UxA]"
