from fractions import Fraction

import pytest

from symcurv.verify import (
    CheckReport,
    all_mixed_class_checks,
    check_admissible_pairs,
    check_dichotomy,
    check_gamma_hat_generators,
    check_mixed_class_generators,
    check_sigma_nonzero,
    check_xi_half_is_f,
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


def test_excluded_class_spans_nothing():
    # the computed value for the excluded class: the products vanish outright
    assert mixed_class_span_rank(Fraction(1, 2), 1, False) == 0
    assert mixed_class_span_rank(Fraction(1, 2), -1, True) == 0


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
