import copy

import checks

REF = checks.load_references()["periodic-check"]["0"]
REPORT = {
    "verdict": REF["verdict"],
    "B_est": REF["B_est"],
    "failures": [],
    "case_dominance": {"ok": True, "checked": 1462},
}


def doctored(**changes):
    report = copy.deepcopy(REPORT)
    report.update(changes)
    return report


def test_reference_report_passes():
    assert checks.check_anosov_report(REPORT, REF) == []


def test_flipped_verdict_is_rejected():
    assert checks.check_anosov_report(doctored(verdict="not_anosov_consistent"), REF)


def test_B_est_off_by_1e_3_is_rejected():
    assert checks.check_anosov_report(doctored(B_est=REF["B_est"] + 1e-3), REF)
    assert checks.check_anosov_report(doctored(B_est=REF["B_est"] - 1e-3), REF)


def test_failures_and_dominance_are_compared():
    extra = doctored(failures=[{"kind": "green_gap", "theta": 0, "side": "stable", "value": 1.0}])
    assert checks.check_anosov_report(extra, REF)
    assert checks.check_anosov_report(doctored(case_dominance={"ok": False}), REF)


def test_B_est_away_from_zero_is_rejected_for_counterexample():
    ref = {"verdict": "not_anosov_consistent", "B_est": 0.5, "failures": {}, "max_abs_B": 1e-3}
    report = {"verdict": "not_anosov_consistent", "B_est": 0.5, "failures": []}
    assert checks.check_anosov_report(report, ref)


def test_conservation_defect_of_1e_7_is_rejected():
    assert checks.check_conservation(1e-13, 1e-12) == []
    assert checks.check_conservation(1e-7, 1e-12)
    assert checks.check_conservation(1e-13, 1e-7)


def test_single_path_checks():
    assert checks.check_single_path(True, 6e-7, -2.5) == []
    assert checks.check_single_path(False, 6e-7, -2.5)
    assert checks.check_single_path(True, 2e-5, -2.5)
    assert checks.check_single_path(True, 6e-7, 0.01)
