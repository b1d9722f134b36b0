"""Output checks of the benchmark workloads.

Each checker returns a list of problems; an empty list means the output is
correct.  The check workloads compare against reference outputs recorded at
the seed commit (``references.json``, written by ``make_references.py``);
the library workloads check the bounds of acceptance criteria 5 and 6.
"""
from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

# B_est must repeat to this relative tolerance; a run is deterministic for a
# fixed sample, so only platform rounding is allowed for.
B_REL_TOL = 1e-7
# criterion 5: conserved-quantity defects of the scan
DEFECT_BOUND = 1e-8
# criterion 6: Riccati residual
RICCATI_BOUND = 1e-5


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


# kinds of per-sample failures an ``anosov_report.json`` can list
FAILURE_KINDS = ("green_gap", "integrator_drift", "vanishing_field")


def failure_kinds(report: dict) -> dict:
    return dict(sorted(Counter(f["kind"] for f in report.get("failures", [])).items()))


def failure_counts(report: dict) -> dict:
    """``criterion.failures.<kind>`` for every kind, 0 where the report lists none."""
    kinds = failure_kinds(report)
    return {f"criterion.failures.{kind}": kinds.get(kind, 0) for kind in FAILURE_KINDS}


def check_anosov_report(report: dict, ref: dict) -> list:
    """Compare an ``anosov_report.json`` payload with its reference entry."""
    problems = []
    if report.get("verdict") != ref["verdict"]:
        problems.append(f"verdict {report.get('verdict')!r}, expected {ref['verdict']!r}")
    B = report.get("B_est")
    tol = B_REL_TOL * max(1.0, abs(ref["B_est"]))
    if not isinstance(B, (int, float)) or not abs(B - ref["B_est"]) <= tol:
        problems.append(f"B_est {B!r}, expected {ref['B_est']!r} within {tol:.1e}")
    if "max_abs_B" in ref and not (isinstance(B, (int, float)) and abs(B) <= ref["max_abs_B"]):
        problems.append(f"B_est {B!r} is not within {ref['max_abs_B']} of 0")
    if failure_kinds(report) != ref["failures"]:
        problems.append(f"failures {failure_kinds(report)}, expected {ref['failures']}")
    if "case_dominance_ok" in ref:
        ok = report.get("case_dominance", {}).get("ok")
        if ok is not ref["case_dominance_ok"]:
            problems.append(f"case_dominance.ok is {ok!r}, expected {ref['case_dominance_ok']!r}")
    return problems


def check_conservation(max_unit: float, max_momentum: float) -> list:
    problems = []
    if not max_unit < DEFECT_BOUND:
        problems.append(f"unit-speed defect {max_unit:.3e} is not below {DEFECT_BOUND:g}")
    if not max_momentum < DEFECT_BOUND:
        problems.append(f"momentum defect {max_momentum:.3e} is not below {DEFECT_BOUND:g}")
    return problems


def check_single_path(converged: bool, riccati_residual: float, max_average: float) -> list:
    problems = []
    if not converged:
        problems.append("stable ladder did not converge")
    if not riccati_residual < RICCATI_BOUND:
        problems.append(f"Riccati residual {riccati_residual:.3e} is not below {RICCATI_BOUND:g}")
    if not max_average < 0.0:
        problems.append(f"averaged curvature reaches {max_average:.4g}, not below 0")
    return problems
