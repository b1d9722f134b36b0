"""Numerical laboratory for geodesic flows on warped metrics over R x T^n.

The public names below and the submodules load on first access (PEP 562),
so ``from warpflow import scenarios`` imports the scenarios alone, not the
engine, Jacobi and criterion stacks.  A resolved name is not stored here:
``warpflow.<name>`` always reads the attribute of its module.
"""

from importlib import import_module as _import_module

# module -> the public names it exports through the package
_EXPORTS = {
    "errors": (
        "ConditionAViolated", "ConjugatePointDetected", "DegeneratePlane", "DomainError",
        "GreenNotConverged", "IntegratorDrift", "VanishingJacobiField",
    ),
    "warp": ("ConditionReport", "WarpSpec", "triple_from_scalar", "warp_from_config_section"),
    "geometry": (
        "ChristoffelTable", "CurvatureMatrix", "TangentVector", "christoffel", "curvature_matrix_along",
        "curvature_tensor", "metric_dot", "sectional_curvature",
    ),
    "geodesics": (
        "GeodesicPath", "UnitTangent", "flip", "integrate_geodesic", "integrate_window", "scalar_velocity",
        "scalar_velocity_series", "unit_tangent", "unit_tangent_from_direction",
    ),
    "jacobi": (
        "MatrixJacobiSolution", "RiccatiSeries", "dphi_norm", "dphi_norm_series", "green_stable",
        "green_unstable", "riccati_along", "sasaki_orthonormal_directions", "solve_boundary",
        "solve_jacobi_ivp",
    ),
    "scenarios": (
        "ScenarioBounds", "build_anosov_example", "build_constant_curvature", "build_counterexample",
        "build_scenario", "case_bound", "scenario_bounds",
    ),
    "criterion": (
        "AnosovReport", "AveragedCurvatureSeries", "EnvelopeFit", "averaged_curvature", "contraction_check",
        "decay_envelope", "dominance_check", "estimate_B", "run_anosov_check", "sample_thetas",
    ),
    # submodules without package-level names
    "engine": (), "config": (), "reports": (), "cli": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
