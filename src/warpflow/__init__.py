"""Numerical laboratory for geodesic flows on warped metrics over R x T^n."""

from .errors import (
    ConditionAViolated,
    ConjugatePointDetected,
    DegeneratePlane,
    DomainError,
    GreenNotConverged,
    IntegratorDrift,
    VanishingJacobiField,
)
from .warp import ConditionReport, WarpSpec, triple_from_scalar, warp_from_config_section
from .geometry import (
    ChristoffelTable,
    CurvatureMatrix,
    TangentVector,
    christoffel,
    curvature_matrix_along,
    curvature_tensor,
    metric_dot,
    sectional_curvature,
)
from .geodesics import (
    GeodesicPath,
    UnitTangent,
    flip,
    integrate_geodesic,
    integrate_window,
    scalar_velocity,
    scalar_velocity_series,
    unit_tangent,
    unit_tangent_from_direction,
)
from .jacobi import (
    MatrixJacobiSolution,
    RiccatiSeries,
    SasakiVector,
    dphi_norm,
    dphi_norm_series,
    green_stable,
    green_unstable,
    riccati_along,
    sasaki_orthonormal_directions,
    solve_boundary,
    solve_jacobi_ivp,
)
from .scenarios import (
    ScenarioBounds,
    build_anosov_example,
    build_constant_curvature,
    build_counterexample,
    build_scenario,
    case_bound,
    scenario_bounds,
)
from .criterion import (
    AnosovReport,
    AveragedCurvatureSeries,
    EnvelopeFit,
    averaged_curvature,
    contraction_check,
    decay_envelope,
    dominance_check,
    estimate_B,
    run_anosov_check,
    sample_thetas,
)

__version__ = "0.1.0"
