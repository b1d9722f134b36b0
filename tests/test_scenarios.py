import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import warpflow
from warpflow import engine
from warpflow.errors import ConditionAViolated, DomainError
from warpflow.scenarios import (
    build_anosov_example,
    build_constant_curvature,
    build_scenario,
    case_bound,
    scenario_bounds,
)
from warpflow.warp import WarpSpec, warp_from_config_section


class TestAnosovExample:
    def test_conditions_hold_for_a3(self, anosov_spec):
        report = anosov_spec.condition_report()
        assert report.min_h > 0.0
        assert report.a_ok and report.b_ok and report.c_ok
        c1, c2 = anosov_spec.growth_bounds
        assert c1 == pytest.approx(2.0 * (3.0 - np.sqrt(2.0)), rel=1e-14)
        assert c2 == pytest.approx(2.0 * (3.0 + np.sqrt(2.0)), rel=1e-14)

    def test_small_slope_rejected(self):
        with pytest.raises(ConditionAViolated):
            build_anosov_example(0.1)

    def test_eta_equals_20_pi(self, anosov_spec):
        # g'' integrates to zero over a period and (a + sin + cos)^2
        # averages to a^2 + 1; at constant curvature h = k^2.  Quadrature
        # confirms the hand evaluations 2 pi (a^2 + 1) = 20 pi and 2 pi k^2
        cases = [(anosov_spec, 20.0 * np.pi)]
        cases += [(build_constant_curvature(k), 2.0 * np.pi * k * k) for k in (1.0, 2.0)]
        for spec, expected in cases:
            bounds = scenario_bounds(spec)
            assert bounds.eta == pytest.approx(expected, abs=1e-8)
            direct, _ = quad(lambda x: float(spec.h(np.asarray(x))), 0.0, 2.0 * np.pi)
            assert direct == pytest.approx(bounds.eta, abs=1e-9)

    def test_curvature_bound_matches_profile(self, anosov_spec):
        xs = np.linspace(0.0, 2.0 * np.pi, 20001)
        assert anosov_spec.curvature_bound() == pytest.approx(float(np.max(anosov_spec.h(xs))), rel=1e-6)


class TestCounterexample:
    def test_ray_curvature_profile(self, counter_spec):
        # -f''/f = -(1+x^2)^{-2} along the axis direction
        for t in (0.0, 1.0, 3.0, 10.0):
            assert counter_spec.h(np.asarray(t)) == pytest.approx((1 + t * t) ** -2, rel=1e-12)

    def test_no_period_marker(self, counter_spec):
        assert counter_spec.period is None
        assert counter_spec.claims == ()
        with pytest.raises(DomainError):
            scenario_bounds(counter_spec)


class TestConstantCurvature:
    def test_rejects_nonpositive_slope(self):
        with pytest.raises(DomainError):
            build_constant_curvature(0.0)

    def test_h_is_k_squared(self):
        spec = build_constant_curvature(1.7, n=3)
        xs = np.linspace(-5.0, 5.0, 100)
        assert np.max(np.abs(spec.h(xs) - 1.7**2)) < 1e-12


class TestScenarioRegistry:
    def test_build_by_name(self):
        for name in ("anosov-warped-torus", "counterexample-sqrt", "constant-curvature"):
            spec = build_scenario(name, a=3.0, k=1.0, n=2)
            assert spec.params["kind"] == name

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            build_scenario("nope")

    def test_config_roundtrip(self, anosov_spec):
        section = anosov_spec.to_config_section()
        back = warp_from_config_section(section)
        assert back.params == anosov_spec.params
        xs = np.linspace(0.0, 6.0, 50)
        for a, b in zip(back.log_derivatives(xs), anosov_spec.log_derivatives(xs)):
            assert np.allclose(a, b)


def _spike_spec(kappa):
    """Periodic warp with g' = 3 + exp(kappa (cos x - 1)): a bump of width about kappa^-1/2 at x = 0."""

    def triple(x):
        x = np.asarray(x, dtype=float)
        bump = np.exp(kappa * (np.cos(x) - 1.0))
        return 3.0 * x, 3.0 + bump, -kappa * np.sin(x) * bump

    return WarpSpec(name=f"spike({kappa:g})", n=2, triple=triple,
                    period=2.0 * np.pi, growth_bounds=(6.0, 8.0))


# the package's public names by module, as exported before they loaded lazily
PACKAGE_EXPORTS = {
    "errors": "ConditionAViolated ConjugatePointDetected DegeneratePlane DomainError GreenNotConverged "
              "IntegratorDrift VanishingJacobiField",
    "warp": "ConditionReport WarpSpec triple_from_scalar warp_from_config_section",
    "geometry": "ChristoffelTable CurvatureMatrix TangentVector christoffel curvature_matrix_along "
                "curvature_tensor metric_dot sectional_curvature",
    "geodesics": "GeodesicPath UnitTangent flip integrate_geodesic integrate_window scalar_velocity "
                 "scalar_velocity_series unit_tangent unit_tangent_from_direction",
    "jacobi": "MatrixJacobiSolution RiccatiSeries dphi_norm dphi_norm_series green_stable green_unstable "
              "riccati_along sasaki_orthonormal_directions solve_boundary solve_jacobi_ivp",
    "scenarios": "ScenarioBounds build_anosov_example build_constant_curvature build_counterexample "
                 "build_scenario case_bound scenario_bounds",
    "criterion": "AnosovReport AveragedCurvatureSeries EnvelopeFit averaged_curvature contraction_check "
                 "decay_envelope dominance_check estimate_B run_anosov_check sample_thetas",
}


class TestScenarioBounds:
    def test_unresolved_h_is_a_domain_error(self):
        # at 512 and 1024 nodes the bump of width 3e-3 gives 56.63 and 56.60
        with pytest.raises(DomainError, match="not resolved"):
            scenario_bounds(_spike_spec(1e5))
        assert np.isfinite(scenario_bounds(_spike_spec(1e3)).eta)

    def test_import_loads_no_scipy(self):
        src = str(Path(warpflow.__file__).parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import warpflow, warpflow.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_scenarios_import_alone(self):
        # the package loads its submodules on first access
        src = str(Path(warpflow.__file__).parents[1])
        heavy = ["engine", "geodesics", "geometry", "jacobi", "criterion", "cli", "config", "reports"]
        code = (f"import sys; sys.path.insert(0, {src!r}); from warpflow import scenarios; "
                "scenarios.scenario_bounds(scenarios.build_scenario('anosov-warped-torus', a=3.0, n=2)); "
                f"print(sorted(m for m in {heavy!r} if 'warpflow.' + m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_package_exports(self):
        for module, names in PACKAGE_EXPORTS.items():
            for name in names.split():
                assert getattr(warpflow, name) is getattr(importlib.import_module(f"warpflow.{module}"), name)
                assert name not in vars(warpflow)  # resolved, not stored
        assert sorted(warpflow.__all__) == sorted(" ".join(PACKAGE_EXPORTS.values()).split())
        namespace = {}
        exec("from warpflow import *", namespace)
        assert all(namespace[name] is getattr(warpflow, name) for name in warpflow.__all__)
        assert warpflow.engine is engine
        assert "run_anosov_check" in dir(warpflow) and "jacobi" in dir(warpflow)
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            getattr(warpflow, "no_such_name")


class TestPeriodicLimit:
    def test_running_averages_approach_minus_eta_over_T(self, anosov_spec):
        """|avg_t k + eta/T| <= C(b0)/t for both modes, with C(b0) derived, not fitted.

        Along a unit-speed geodesic x' = b and b' = g'(1 - b^2) with
        g' > gamma = C1/2 > 0, so b increases to 1 (b0 = -1 stays at -1).
        The modes are k1 = -h(x) and k2 = -h(x) + (1 - b^2) g''(x) (see
        ``engine``).  Write phi = h - eta/T, a zero-mean T-periodic function,
        and Phi for its periodic primitive; max Phi - min Phi <= P/2 with
        P = int_0^T |phi| dx.  Then

            int_0^t phi(x(s)) ds = [Phi(x(t)) - Phi(x0)] + int_0^t phi(x) (1 - b) ds.

        The first term is at most P/2.  The turning time
        L(b0) = int_0^inf (1 - b) ds = int db / (g' (1 + b)) <= log(2/(1 + b0)) / gamma
        bounds the second by max|phi| L(b0); at b0 = -1, x' = -1 exactly and
        the whole integral is -[Phi(x(t)) - Phi(x0)], so L = 0 there.  For k2
        add int_0^inf (1 - b^2) |g''| ds <= max|g''| (1 - b0) / gamma with
        |g''| = |cos x - sin x| <= sqrt 2.  Hence t |avg_t k1 + eta/T| <= C(b0)
        = P/2 + max|phi| L(b0) and t |avg_t k2 + eta/T| <= C(b0) + sqrt 2 (1 - b0)/gamma.
        For a = 3: P = 34.6, max|phi| = 9.57, gamma = 3 - sqrt 2.  The
        integration and quadrature errors are far inside this: t |avg_t k + eta/T|
        moves by under 1e-3 between steps 0.05 and 0.02, against C(b0) >= 17.3.
        """
        bounds = scenario_bounds(anosov_spec)
        T, gamma = bounds.T, bounds.C1 / 2.0
        xs = np.linspace(0.0, T, 1 << 16, endpoint=False)
        phi = anosov_spec.h(xs) - bounds.eta / T
        P, phi_max = T * float(np.mean(np.abs(phi))), float(np.max(np.abs(phi)))
        m, step = 64, 0.05
        b0 = np.linspace(-1.0, 1.0, m)
        u0v = np.stack([np.sqrt(1.0 - b0 * b0), np.zeros(m)], axis=1)
        run = engine.integrate_states(anosov_spec, *engine.slice_state(T * np.arange(m) / m, b0, u0v),
                                      t0=0.0, t1=400.0, step=step, store=False)
        k = run["curvatures"]
        with np.errstate(divide="ignore"):
            turning = np.where(b0 > -1.0, np.log(2.0 / (1.0 + b0)) / gamma, 0.0)
        c_k1 = P / 2.0 + phi_max * turning
        C = np.stack([c_k1, c_k1 + np.sqrt(2.0) * (1.0 - b0) / gamma], axis=1)
        for t in (25.0, 100.0, 400.0):
            j = int(round(2.0 * t / step))
            # trapezoid rule on the half-step grid the kernel tabulates
            integral = 0.25 * step * (k[0] + 2.0 * k[1:j].sum(axis=0) + k[j])
            assert np.all(np.abs(integral + t * bounds.eta / T) <= C)


class TestCaseBounds:
    def test_axis_case_value(self, anosov_spec):
        bounds = scenario_bounds(anosov_spec)
        # eta/(2T) = 20 pi / (4 pi) = 5
        assert case_bound(bounds, 1.0, 8.0 * np.pi) == pytest.approx(-5.0, rel=1e-9)
        assert case_bound(bounds, -1.0, 8.0 * np.pi) == pytest.approx(-5.0, rel=1e-9)

    def test_fast_bracket(self, anosov_spec):
        bounds = scenario_bounds(anosov_spec)
        T = bounds.T
        assert case_bound(bounds, 0.7, 10.0 * T) == pytest.approx(-bounds.eta / (16.0 * T))

    def test_below_threshold_not_applicable(self, anosov_spec):
        bounds = scenario_bounds(anosov_spec)
        assert case_bound(bounds, 0.0, 0.9 * bounds.case3_threshold) is None
        assert case_bound(bounds, 1.0, 1.9 * bounds.T) is None

    def test_final_bound_composition(self, anosov_spec):
        bounds = scenario_bounds(anosov_spec)
        expected = max(
            -bounds.eta / (64.0 * bounds.T),
            -bounds.eta / (4.0 * (8.0 * bounds.T + 2.0 * bounds.slow_entry)),
        )
        assert case_bound(bounds, -0.8, bounds.case4_threshold + 1.0) == pytest.approx(expected)
        assert bounds.final_bound == pytest.approx(-0.15625, rel=1e-12)

    def test_domain_guard(self, anosov_spec):
        bounds = scenario_bounds(anosov_spec)
        with pytest.raises(DomainError):
            case_bound(bounds, 1.5, 100.0)


class TestSpeedThresholdTimes:
    def test_slow_entry_bound(self, anosov_spec):
        # first crossing of b = 1/2 happens before (2/C1) log 3 whenever
        # b0 is in the middle bracket
        from warpflow.geodesics import scalar_velocity_series

        bounds = scenario_bounds(anosov_spec)
        for b0 in (-0.5, -0.2, 0.0, 0.3, 0.49):
            times, b, _ = scalar_velocity_series(anosov_spec, b0, 2.0, step=1e-3)
            idx = np.nonzero(b >= 0.5)[0]
            assert len(idx) > 0
            t1 = times[idx[0]]
            assert t1 < bounds.slow_entry

    def test_backward_exit_bound(self, anosov_spec):
        # time of b = -1/2 exceeds (1/C2) log(1/(3 B0)) when that is positive
        from warpflow.geodesics import scalar_velocity_series

        bounds = scenario_bounds(anosov_spec)
        for b0 in (-0.9, -0.8, -0.7):
            B0 = (1.0 + b0) / (1.0 - b0)
            lower = np.log(1.0 / (3.0 * B0)) / bounds.C2
            times, b, _ = scalar_velocity_series(anosov_spec, b0, 5.0, step=1e-3)
            idx = np.nonzero(b >= -0.5)[0]
            t2 = times[idx[0]]
            if lower > 0:
                assert t2 > lower
