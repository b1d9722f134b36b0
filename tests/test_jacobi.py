import tracemalloc

import numpy as np
import pytest

from warpflow import scenarios
from warpflow.errors import DomainError, GreenNotConverged, VanishingJacobiField
from warpflow.geodesics import flip, integrate_geodesic, unit_tangent_from_direction
from warpflow.geometry import TangentVector, sectional_curvature
from warpflow.jacobi import (
    dphi_norm,
    dphi_norm_series,
    green_stable,
    green_unstable,
    riccati_along,
    sasaki_orthonormal_directions,
    solve_boundary,
    solve_jacobi_ivp,
)
from warpflow.warp import WarpSpec


def _flat_warp(n=2):
    def triple(x):
        x = np.asarray(x, float)
        z = np.zeros_like(x)
        return z, z, z

    return WarpSpec(name="flat", n=n, triple=triple, c_squared=0.0)


def _const_path(const_spec, t_end=5.0, step=0.01):
    th = unit_tangent_from_direction(const_spec, 0.0, np.zeros(2), 0.0, [1.0, 0.0])
    return integrate_geodesic(const_spec, th, t_end, step)


def _generic_anosov_path(anosov_spec, t_end=8.0, step=0.005):
    th = unit_tangent_from_direction(anosov_spec, 0.2, np.zeros(2), 0.3, [0.8, 0.52])
    return integrate_geodesic(anosov_spec, th, t_end, step, drift_tol=1e-6)


def _limit(solve, *args, **kwargs):
    """A limit solution, converged or not, and whether its ladder converged."""
    try:
        return solve(*args, **kwargs), True
    except GreenNotConverged as exc:
        return exc.last_solution, False


# spec, start datum (x0, b0, u), step, drift_tol, max_doublings, whether the ladder converges
ROUTE_DATA = {
    "anosov-n1": (lambda: scenarios.build_anosov_example(3.0, n=1), (0.7, -0.4, [0.9]), 0.01, 1e-5, 12, True),
    "anosov-n2": (
        lambda: scenarios.build_anosov_example(3.0, n=2), (0.7, -0.4, [0.6, 0.69]), 0.01, 1e-5, 12, True
    ),
    "counterexample-n3": (
        lambda: scenarios.build_counterexample(n=3), (0.3, 0.2, [0.6, 0.5, 0.4]), 0.05, 1e-3, 2, False
    ),
}


def _pole_limit_errors(spec, green, b0):
    """Largest relative errors of a limit on an axis geodesic of the periodic warp (a = 3), at steps 0.02 and 0.01.

    At b0 = +-1 both modes solve y'' = h(x) y with x = x0 + b0 t, which f
    solves too (f'' = h f).  Where the limit's vanishing end lies at
    x -> -inf (b0 = -1 for ``green_stable``, b0 = 1 for ``green_unstable``)
    f(x)/f(x0) is the bounded solution; at x -> +inf reduction of order gives
    f(x) I(x)/(f(x0) I(x0)) with I(x) = int_x^inf f^-2, and f(x + T) =
    e^{aT} f(x) turns the tail into a geometric series, I(x) =
    int_x^{x+T} f^-2 / (1 - e^{-2aT}).  RK4's fourth order shows as an error
    ratio near 16 between the two steps.  One pair of errors per x0 in
    (0.2, 1.7, 4.0).
    """
    a, T = 3.0, 2.0 * np.pi
    nodes, weights = np.polynomial.legendre.leggauss(96)
    toward_minus_inf = b0 < 0 if green is green_stable else b0 > 0

    def g(x):
        return a * x - np.cos(x) + np.sin(x)

    def f_times_I(x):
        z = x[:, None] + 0.5 * T * (nodes + 1.0)
        quad = 0.5 * T * (weights * np.exp(g(x)[:, None] - 2.0 * g(z))).sum(axis=1)
        return quad / (1.0 - np.exp(-2.0 * a * T))

    out = []
    for x0 in (0.2, 1.7, 4.0):
        errors = []
        for step in (0.02, 0.01):
            th = unit_tangent_from_direction(spec, x0, np.zeros(2), b0, [0.0, 0.0])
            sol = green(integrate_geodesic(spec, th, 8.0, step), t_obs=8.0, tol=1e-12)
            x = x0 + b0 * sol.times
            if toward_minus_inf:
                exact = np.exp(g(x) - g(x0))
            else:
                exact = f_times_I(x) / f_times_I(np.array([x0]))
            errors.append(np.max(np.abs(sol.modes[0] / exact[:, None] - 1.0)))
        out.append(errors)
    return out


class TestJacobiIVP:
    def test_flat_identity_constant(self):
        spec = _flat_warp()
        th = unit_tangent_from_direction(spec, 0.0, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(spec, th, 3.0, 0.01)
        sol = solve_jacobi_ivp(path, np.eye(2), np.zeros((2, 2)))
        assert np.max(np.abs(sol.Y - np.eye(2))) < 1e-13

    def test_decaying_exponential(self, const_spec):
        path = _const_path(const_spec)
        sol = solve_jacobi_ivp(path, np.eye(2), -np.eye(2))
        for c, t in enumerate(sol.times):
            assert np.max(np.abs(sol.Y[c] - np.exp(-t) * np.eye(2))) < 1e-7

    def test_cosh_growth(self, const_spec):
        path = _const_path(const_spec, t_end=3.0)
        sol = solve_jacobi_ivp(path, np.eye(2), np.zeros((2, 2)))
        for c, t in enumerate(sol.times):
            assert np.max(np.abs(sol.Y[c] - np.cosh(t) * np.eye(2))) < 1e-6

    def test_residual_and_wronskian_invariants(self, anosov_spec):
        path = _generic_anosov_path(anosov_spec)
        sol = solve_jacobi_ivp(path, np.eye(2), -np.eye(2))
        assert sol.residual_defect() < 1e-6
        assert sol.wronskian_defect() < 1e-8

    def test_no_focal_points_growth(self, anosov_spec, counter_spec):
        # J(0) = 0, J'(0) != 0: |J|^2 strictly increasing for t > 0
        for spec in (anosov_spec, counter_spec):
            th = unit_tangent_from_direction(spec, 0.1, np.zeros(2), 0.4, [0.7, 0.59])
            path = integrate_geodesic(spec, th, 50.0, 0.01, drift_tol=1e-5)
            sol = solve_jacobi_ivp(path, np.zeros((2, 2)), np.eye(2))
            for w in (np.array([1.0, 0.0]), np.array([0.3, -0.9])):
                norms2 = sol.field_norms(w)[1:] ** 2
                assert np.all(np.diff(norms2) > 0.0)


class TestBoundarySolutions:
    def test_flat_linear_profile(self):
        spec = _flat_warp()
        th = unit_tangent_from_direction(spec, 0.0, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(spec, th, 4.0, 0.01)
        sol = solve_boundary(path, 8.0)
        for c, t in enumerate(sol.times):
            assert np.max(np.abs(sol.Y[c] - (1.0 - t / 8.0) * np.eye(2))) < 1e-10

    @pytest.mark.parametrize("r", [8.0, 16.0])
    def test_hyperbolic_sinh_ratio(self, const_spec, r):
        path = _const_path(const_spec)
        sol = solve_boundary(path, r)
        for c, t in enumerate(sol.times):
            exact = np.sinh(r - t) / np.sinh(r) * np.eye(2)
            assert np.max(np.abs(sol.Y[c] - exact)) < 1e-7

    @pytest.mark.parametrize("r", [0.0, 0.004, -0.004])
    def test_endpoint_rounding_to_zero_is_a_domain_error(self, const_spec, r):
        # r is snapped to the grid of step 0.01 first; an endpoint that lands
        # on 0 is a bad input, not a conjugate point
        with pytest.raises(DomainError, match="round to 0"):
            solve_boundary(_const_path(const_spec), r)

    def test_endpoint_condition(self, anosov_spec):
        path = _generic_anosov_path(anosov_spec, t_end=4.0)
        sol = solve_boundary(path, 4.0)
        assert sol.meta["endpoint_norm"] < 1e-8

    def test_deep_horizon_no_overflow(self, const_spec):
        # far beyond where naive shooting loses all digits to cancellation
        path = _const_path(const_spec, t_end=30.0, step=0.01)
        sol = solve_boundary(path, 60.0)
        for t in (10.0, 20.0, 30.0):
            c = sol.index_of(t)
            assert sol.Y[c][0, 0] == pytest.approx(np.exp(-t), rel=1e-6)

    @pytest.mark.parametrize("b0", [-1.0, 1.0])
    @pytest.mark.parametrize("x0", [-2.0, 0.5, 3.0])
    def test_counterexample_axis_two_point_closed_form(self, counter_spec, x0, b0):
        # on the axis x = x0 + b0 t both modes solve y'' = h(x) y, and so do
        # f = sqrt(1 + x^2) and f arctan x (reduction of order, f^-2 = 1/(1 + x^2));
        # RK4's fourth order shows as an error ratio near 16 between the steps
        r = 20.0
        x_r = x0 + b0 * r
        errors = []
        for step in (0.02, 0.01):
            th = unit_tangent_from_direction(counter_spec, x0, np.zeros(2), b0, [0.0, 0.0])
            sol = solve_boundary(integrate_geodesic(counter_spec, th, 8.0, step), r)
            x = x0 + b0 * sol.times
            exact = np.hypot(1.0, x) * (np.arctan(x_r) - np.arctan(x))
            exact /= np.hypot(1.0, x0) * (np.arctan(x_r) - np.arctan(x0))
            errors.append(np.max(np.abs(sol.modes[0] / exact[:, None] - 1.0)))
        assert errors[0] < 1e-8
        assert errors[0] / errors[1] >= 12.0

    def test_ladder_gaps_shrink_monotonically(self, counter_spec):
        th = unit_tangent_from_direction(counter_spec, 0.0, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(counter_spec, th, 10.0, 0.05, drift_tol=1e-4)
        with pytest.raises(GreenNotConverged) as err:
            green_stable(path, t_obs=10.0, tol=1e-10, r0=32.0, max_doublings=4, drift_tol=1e-3)
        gaps = err.value.gaps
        assert len(gaps) >= 3
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


class TestGreenStable:
    def test_flat_limit_is_identity(self):
        spec = _flat_warp()
        th = unit_tangent_from_direction(spec, 0.0, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(spec, th, 2.0, 0.05)
        sol = green_stable(path, t_obs=2.0, tol=5e-3, r0=8.0, max_doublings=8)
        # iterates approach the limit at rate t_obs / r
        assert np.max(np.abs(sol.Y - np.eye(2))) < 1e-2
        assert np.max(np.abs(sol.meta["Us0"])) < 5e-3

    def test_hyperbolic_limit(self, const_spec):
        path = _const_path(const_spec)
        sol = green_stable(path, t_obs=5.0, tol=1e-8)
        for c, t in enumerate(sol.times):
            assert np.max(np.abs(sol.Y[c] - np.exp(-t) * np.eye(2))) < 1e-7
        assert np.max(np.abs(sol.meta["Us0"] + np.eye(2))) < 1e-7

    def test_nonvanishing_and_monotone_norms(self, anosov_spec):
        path = _generic_anosov_path(anosov_spec)
        sol = green_stable(path, t_obs=8.0, tol=1e-8, drift_tol=1e-6)
        dets = np.abs(sol.det_series())
        assert np.all(dets > 0.0)
        for w in (np.array([1.0, 0.0]), np.array([0.5, 0.5])):
            norms = sol.field_norms(w)
            assert np.all(np.diff(norms) <= 1e-9)

    def test_initial_slope_symmetric(self, anosov_spec):
        # limit two-point solutions carry a symmetric initial slope matrix
        path = _generic_anosov_path(anosov_spec, t_end=6.0)
        sol = green_stable(path, t_obs=6.0, tol=1e-8, drift_tol=1e-6)
        U = sol.meta["Us0"]
        assert np.max(np.abs(U - U.T)) < 1e-9

    def test_ladder_memory_per_grown_node(self):
        # past the window the ladder grows a (k1, k2) table, not a stored
        # path with state, frame and K (about 700 B per fine node)
        spec, step, t_obs = scenarios.build_counterexample(n=3), 0.05, 10.0
        th = unit_tangent_from_direction(spec, 0.0, np.zeros(3), 1.0, np.zeros(3))
        path = integrate_geodesic(spec, th, t_obs, step, drift_tol=1e-4)
        tracemalloc.start()
        try:
            with pytest.raises(GreenNotConverged) as err:
                green_stable(path, t_obs=t_obs, tol=1e-10, r0=32.0, max_doublings=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grown = 2 * round((err.value.last_solution.meta["r_ladder"][-1] - t_obs) / step)
        assert grown == 4720
        assert peak < 128 * grown

    def test_counterexample_ray_closed_form(self, counter_spec):
        # along the ray, the bounded two-point limit is
        # (2/pi) sqrt(1+t^2) (pi/2 - arctan t); finite-r solves approach it
        # at rate t_obs / r
        th = unit_tangent_from_direction(counter_spec, 0.0, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(counter_spec, th, 20.0, 0.1, drift_tol=1e-3)
        sol = solve_boundary(path, 1500.0, drift_tol=1e-2)
        for t in (0.0, 5.0, 10.0, 20.0):
            exact = (2.0 / np.pi) * np.sqrt(1 + t * t) * (np.pi / 2.0 - np.arctan(t))
            assert sol.Y[sol.index_of(t)][0, 0] == pytest.approx(exact, abs=2.5 * 20.0 / 1500.0)
        assert sol.Yp[sol.index_of(0.0)][0, 0] == pytest.approx(-2.0 / np.pi, abs=5e-3)

    @pytest.mark.parametrize("b0", [-1.0, 1.0])
    def test_pole_limits_closed_form(self, anosov_spec, b0):
        """Stable limits on the axis geodesics of the periodic warp, against closed forms (``_pole_limit_errors``)."""
        for errors in _pole_limit_errors(anosov_spec, green_stable, b0):
            assert errors[0] < 1e-5
            assert errors[0] / errors[1] >= 12.0


class TestGreenUnstable:
    def test_flat_limit(self):
        spec = _flat_warp()
        th = unit_tangent_from_direction(spec, 0.0, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(spec, th, 2.0, 0.05)
        sol = green_unstable(path, t_obs=2.0, tol=5e-3, r0=8.0, max_doublings=8)
        assert np.max(np.abs(sol.Y - np.eye(2))) < 1e-2

    def test_hyperbolic_growth(self, const_spec):
        path = _const_path(const_spec, t_end=3.0)
        sol = green_unstable(path, t_obs=3.0, tol=1e-8)
        for c, t in enumerate(sol.times):
            assert np.max(np.abs(sol.Y[c] - np.exp(t) * np.eye(2))) < 1e-6

    @pytest.mark.parametrize("name", sorted(ROUTE_DATA))
    def test_equals_reversed_stable_limit_of_flipped_geodesic(self, name):
        # the stable construction along the velocity-reversed geodesic, on
        # [-t_obs, 0] and read backwards in time with y' negated, gives the
        # same bits as the direct negative-endpoint ladder
        build, (x0, b0, u), step, drift, doublings, converges = ROUTE_DATA[name]
        spec, t_obs = build(), 6.0
        th = unit_tangent_from_direction(spec, x0, np.zeros(spec.n), b0, u)
        path = integrate_geodesic(spec, th, t_obs, step, drift_tol=drift)
        fpath = integrate_geodesic(spec, flip(th), t_obs, step, drift_tol=drift)
        kw = dict(tol=1e-9, max_doublings=doublings)
        direct, ok = _limit(green_unstable, path, t_obs, **kw)
        stable, ok_flipped = _limit(green_stable, fpath, t_obs, window=(-t_obs, 0.0), **kw)
        assert ok == ok_flipped == converges
        assert np.array_equal(direct.times, -stable.times[::-1])
        y, yp = stable.modes
        assert np.array_equal(direct.modes[0], y[::-1])
        assert np.array_equal(direct.modes[1], -yp[::-1])
        assert direct.meta["gaps"] == stable.meta["gaps"]

    def test_norms_non_decreasing(self, anosov_spec):
        path = _generic_anosov_path(anosov_spec, t_end=6.0)
        sol = green_unstable(path, t_obs=6.0, tol=1e-8, drift_tol=1e-6)
        for w in (np.array([1.0, 0.0]), np.array([0.2, 0.98])):
            assert np.all(np.diff(sol.field_norms(w)) >= -1e-9)


    @pytest.mark.parametrize("b0", [-1.0, 1.0])
    def test_pole_limits_closed_form(self, anosov_spec, b0):
        """Unstable limits on the axis geodesics of the periodic warp, against closed forms (``_pole_limit_errors``)."""
        for errors in _pole_limit_errors(anosov_spec, green_unstable, b0):
            assert errors[0] < 1e-5
            assert errors[0] / errors[1] >= 12.0


class TestRiccati:
    def test_constant_curvature_stable_value(self, const_spec):
        path = _const_path(const_spec)
        sol = green_stable(path, t_obs=5.0, tol=1e-8)
        series = riccati_along(sol, np.array([1.0, 0.0]))
        assert np.max(np.abs(series.z + 2.0)) < 1e-6

    def test_flat_zero(self):
        spec = _flat_warp()
        th = unit_tangent_from_direction(spec, 0.0, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(spec, th, 2.0, 0.05)
        sol = green_stable(path, t_obs=2.0, tol=5e-3, r0=8.0, max_doublings=8)
        series = riccati_along(sol, np.array([1.0, 0.0]))
        assert np.max(np.abs(series.z)) < 2e-2

    def test_bound_and_residual_on_scenario(self, anosov_spec):
        th = unit_tangent_from_direction(anosov_spec, 0.2, np.zeros(2), 0.3, [0.8, 0.52])
        path = integrate_geodesic(anosov_spec, th, 8.0, 1e-3, drift_tol=1e-7)
        sol = green_stable(path, t_obs=8.0, tol=1e-8, drift_tol=1e-7)
        c = np.sqrt(anosov_spec.curvature_bound())
        dirs = sasaki_orthonormal_directions(sol.meta["Us0"])
        for i in range(2):
            series = riccati_along(sol, dirs[:, i])
            assert np.max(np.abs(series.z)) <= 2.0 * c + 1e-6
            assert series.max_residual() < 1e-5
            assert series.average_identity_defect() < 1e-6

    @pytest.mark.parametrize("step", [0.005, 0.01])
    @pytest.mark.parametrize("build, u", [
        (lambda: scenarios.build_anosov_example(3.0, n=2), [0.6, 0.742]),
        (lambda: scenarios.build_anosov_example(3.0, n=3), [0.6, 0.5, 0.3]),
        (lambda: scenarios.build_counterexample(n=2), [0.7, 0.707]),
    ], ids=["periodic", "periodic-n3", "counterexample"])
    def test_kappa_is_the_sectional_curvature_of_the_plane(self, build, u, step):
        # kappa comes from the (k1, k2) table; the geometry module evaluates
        # the curvature of the plane (gamma', J) from its wedge minors, with
        # J = sum_i J_i V_i built from the frame rows (alpha_i, beta_i)
        spec = build()
        th = unit_tangent_from_direction(spec, 0.4, np.zeros(spec.n), -0.3, u)
        path = integrate_geodesic(spec, th, 4.0, step, drift_tol=1e-5)
        sol = solve_boundary(path, 6.0)
        w = np.linspace(1.0, 0.4, spec.n)
        series = riccati_along(sol, w)
        alpha, beta = path.alpha, path.beta
        errors = []
        for c, t in enumerate(series.times):
            j = path.fine_index(t)
            J = sol.Y[c] @ w
            state = path.state_at(t)
            f = float(spec.f(state.x))
            field = TangentVector(x=state.x, y=state.y, dx=J @ alpha[j], dy=(J @ beta[j]) / f)
            kappa = sectional_curvature(spec, (state.x, state.y), state.as_tangent_vector(), field)
            errors.append(abs(series.kappa[c] - kappa) / (1.0 + abs(kappa)))
        assert max(errors) <= 1e-13

    def test_vanishing_field_raises(self, const_spec):
        # the swept limit solution really decays to e^{-40} < 1e-12 (a
        # forward IVP would instead be swamped by the growing mode)
        path = _const_path(const_spec, t_end=40.0, step=0.02)
        sol = green_stable(path, t_obs=40.0, tol=1e-8)
        with pytest.raises(VanishingJacobiField):
            riccati_along(sol, np.array([1.0, 0.0]))
        series = riccati_along(sol, np.array([1.0, 0.0]), t_max=20.0)
        assert np.max(np.abs(series.z + 2.0)) < 1e-4


class TestDphiNorm:
    def test_normalized_at_zero(self, const_spec):
        path = _const_path(const_spec)
        sol = green_stable(path, t_obs=5.0, tol=1e-8)
        assert dphi_norm(sol, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_hyperbolic_decay_rate(self, const_spec):
        path = _const_path(const_spec)
        sol = green_stable(path, t_obs=5.0, tol=1e-8)
        series = dphi_norm_series(sol)
        for c, t in enumerate(sol.times):
            assert series[c] == pytest.approx(np.exp(-t), abs=1e-6)

    def test_flat_constant(self):
        spec = _flat_warp()
        th = unit_tangent_from_direction(spec, 0.0, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(spec, th, 2.0, 0.05)
        sol = green_stable(path, t_obs=2.0, tol=5e-3, r0=8.0, max_doublings=8)
        series = dphi_norm_series(sol)
        assert np.max(np.abs(series - series[0])) < 2e-2


class TestPropositionBounds:
    def test_slope_bounded_by_curvature_constant(self, anosov_spec, counter_spec, rng):
        # |J'| <= c |J| for stable and unstable limit fields
        for spec, step, drift in ((anosov_spec, 0.005, 1e-6), (counter_spec, 0.05, 1e-3)):
            c = np.sqrt(spec.curvature_bound())
            th = unit_tangent_from_direction(spec, 0.3, np.zeros(2), 0.2, [0.6, 0.77])
            path = integrate_geodesic(spec, th, 10.0, step, drift_tol=drift)
            try:
                sol = green_stable(path, t_obs=10.0, tol=1e-8, max_doublings=6, drift_tol=drift)
            except GreenNotConverged as err:
                sol = err.last_solution
            for _ in range(10):
                w = rng.randn(2)
                jn = sol.field_norms(w)
                jpn = np.sqrt(np.einsum("ci,ci->c", *(np.einsum("cij,j->ci", sol.Yp, w),) * 2))
                assert np.all(jpn <= c * jn + 1e-6)
