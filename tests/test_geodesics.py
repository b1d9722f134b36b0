import numpy as np
import pytest

from warpflow import engine, scenarios
from warpflow.errors import DomainError, IntegratorDrift
from warpflow.geodesics import (
    _SERIES,
    UnitTangent,
    flip,
    integrate_geodesic,
    integrate_window,
    scalar_velocity,
    scalar_velocity_series,
    unit_tangent,
    unit_tangent_from_direction,
)
from warpflow.warp import WarpSpec

import kernel_oracle


def _flat_warp(n=2):
    def triple(x):
        x = np.asarray(x, float)
        z = np.zeros_like(x)
        return z, z, z

    return WarpSpec(name="flat", n=n, triple=triple, c_squared=0.0)


def _identity_warp(n=2):
    def triple(x):
        x = np.asarray(x, float)
        return x, np.ones_like(x), np.zeros_like(x)

    return WarpSpec(name="g(x)=x", n=n, triple=triple, c_squared=1.0)


class TestUnitTangent:
    def test_normalization(self, anosov_spec):
        th = unit_tangent(anosov_spec, 0.5, np.zeros(2), 3.0, [0.1, 0.2])
        assert th.speed(anosov_spec) == pytest.approx(1.0, abs=1e-12)

    def test_validation_rejects_nonunit(self, anosov_spec):
        with pytest.raises(DomainError):
            unit_tangent(anosov_spec, 0.5, np.zeros(2), 3.0, [0.1, 0.2], normalize=False)

    def test_direction_construction(self, anosov_spec):
        th = unit_tangent_from_direction(anosov_spec, 1.2, np.zeros(2), 0.6, [0.8, 0.0])
        assert th.speed(anosov_spec) == pytest.approx(1.0, abs=1e-10)
        u0, u = th.frame_velocity(anosov_spec)
        assert u0 == pytest.approx(0.6, rel=1e-12)
        assert np.allclose(u, [0.8, 0.0], rtol=1e-12)

    @pytest.mark.parametrize("u0, u", [(0.0, [0.0, 0.0]), (np.nan, [0.8, 0.0]), (0.6, [np.inf, 0.0])],
                             ids=["zero", "nan_u0", "inf_u"])
    def test_direction_rejects_degenerate_velocity(self, anosov_spec, u0, u):
        with pytest.raises(DomainError, match="zero or non-finite velocity"):
            unit_tangent_from_direction(anosov_spec, 1.2, np.zeros(2), u0, u)

    def test_large_finite_velocities_are_normalized(self, anosov_spec):
        # squaring 1e200 overflows; scaled by a power of two first it does not
        th = unit_tangent_from_direction(anosov_spec, 0.0, np.zeros(2), 1e200, [1e200, 0.0])
        u0, u = th.frame_velocity(anosov_spec)
        assert u0 == pytest.approx(np.sqrt(0.5), rel=1e-15) and u == pytest.approx([np.sqrt(0.5), 0.0], rel=1e-15)
        th = unit_tangent(anosov_spec, 0.0, np.zeros(2), 1e200, [0.0, 0.0])
        assert th.dx == 1.0 and np.array_equal(th.dy, [0.0, 0.0])

    @pytest.mark.parametrize("dx, dy", [(0.0, [0.0, 0.0]), (np.nan, [0.1, 0.0]), (1.0, [0.0, np.nan])],
                             ids=["zero", "nan_dx", "nan_dy"])
    def test_rejects_degenerate_velocity(self, anosov_spec, dx, dy):
        with pytest.raises(DomainError, match="zero or non-finite velocity"):
            unit_tangent(anosov_spec, 1.2, np.zeros(2), dx, dy)

    def test_speed_keeps_the_bits_of_the_plain_formula(self, anosov_spec):
        rng = np.random.default_rng(5)
        for _ in range(200):
            dx, dy = rng.standard_normal() * 10.0 ** rng.uniform(-50, 50), rng.standard_normal(2)
            th = UnitTangent(x=0.7, y=np.zeros(2), dx=dx, dy=dy)
            f = float(anosov_spec.f(0.7))
            assert th.speed(anosov_spec) == float(np.sqrt(dx * dx + f * f * np.dot(dy, dy)))


class TestIntegrateGeodesic:
    def test_flat_straight_line(self):
        spec = _flat_warp()
        th = unit_tangent_from_direction(spec, 0.0, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(spec, th, 5.0, 0.01)
        assert np.max(np.abs(path.x - path.times_fine)) < 1e-12
        assert path.max_unit_defect < 1e-14

    def test_axis_geodesic_is_exact_translation(self, anosov_spec):
        # |x'| = 1 start: x(t) = x0 + t, fiber frozen
        th = unit_tangent_from_direction(anosov_spec, 0.25, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(anosov_spec, th, 10.0, 0.01)
        assert np.max(np.abs(path.x - (0.25 + path.times_fine))) < 1e-12
        assert np.max(np.abs(path.u)) == 0.0

    def test_initial_acceleration_from_reduction(self):
        # x'' (0) = g'(0)(1 - x'(0)^2) = 1 for g(x) = x and a vertical start
        spec = _identity_warp()
        th = unit_tangent_from_direction(spec, 0.0, np.zeros(2), 0.0, [1.0, 0.0])
        path = integrate_geodesic(spec, th, 0.1, 0.001)
        h = path.step / 2.0
        xpp = (path.x[2] - 2.0 * path.x[1] + path.x[0]) / (h * h)
        assert xpp == pytest.approx(1.0, abs=1e-6)

    def test_fine_indices_of_grid_times(self, anosov_spec):
        th = unit_tangent_from_direction(anosov_spec, 0.3, np.zeros(2), 0.2, [0.5, 0.84])
        path = integrate_window(anosov_spec, th, -1.0, 2.0, 0.01)
        times = path.times_fine[::3]
        assert np.array_equal(path.fine_indices(times), np.arange(0, len(path.times_fine), 3))
        assert path.fine_index(0.0) == path.t0_index
        for bad in ([0.0, 0.003], [2.005], [-1.005, 0.0], [np.nan]):
            with pytest.raises(DomainError, match="not on the path grid"):
                path.fine_indices(bad)

    def test_momentum_and_unit_speed_defects(self, anosov_spec):
        th = unit_tangent_from_direction(anosov_spec, 0.3, np.zeros(2), 0.2, [0.5, 0.84])
        path = integrate_geodesic(anosov_spec, th, 20.0, 1e-3)
        assert path.max_unit_defect < 1e-8
        assert path.max_momentum_defect < 1e-8

    def test_drift_guard_raises(self, anosov_spec):
        th = unit_tangent_from_direction(anosov_spec, 0.3, np.zeros(2), 0.2, [0.5, 0.84])
        with pytest.raises(IntegratorDrift):
            integrate_geodesic(anosov_spec, th, 20.0, 0.1, drift_tol=1e-12)

    def test_backward_integration(self, const_spec):
        th = unit_tangent_from_direction(const_spec, 0.0, np.zeros(2), 0.3, [0.954, 0.0])
        path = integrate_geodesic(const_spec, th, -5.0, 0.01)
        assert path.t_lo == pytest.approx(-5.0)
        assert path.t_hi == pytest.approx(0.0)
        assert path.times_fine[path.t0_index] == pytest.approx(0.0)

    def test_window_gluing_consistent(self, const_spec):
        th = unit_tangent_from_direction(const_spec, 0.0, np.zeros(2), 0.3, [0.954, 0.0])
        win = integrate_window(const_spec, th, -2.0, 3.0, 0.01)
        fwd = integrate_geodesic(const_spec, th, 3.0, 0.01)
        back = integrate_geodesic(const_spec, th, -2.0, 0.01)
        j0 = win.t0_index
        assert j0 == back.t0_index and fwd.t0_index == 0
        for key in (*_SERIES, "K"):
            assert np.array_equal(getattr(win, key)[j0:], getattr(fwd, key)), key
            assert np.array_equal(getattr(win, key)[: j0 + 1], getattr(back, key)), key

    def test_extension_reports_its_momentum_defect(self, anosov_spec):
        th = unit_tangent_from_direction(anosov_spec, 0.3, np.zeros(2), 0.3, [0.8, 0.52])
        path = integrate_geodesic(anosov_spec, th, 2.0, 0.02, drift_tol=1e-5)
        longer = integrate_geodesic(anosov_spec, th, 40.0, 0.02, drift_tol=None)
        series_max = float(np.max(longer.momentum_defect_series()))
        assert series_max > 2.0 * path.max_momentum_defect
        assert longer.max_momentum_defect == pytest.approx(series_max, rel=1e-12)
        assert path.max_momentum_defect < series_max  # the shorter path keeps its own defects


class TestFiberPosition:
    # on g = kx the slice is a hyperbolic half-plane in (Y, z), z = e^{-kx}/k,
    # with Y = (y - y0).e: a geodesic is a semicircle about the centre
    # Y - z u0/s on z = 0, which therefore stays constant along it
    # n: (k, x0, b0, u)
    DATA = {1: (1.0, 0.3, -0.4, [0.9]), 2: (1.0, 0.2, 0.3, [0.6, -0.7]),
            3: (2.0, -0.1, -0.2, [0.5, 0.3, -0.6])}

    @pytest.mark.parametrize("n", sorted(DATA))
    def test_half_plane_centre_is_constant(self, n):
        k, x0, b0, u = self.DATA[n]
        spec = scenarios.build_constant_curvature(k, n=n)
        y0 = np.linspace(0.5, 1.5, n)
        th = unit_tangent_from_direction(spec, x0, y0, b0, u)
        spreads = []
        for step in (0.01, 0.005):
            path = integrate_geodesic(spec, th, 6.0, step)
            e = path.frame[0]
            dy = path.y - y0
            Y, s = dy @ e, path.u @ e
            assert np.abs(dy - Y[:, None] * e).max() <= 1e-13 * (1.0 + np.abs(Y).max())
            centre = Y - np.exp(-k * path.x) / k * path.u0 / s
            spreads.append(np.ptp(centre))
        assert spreads[0] < 1e-9
        assert spreads[0] / spreads[1] >= 8.0


class TestStoredRunOracle:
    """Stored runs step (x, u0, s) alone and add Y by block quadrature, with the bits of the in-loop Y row."""

    KEYS = ("x", "u0", "s", "Y", "p", "unit_defect", "curvatures", "final_state")

    @pytest.mark.parametrize("warp", ["anosov_spec", "counter_spec", "const_spec"])
    # 601 fine nodes carry Y across two block boundaries; 257 leave one node to the last block
    @pytest.mark.parametrize("t1", [3.0, -3.0, -1.28])
    @pytest.mark.parametrize("resumed", [False])
    def test_bits_equal_in_loop_y(self, warp, t1, resumed, request):
        spec = request.getfixturevalue(warp)
        state, e = engine.slice_state(
            np.array([0.4, -1.3, 2.2]), np.array([0.6, -0.9, 0.0]),
            np.array([[0.8, 0.0], [0.3, -0.3], [-0.6, 0.8]]),
        )
        run = engine.integrate_states(spec, state, e, t0=0.5, t1=0.5 + t1, step=0.01)
        assert len(run["times_fine"]) > engine._BLOCK_NODES
        ref = kernel_oracle.stored_run(spec, state, t0=0.5, t1=0.5 + t1, step=0.01)
        for key in self.KEYS:
            assert np.array_equal(run[key], ref[key]), key


class TestScalarVelocity:
    def test_fixed_point(self, anosov_spec):
        assert scalar_velocity(anosov_spec, 1.0, 7.0) == 1.0

    def test_tanh_closed_form(self):
        spec = _identity_warp()
        times, b, _ = scalar_velocity_series(spec, 0.0, 5.0, step=1e-3)
        assert np.max(np.abs(b - np.tanh(times))) < 1e-12

    def test_domain_error(self, anosov_spec):
        with pytest.raises(DomainError):
            scalar_velocity(anosov_spec, 1.5, 1.0)

    def test_nan_b0_fails_before_integrating(self, anosov_spec):
        with pytest.raises(DomainError, match=r"\|b0\|"):
            scalar_velocity_series(anosov_spec, np.nan, 50.0, step=0.01)

    def test_off_grid_t_end_snaps_to_the_step_grid(self):
        # b = tanh t; t_end = 1 is not a multiple of 0.3, so the last node is t = 0.9
        times, b, _ = scalar_velocity_series(_identity_warp(), 0.0, 1.0, step=0.3)
        assert np.array_equal(times, 0.3 * np.arange(4))
        assert np.max(np.abs(b - np.tanh(times))) < 1e-3

    def test_growth_sandwich_strict(self, anosov_spec):
        # log-odds form of the two-sided bound: strict at every grid time
        c1, c2 = anosov_spec.growth_bounds
        for b0 in (-0.9, -0.3, 0.0, 0.4, 0.95):
            times, b, ell = scalar_velocity_series(anosov_spec, b0, 50.0, step=2e-3)
            ell0 = np.log((1 + b0) / (1 - b0))
            lo = ell0 + c1 * times[1:]
            hi = ell0 + c2 * times[1:]
            assert np.all(ell[1:] > lo)
            assert np.all(ell[1:] < hi)

    def test_matches_full_integrator(self, anosov_spec):
        # backward, b -> -1 exercises the log1p(|b|) branch of the log-odds
        b0, x0 = 0.37, 0.8
        rest = np.sqrt(1 - b0 * b0)
        th = unit_tangent_from_direction(anosov_spec, x0, np.zeros(2), b0, [rest, 0.0])
        for t_end, end in ((5.0, -1), (-5.0, 0)):
            path = integrate_geodesic(anosov_spec, th, t_end, 1e-3)
            b_scalar = scalar_velocity(anosov_spec, b0, t_end, x0=x0, step=1e-3)
            assert path.u0[end] == pytest.approx(b_scalar, abs=1e-10)


def _frame_gram(path):
    """Gram matrices <V_i, V_k> (J, n, n) of the frame rows V_i = (alpha_i, beta_i) at every fine node."""
    vecs = np.concatenate([path.alpha[:, :, None], path.beta], axis=2)
    return np.einsum("jid,jkd->jik", vecs, vecs)


class TestParallelFrame:
    def test_flat_frame_constant(self):
        spec = _flat_warp()
        th = unit_tangent_from_direction(spec, 0.0, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(spec, th, 2.0, 0.01)
        alpha, beta = path.alpha, path.beta
        assert np.max(np.abs(alpha - alpha[0])) < 1e-14
        assert np.max(np.abs(beta - beta[0])) < 1e-14

    def test_axis_geodesic_scaled_fiber_fields(self, anosov_spec):
        # along |x'| = 1 geodesics the fields f^{-1} d_{y_i} are parallel:
        # in the orthonormal basis they are the constant coordinate fields
        th = unit_tangent_from_direction(anosov_spec, 0.0, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(anosov_spec, th, 10.0, 0.01)
        assert np.max(np.abs(path.alpha)) < 1e-8
        beta = path.beta
        assert np.max(np.abs(beta - beta[0])) < 1e-8

    def test_orthonormality_long_horizon(self, anosov_spec):
        th = unit_tangent_from_direction(anosov_spec, 0.4, np.zeros(2), -0.3, [0.6, 0.742])
        path = integrate_geodesic(anosov_spec, th, 50.0, 0.01, drift_tol=1e-5)
        gram = _frame_gram(path) - np.eye(2)
        assert np.max(np.abs(gram)) < 1e-8

    def test_transport_preserves_metric_inner_products(self, counter_spec):
        th = unit_tangent_from_direction(counter_spec, 0.5, np.zeros(2), 0.1, [0.7, 0.707])
        path = integrate_geodesic(counter_spec, th, 30.0, 0.01, drift_tol=1e-6)
        gram = _frame_gram(path)
        for j in (0, len(path.times_fine) // 2, len(path.times_fine) - 1):
            assert np.max(np.abs(gram[j] - np.eye(2))) < 1e-8


class TestFlip:
    def test_involution(self, anosov_spec):
        th = unit_tangent_from_direction(anosov_spec, 0.3, np.zeros(2), 0.5, [0.6, 0.62])
        back = flip(flip(th))
        assert back.dx == th.dx
        assert np.all(back.dy == th.dy)

    def test_flip_preserves_unit_speed_exactly(self, anosov_spec):
        th = unit_tangent_from_direction(anosov_spec, 0.3, np.zeros(2), 0.5, [0.6, 0.62])
        assert flip(th).speed(anosov_spec) == th.speed(anosov_spec)

    def test_time_reversal(self, anosov_spec):
        th = unit_tangent_from_direction(anosov_spec, 0.3, np.zeros(2), 0.5, [0.6, 0.62])
        fwd = integrate_geodesic(anosov_spec, flip(th), 10.0, 0.005, drift_tol=1e-6)
        back = integrate_geodesic(anosov_spec, th, -10.0, 0.005, drift_tol=1e-6)
        # gamma_{flip(theta)}(t) = gamma_theta(-t) with reversed velocity
        assert np.max(np.abs(fwd.x - back.x[::-1])) < 1e-9
        assert np.max(np.abs(fwd.u0 + back.u0[::-1])) < 1e-9
        assert np.max(np.abs(fwd.u + back.u[::-1])) < 1e-9


class TestConvergenceOrder:
    def test_fourth_order_defect_reduction(self):
        # measured where truncation dominates the double-precision floor
        spec = _identity_warp()
        th = unit_tangent_from_direction(spec, 0.0, np.zeros(2), 0.0, [1.0, 0.0])
        u0, u = th.frame_velocity(spec)
        d_coarse = engine.conservation_scan(spec, [th.x], [th.y], [u0], [u], t_end=20.0, step=0.02)
        d_fine = engine.conservation_scan(spec, [th.x], [th.y], [u0], [u], t_end=20.0, step=0.01)
        coarse = max(d_coarse[0][0], d_coarse[1][0])
        fine = max(d_fine[0][0], d_fine[1][0])
        assert coarse / fine >= 8.0


class TestWarpDomain:
    """The kernels evaluate the warp unchecked and test finiteness per block of nodes."""

    @staticmethod
    def _linear_warp():
        def triple(x):
            x = np.asarray(x, float)
            f = 1.0 - x / 4.0
            gp = -0.25 / f
            return np.log(f), gp, -gp * gp

        return WarpSpec(name="linear", n=2, triple=triple)

    def test_non_finite_start_raises(self, anosov_spec):
        state, e = engine.slice_state(np.array([np.nan]), np.array([0.6]), np.array([[0.8, 0.0]]))
        for store in (True, False):
            with pytest.raises(DomainError):
                engine.integrate_states(anosov_spec, state, e, t0=0.0, t1=1.0, step=0.1, store=store)

    @pytest.mark.parametrize("store", [True, False])
    def test_axis_geodesic_through_zero_of_f_raises(self, store):
        # x = t along the axis, so f = 1 - x/4 vanishes at t = 4 and is negative after;
        # stored or not, the run stops in the block of 256 nodes that reaches it
        spec = self._linear_warp()
        state, e = engine.slice_state(np.array([0.0]), np.array([1.0]), np.array([[0.0, 0.0]]))
        with pytest.raises(DomainError, match=r"between t = 3\.84 and 5\.115"):
            engine.integrate_states(spec, state, e, t0=0.0, t1=10.0, step=0.01, store=store)

    def test_scalar_series_non_finite_start_raises(self, anosov_spec):
        with pytest.raises(DomainError):
            scalar_velocity_series(anosov_spec, 0.5, 1.0, x0=np.nan)

    def test_scalar_series_step_past_zero_of_f_raises(self):
        # f = 1 - x^2/16; the exact orbit turns before x = 4, steps of 0.5 overshoot it
        def triple(x):
            x = np.asarray(x, float)
            f = 1.0 - x * x / 16.0
            gp = (-x / 8.0) / f
            return np.log(f), gp, (-1.0 / 8.0) / f - gp * gp

        spec = WarpSpec(name="cap", n=1, triple=triple)
        with pytest.raises(DomainError):
            scalar_velocity_series(spec, 0.999, 20.0, step=0.5)
        assert np.isfinite(scalar_velocity_series(spec, 0.999, 20.0, step=0.1)[2]).all()
