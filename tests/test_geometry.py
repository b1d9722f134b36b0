import numpy as np
import pytest

from warpflow import scenarios
from warpflow.errors import DegeneratePlane, DomainError
from warpflow.geometry import (
    TangentVector,
    christoffel,
    curvature_matrix_along,
    curvature_tensor,
    metric_dot,
    sectional_curvature,
)
from warpflow.geodesics import integrate_geodesic, unit_tangent_from_direction
from warpflow.warp import WarpSpec

from fd_oracle import christoffel_dense, sectional_fd


def _vec(x, dx, dy):
    dy = np.atleast_1d(np.asarray(dy, float))
    return TangentVector(x=x, y=np.zeros(len(dy)), dx=dx, dy=dy)


def _identity_warp(n=2):
    def triple(x):
        x = np.asarray(x, float)
        return x, np.ones_like(x), np.zeros_like(x)

    return WarpSpec(name="g(x)=x", n=n, triple=triple, c_squared=1.0)


def _flat_warp(n=2):
    def triple(x):
        x = np.asarray(x, float)
        z = np.zeros_like(x)
        return z, z, z

    return WarpSpec(name="flat", n=n, triple=triple, c_squared=0.0)


class TestMetricDot:
    def test_flat_product_axis_vector(self):
        spec = _flat_warp()
        u = _vec(0.0, 1.0, [0.0, 0.0])
        assert metric_dot(spec, (0.0, np.zeros(2)), u, u) == 1.0

    def test_unit_fiber_vector_at_origin(self):
        spec = _identity_warp()
        u = _vec(0.0, 0.0, [1.0, 0.0])
        assert metric_dot(spec, (0.0, np.zeros(2)), u, u) == pytest.approx(1.0, abs=1e-15)

    def test_fiber_weight_is_f_squared(self):
        # f(ln 2) = 2, so the fiber direction weighs f^2 = 4
        spec = _identity_warp()
        x = np.log(2.0)
        u = _vec(x, 0.0, [1.0, 0.0])
        assert metric_dot(spec, (x, np.zeros(2)), u, u) == pytest.approx(4.0, rel=1e-14)

    def test_rejects_mismatched_base(self):
        spec = _identity_warp()
        u = _vec(0.0, 1.0, [0.0, 0.0])
        w = _vec(0.5, 1.0, [0.0, 0.0])
        with pytest.raises(DomainError):
            metric_dot(spec, (0.0, np.zeros(2)), u, w)


class TestChristoffel:
    def test_flat_symbols_vanish(self):
        table = christoffel(_flat_warp(), 0.3)
        assert table.gamma_x_yy == 0.0
        assert table.gamma_y_xy == 0.0

    def test_identity_warp_at_origin(self):
        table = christoffel(_identity_warp(), 0.0)
        assert table.gamma_x_yy == pytest.approx(-1.0, rel=1e-14)
        assert table.gamma_y_xy == pytest.approx(1.0, rel=1e-14)

    def test_sqrt_warp_at_one(self, counter_spec):
        # f = sqrt(1+x^2): f'f = x, f'/f = x/(1+x^2)
        table = christoffel(counter_spec, 1.0)
        assert table.gamma_x_yy == pytest.approx(-1.0, rel=1e-12)
        assert table.gamma_y_xy == pytest.approx(0.5, rel=1e-12)

    def test_against_metric_differences(self, anosov_spec):
        dense = christoffel_dense(anosov_spec, 0.4)
        table = christoffel(anosov_spec, 0.4)
        assert dense[0, 1, 1] == pytest.approx(table.gamma_x_yy, rel=1e-6)
        assert dense[1, 0, 1] == pytest.approx(table.gamma_y_xy, rel=1e-6)
        # everything not of those two shapes vanishes
        mask = np.ones_like(dense, dtype=bool)
        for i in (1, 2):
            mask[0, i, i] = False
            mask[i, 0, i] = False
            mask[i, i, 0] = False
        assert np.max(np.abs(dense[mask])) < 1e-6 * max(1.0, abs(table.gamma_x_yy))


class TestCurvatureTensor:
    def test_flat_tensor_vanishes(self):
        spec = _flat_warp()
        p = (0.2, np.zeros(2))
        A = _vec(0.2, 1.0, [0.3, -0.4])
        B = _vec(0.2, -0.5, [1.0, 0.2])
        C = _vec(0.2, 0.1, [0.0, 2.0])
        out = curvature_tensor(spec, p, A, B, C)
        assert abs(out.dx) < 1e-15
        assert np.max(np.abs(out.dy)) < 1e-15

    def test_identity_warp_radial_fiber_block(self):
        # R(d_x, V) d_x = -(f''/f) V = -V for constant curvature -1
        spec = _identity_warp()
        p = (0.0, np.zeros(2))
        A = _vec(0.0, 1.0, [0.0, 0.0])
        V = _vec(0.0, 0.0, [1.0, 0.0])
        out = curvature_tensor(spec, p, A, V, A)
        assert out.dx == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(out.dy, [-1.0, 0.0], atol=1e-14)

    def test_sqrt_warp_at_origin(self, counter_spec):
        p = (0.0, np.zeros(2))
        A = _vec(0.0, 1.0, [0.0, 0.0])
        V = _vec(0.0, 0.0, [1.0, 0.0])
        out = curvature_tensor(counter_spec, p, A, V, A)
        # f''(0)/f(0) = 1
        assert np.allclose(out.dy, [-1.0, 0.0], atol=1e-14)

    def test_algebraic_symmetries(self, anosov_spec, rng):
        spec = anosov_spec
        for _ in range(20):
            x = float(rng.uniform(-1.0, 1.0))
            p = (x, np.zeros(2))

            def unit(raw):
                nrm = np.sqrt(metric_dot(spec, p, raw, raw))
                return _vec(x, raw.dx / nrm, raw.dy / nrm)

            vecs = [
                unit(_vec(x, float(rng.randn()), rng.randn(2))) for _ in range(4)
            ]
            A, B, C, D = vecs

            def form(a, b, c, d):
                out = curvature_tensor(spec, p, a, b, c)
                return metric_dot(spec, p, out, d)

            r_abcd = form(A, B, C, D)
            assert form(B, A, C, D) == pytest.approx(-r_abcd, rel=1e-10, abs=1e-10)
            assert form(A, B, D, C) == pytest.approx(-r_abcd, rel=1e-10, abs=1e-10)
            assert form(C, D, A, B) == pytest.approx(r_abcd, rel=1e-10, abs=1e-10)
            bianchi = (
                np.array([curvature_tensor(spec, p, A, B, C).dx, *curvature_tensor(spec, p, A, B, C).dy])
                + np.array([curvature_tensor(spec, p, B, C, A).dx, *curvature_tensor(spec, p, B, C, A).dy])
                + np.array([curvature_tensor(spec, p, C, A, B).dx, *curvature_tensor(spec, p, C, A, B).dy])
            )
            assert np.max(np.abs(bianchi)) < 1e-9 * (1.0 + abs(r_abcd))


def _closed_form_mixed(spec, x, u, w_vert):
    """One spanning vector vertical: K = -(f''/f)|z|^2 - (f'/f)^2 |v|^2."""
    g, gp, gpp = (float(v) for v in spec.log_derivatives(np.asarray(x, float)))
    h = gpp + gp * gp
    f = np.exp(g)
    # orthonormalize (u, w) in the warped metric with w vertical
    wf = f * np.asarray(w_vert, float)
    wf /= np.linalg.norm(wf)
    uf = np.concatenate([[u[0]], f * np.asarray(u[1:], float)])
    uf -= (uf[1:] @ wf) * np.concatenate([[0.0], wf])
    uf /= np.linalg.norm(uf)
    z2 = uf[0] ** 2
    v2 = uf[1:] @ uf[1:]
    return -h * z2 - gp * gp * v2


class TestSectionalCurvature:
    def test_identity_warp_constant(self, rng):
        spec = _identity_warp()
        for _ in range(30):
            x = float(rng.uniform(-2.0, 2.0))
            p = (x, np.zeros(2))
            u = _vec(x, float(rng.randn()), rng.randn(2))
            w = _vec(x, float(rng.randn()), rng.randn(2))
            assert sectional_curvature(spec, p, u, w) == pytest.approx(-1.0, abs=1e-9)

    def test_sqrt_warp_ray_plane(self, counter_spec):
        p0 = (0.0, np.zeros(2))
        u = _vec(0.0, 1.0, [0.0, 0.0])
        w = _vec(0.0, 0.0, [1.0, 0.0])
        assert sectional_curvature(counter_spec, p0, u, w) == pytest.approx(-1.0, abs=1e-12)
        # same plane far out: approaches zero from below
        x = 100.0
        u2 = _vec(x, 1.0, [0.0, 0.0])
        w2 = _vec(x, 0.0, [1.0, 0.0])
        val = sectional_curvature(counter_spec, (x, np.zeros(2)), u2, w2)
        assert -1e-7 < val < 0.0

    def test_sqrt_warp_vertical_plane(self, counter_spec):
        x = 1.0
        u = _vec(x, 0.0, [1.0, 0.0])
        w = _vec(x, 0.0, [0.0, 1.0])
        assert sectional_curvature(counter_spec, (x, np.zeros(2)), u, w) == pytest.approx(
            -0.25, rel=1e-12
        )

    def test_matches_mixed_closed_form(self, anosov_spec, rng):
        spec = anosov_spec
        for _ in range(40):
            x = float(rng.uniform(0.0, 2.0 * np.pi))
            u = rng.randn(3)
            wv = rng.randn(2)
            p = (x, np.zeros(2))
            got = sectional_curvature(
                spec, p, _vec(x, u[0], u[1:]), _vec(x, 0.0, wv)
            )
            assert got == pytest.approx(_closed_form_mixed(spec, x, u, wv), rel=1e-10, abs=1e-10)

    def test_degenerate_plane_raises(self, const_spec):
        u = _vec(0.0, 1.0, [1.0, 0.0])
        w = _vec(0.0, 2.0, [2.0, 0.0])
        with pytest.raises(DegeneratePlane):
            sectional_curvature(const_spec, (0.0, np.zeros(2)), u, w)

    def test_nonpositive_on_scenarios(self, anosov_spec, counter_spec, rng):
        for spec, lo in ((anosov_spec, None), (counter_spec, -2.0 - 1e-9)):
            for _ in range(50):
                x = float(rng.uniform(-3.0, 3.0))
                u = _vec(x, float(rng.randn()), rng.randn(2))
                w = _vec(x, float(rng.randn()), rng.randn(2))
                val = sectional_curvature(spec, (x, np.zeros(2)), u, w)
                assert val <= 1e-12
                if lo is not None:
                    assert val >= lo


class TestFiniteDifferenceOracle:
    def test_identity_warp(self):
        spec = _identity_warp()
        val = sectional_fd(spec, 0.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        assert val == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("scenario", ["anosov", "counter", "const"])
    def test_assembly_matches_oracle(self, scenario, anosov_spec, counter_spec, const_spec, rng):
        spec = {"anosov": anosov_spec, "counter": counter_spec, "const": const_spec}[scenario]
        for _ in range(200):
            x0 = float(rng.uniform(-3.0, 3.0))
            # rebasing makes f(x0) = 1: an isometric rescale of the fiber
            # that keeps the finite differences of the metric well scaled
            local = spec.rebased(x0)
            u = rng.randn(3)
            w = rng.randn(3)
            if abs(np.linalg.norm(np.cross(u, w))) < 1e-3:
                continue
            p = (x0, np.zeros(2))
            got = sectional_curvature(local, p, _vec(x0, u[0], u[1:]), _vec(x0, w[0], w[1:]))
            want = sectional_fd(local, x0, u, w)
            assert got == pytest.approx(want, abs=1e-5)

    def test_rebasing_is_isometric(self, anosov_spec):
        # the same plane, rescaled coordinates: identical curvature
        x0 = 1.3
        local = anosov_spec.rebased(x0)
        g0 = float(anosov_spec.log_derivatives(np.asarray(x0, float))[0])
        u = np.array([0.4, 0.8, -0.1])
        w = np.array([-0.2, 0.5, 0.9])
        scale = np.exp(g0)
        p = (x0, np.zeros(2))
        a = sectional_curvature(anosov_spec, p, _vec(x0, u[0], u[1:]), _vec(x0, w[0], w[1:]))
        b = sectional_curvature(
            local, p, _vec(x0, u[0], scale * u[1:]), _vec(x0, w[0], scale * w[1:])
        )
        assert a == pytest.approx(b, rel=1e-12)


class TestCurvatureMatrixAlong:
    def test_constant_curvature_minus_identity(self, const_spec):
        th = unit_tangent_from_direction(const_spec, 0.0, np.zeros(2), 0.6, [0.8, 0.0])
        path = integrate_geodesic(const_spec, th, 2.0, 0.01)
        for t in (0.0, 1.0, 2.0):
            K = curvature_matrix_along(path, t)
            assert np.allclose(K.entries, -np.eye(2), atol=1e-9)
            assert K.symmetry_defect() < 1e-12

    def test_flat_zero(self):
        spec = _flat_warp()
        th = unit_tangent_from_direction(spec, 0.0, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(spec, th, 1.0, 0.01)
        assert np.max(np.abs(curvature_matrix_along(path, 0.5).entries)) < 1e-14

    def test_axis_geodesic_diagonal_minus_h(self, anosov_spec):
        x0 = 0.37
        th = unit_tangent_from_direction(anosov_spec, x0, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(anosov_spec, th, 3.0, 0.01)
        for t in (0.0, 1.5, 3.0):
            K = curvature_matrix_along(path, t)
            h = float(anosov_spec.h(np.asarray(x0 + t, float)))
            assert np.allclose(K.entries, -h * np.eye(2), atol=1e-8)

    def test_interpolation_window(self, const_spec):
        th = unit_tangent_from_direction(const_spec, 0.0, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(const_spec, th, 1.0, 0.01)
        K = curvature_matrix_along(path, 0.5012)  # within one step of the fine grid
        assert np.allclose(K.entries, -np.eye(2), atol=1e-9)
        with pytest.raises(DomainError):
            curvature_matrix_along(path, 1.5)

    def test_eigenvalues_above_curvature_bound(self, anosov_spec, rng):
        th = unit_tangent_from_direction(anosov_spec, 0.1, np.zeros(2), 0.4, [0.7, 0.59])
        path = integrate_geodesic(anosov_spec, th, 5.0, 0.01, drift_tol=1e-6)
        c2 = anosov_spec.curvature_bound()
        for t in np.linspace(0.0, 5.0, 26):
            K = curvature_matrix_along(path, round(t, 2))
            assert K.min_eigenvalue() >= -c2 - 1e-9
