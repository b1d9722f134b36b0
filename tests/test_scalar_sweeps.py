"""Two-point solves by scalar sweeps (``engine.boundary_solve``)."""
import numpy as np
import pytest

from sweep_oracle import matrix_boundary_solve
from warpflow import engine
from warpflow.geodesics import extend_path, integrate_geodesic, unit_tangent_from_direction

C_UNIT = np.array([[0.6, 0.8]])


def _constant_sweep(step, r, out_hi):
    """Two-point solution at constant curvature -1 with anchor r, on coarse nodes [0, out_hi]."""
    anchor = int(round(r / step))
    table = np.full((2 * anchor + 1, 1, 2), -1.0)
    Y, Yp = (engine.split_matrix(a, C_UNIT) for a in engine.boundary_solve(table, step, anchor, 0, 0, out_hi))
    t = step * np.arange(out_hi + 1)
    # sinh(r - t) / sinh(r) and its derivative, in a form that does not overflow
    decay = np.exp(-2.0 * (r - t))
    norm = 1.0 - np.exp(-2.0 * r)
    return t, Y[:, 0], Yp[:, 0], np.exp(-t) * (1.0 - decay) / norm, -np.exp(-t) * (1.0 + decay) / norm


@pytest.mark.parametrize("step, r, out_hi, rescaled", [
    (0.01, 10.0, 1000, False),
    (0.01, 40.0, 4000, True),
    (0.05, 1000.0, 1000, True),  # e^1000 overflows
])
def test_constant_curvature_two_point_solution(step, r, out_hi, rescaled):
    # the sweep from the anchor grows like sinh(r)
    assert (np.sinh(min(r, 700.0)) > engine._RENORM_THRESHOLD) == rescaled
    t, Y, Yp, y, yp = _constant_sweep(step, r, out_hi)
    assert np.all(np.isfinite(Y)) and np.all(np.isfinite(Yp))
    # RK4's local error is h^5 / 120 per step of y'' = y: about t h^4 / 120 relative
    tol = t * step**4 / 60.0 + 1e-13
    eye = np.eye(2)
    assert np.all(np.abs(Y - y[:, None, None] * eye).max(axis=(1, 2)) <= tol * y)
    assert np.all(np.abs(Yp - yp[:, None, None] * eye).max(axis=(1, 2)) <= tol * np.abs(yp))
    assert np.array_equal(Y[0], eye)


def test_single_sample_matches_matrix_sweep(anosov_spec):
    th = unit_tangent_from_direction(anosov_spec, 0.4, np.zeros(2), -0.3, [0.6, 0.742])
    path = integrate_geodesic(anosov_spec, th, 8.0, 0.01, drift_tol=1e-5)
    for r in (20.0, 64.0):
        wpath = extend_path(path, 0.0, r)
        anchor = wpath.coarse_index(r)
        modes = engine.boundary_solve(wpath.curvatures[:, None], 0.01, anchor, 0, 0, 800)
        Y, Yp = (engine.split_matrix(a, wpath.c[None]) for a in modes)
        Yo, Ypo = matrix_boundary_solve(wpath.K[:, None], 0.01, anchor, 0, 0, 800)
        for new, old in ((Y, Yo), (Yp, Ypo)):
            # relative to the largest entry per node
            assert np.all(np.abs(new - old) <= 1e-12 * np.abs(old).max(axis=(2, 3), keepdims=True))
