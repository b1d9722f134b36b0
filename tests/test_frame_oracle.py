"""The closed-form parallel frame and curvature matrices against frame transport.

``frame_oracle`` integrates the frame ODE by RK4.  Along a warped-product
geodesic the velocity turned by 90 degrees inside its slice obeys the same
linear ODE as every RK4 stage of the transported frame, so the transported
frame is the closed form up to rounding; the curvature matrices must agree
to rounding, at every step size.  The oracle also steps the state
(x, u0, u) with all n fiber components, against which the slice state
(x, u0, s) of the kernel, with u = s e, must agree to rounding.
"""
import numpy as np
import pytest

from frame_oracle import curvature_matrix_frame, transported_frame
from warpflow import scenarios
from warpflow.geodesics import integrate_geodesic, unit_tangent_from_direction

_PERIODIC = scenarios.build_anosov_example(3.0, n=2)

DATA = {
    "periodic": (_PERIODIC, 0.4, -0.3, [0.6, 0.742]),
    "periodic-n3": (scenarios.build_anosov_example(3.0, n=3), 0.4, -0.3, [0.6, 0.5, 0.3]),
    "counterexample": (scenarios.build_counterexample(n=2), 0.5, 0.1, [0.7, 0.707]),
    "pole": (_PERIODIC, 0.4, 1.0, [0.0, 0.0]),
    # fiber speed 5e-300: it is subnormal within a few time units
    "underflow": (_PERIODIC, 0.4, 1.0, [3e-300, -4e-300]),
    "n1": (scenarios.build_anosov_example(3.0, n=1), 0.4, -0.3, [0.95]),
}


def _path(name, t_end=8.0, step=0.01, drift_tol=1e-5):
    spec, x0, b0, u = DATA[name]
    th = unit_tangent_from_direction(spec, x0, np.zeros(spec.n), b0, u)
    return integrate_geodesic(spec, th, t_end, step, drift_tol=drift_tol)


@pytest.mark.parametrize("name", sorted(DATA))
def test_closed_form_matches_transported_frame(name):
    path = _path(name)
    alpha, beta, K, (x, u0, u) = transported_frame(path)
    assert np.abs(x - path.x).max() <= 1e-12
    assert np.abs(u0 - path.u0).max() <= 1e-12
    assert np.abs(u - path.u).max() <= 1e-12
    scale = 1.0 + np.abs(path.K).max()
    assert np.abs(K - path.K).max() <= 1e-12 * scale
    assert np.abs(alpha - path.alpha).max() <= 1e-12
    assert np.abs(beta - path.beta).max() <= 1e-12
    if name == "underflow":
        assert np.abs(path.u[-1]).max() < np.finfo(float).tiny


@pytest.mark.parametrize("name", sorted(DATA))
def test_curvature_matrix_of_closed_form_frame(name):
    path = _path(name)
    _, gp, gpp = path.spec.log_derivatives(path.x)
    K = curvature_matrix_frame(gpp + gp * gp, gp * gp, path.u0, path.u, path.alpha, path.beta)
    k1, k2 = path.curvatures[:, 0], path.curvatures[:, 1]
    split = k2[:, None, None] * np.eye(path.n) + (k1 - k2)[:, None, None] * np.outer(path.c, path.c)
    assert np.abs(K - split).max() <= 1e-13 * (1.0 + np.abs(K).max())
    assert np.array_equal(split, path.K)
    assert np.dot(path.c, path.c) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("name", ["periodic", "counterexample"])
def test_closed_form_curvature_converges_at_fourth_order(name):
    # K at the shared coarse nodes for steps h, h/2 and h/4: the gaps to the
    # finest run shrink like h^4 (ratio 17 for an exact fourth-order error)
    runs = [_path(name, t_end=4.0, step=0.08 / 2**k, drift_tol=1e-3) for k in range(3)]
    K = [run.K[:: 2 * 2**k] for k, run in enumerate(runs)]
    ref = K[2]
    coarse = np.abs(K[0] - ref).max()
    fine = np.abs(K[1] - ref).max()
    assert coarse > 1e-11
    assert coarse / fine >= 8.0
