"""Two-point solves by scalar sweeps (``engine.boundary_solve``)."""
import numpy as np
import pytest

from sweep_oracle import matrix_boundary_solve
from warpflow import criterion, engine, scenarios
from warpflow.criterion import sample_thetas
from warpflow.geodesics import extend_path, integrate_geodesic, unit_tangent_from_direction

C_UNIT = np.array([[0.6, 0.8]])


def _constant_sweep(step, r, out_hi):
    """Two-point solution at constant curvature -1 with anchor r, on coarse nodes [0, out_hi]."""
    anchor = int(round(r / step))
    table = np.full((2 * anchor + 1, 1, 2), -1.0)
    y, yp, _ = engine.boundary_solve(table, step, anchor, 0, 0, out_hi)
    Y, Yp = (engine.split_matrix(a, C_UNIT) for a in (y, yp))
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
        y, yp, _ = engine.boundary_solve(wpath.curvatures[:, None], 0.01, anchor, 0, 0, 800)
        Y, Yp = (engine.split_matrix(a, wpath.c[None]) for a in (y, yp))
        Yo, Ypo = matrix_boundary_solve(wpath.K[:, None], 0.01, anchor, 0, 0, 800)
        for new, old in ((Y, Yo), (Yp, Ypo)):
            # relative to the largest entry per node
            assert np.all(np.abs(new - old) <= 1e-12 * np.abs(old).max(axis=(2, 3), keepdims=True))


def _neumann_u(table, step, anchor, out_hi):
    """u = y'/y of the Neumann solutions y(anchor) = 1, y'(anchor) = 0 on coarse nodes [0, out_hi]."""
    F = np.zeros((2, 1) + table.shape[1:])
    F[0] = 1.0
    pairs, _ = engine.scalar_march(table, step, anchor, 0, F, 0, out_hi)
    return pairs[:, 1, 0] / pairs[:, 0, 0]


def _sample_table(spec, count, step, r):
    """(k1, k2) table of the first ``count`` start data of seed 0 on [0, r]."""
    thetas = sample_thetas(spec, count, seed=0)[0]
    vel = [th.frame_velocity(spec) for th in thetas]
    x0 = np.array([th.x for th in thetas])
    u00, u0v = np.array([v[0] for v in vel]), np.stack([v[1] for v in vel])
    run = engine.integrate_states(spec, x0, None, u00, u0v, t0=0.0, t1=r, step=step, store=False)
    return run["curvatures"][..., : min(spec.n, 2)]


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_constant_curvature_bracket(k):
    # with s = r - t: u_D = -k coth(k s), u_N = -k tanh(k s), width 2k / sinh(2k s)
    step, r, out_hi = 0.01, 8.0, 600
    anchor = int(round(r / step))
    table = np.full((2 * anchor + 1, 1, 2), -k * k)
    y, yp, width = engine.boundary_solve(table, step, anchor, 0, 0, out_hi)
    s = (r - step * np.arange(out_hi + 1))[:, None, None]
    u_d, u_n = yp / y, _neumann_u(table, step, anchor, out_hi)
    # RK4 shifts the growth rate by k (k h)^4 / 120, so the relative errors are
    # about (c + k s) (k h)^4 / 60 with c = O(1); allowed: twice that with c = 1
    rtol = (1.0 + k * s) * (k * step) ** 4 / 30.0
    for got, exact in ((u_d, -k / np.tanh(k * s)), (u_n, -k * np.tanh(k * s))):
        assert np.all(np.abs(got - exact) <= rtol * np.abs(exact))
    exact = 2.0 * k / np.sinh(2.0 * k * s)
    # the width is a difference of two O(k) numbers, each rounded along the march
    assert np.all(np.abs(width - exact) <= rtol * exact + 64.0 * np.finfo(float).eps * k)
    assert np.all(u_d <= -k) and np.all(-k <= u_n)


@pytest.mark.filterwarnings("error")
def test_bracket_width_is_inf_where_a_solution_is_not_finite():
    # sample 1's coefficients turn NaN halfway to the anchor: its width is
    # inf on the whole window, without a warning; sample 0 is unaffected,
    # also at an r whose sweep must rescale sample 0 many times
    step, out_hi = 0.05, 20
    for r in (4.0, 1000.0):
        anchor = int(round(r / step))
        table = np.full((2 * anchor + 1, 2, 2), -1.0)
        table[anchor:, 1] = np.nan
        y, yp, width = engine.boundary_solve(table, step, anchor, 0, 0, out_hi)
        assert np.all(np.isinf(width[:, 1])) and np.all(np.isfinite(width[:, 0]))
        alone = engine.boundary_solve(table[:, :1], step, anchor, 0, 0, out_hi)
        assert all(np.array_equal(a[:, 0], b[:, 0]) for a, b in zip((y, yp, width), alone))


@pytest.mark.parametrize("build, step, r, horizon", [
    pytest.param(lambda: scenarios.build_anosov_example(3.0, n=2), 0.02, 43.5, 27.5, id="periodic"),
    pytest.param(lambda: scenarios.build_counterexample(n=3), 0.05, 46.0, 30.0, id="counterexample"),
])
def test_bracket_is_ordered(build, step, r, horizon):
    # Riccati solutions from one endpoint cannot cross: u_D <= u_N at every
    # node, up to rounding where the bracket has closed (periodic)
    table = _sample_table(build(), 14, step, r)
    anchor, out_hi = int(round(r / step)), int(round(horizon / step))
    y, yp, width = engine.boundary_solve(table, step, anchor, 0, 0, out_hi)
    u_d, u_n = yp / y, _neumann_u(table, step, anchor, out_hi)
    ulps = 1e-14 * np.maximum(np.abs(u_d), np.abs(u_n))
    assert np.all(u_d <= u_n + ulps)
    assert np.all(np.abs(width - (u_n - u_d)) <= ulps)


def test_counterexample_bracket_closes_like_one_over_r():
    # no uniform contraction: the largest width at t = 0 about halves as r
    # doubles (2.2e-2, 1.1e-2, 5.4e-3 at r = 46, 92, 184)
    spec, step = scenarios.build_counterexample(n=3), 0.05
    table = _sample_table(spec, 14, step, 184.0)
    widths = [engine.boundary_solve(table, step, int(round(r / step)), 0, 0, 600)[2][0].max()
              for r in (46.0, 92.0, 184.0)]
    assert 1e-2 < widths[0] < 5e-2
    assert all(0.45 < b / a < 0.55 for a, b in zip(widths, widths[1:]))


def test_periodic_check_certifies_at_first_rung(monkeypatch):
    # the periodic-check workload: the bracket is at rounding at r = horizon + 16
    rungs = []
    ladder = criterion._ladder

    def recording(*args):
        out = ladder(*args)
        rungs.append(out[1])
        return out

    monkeypatch.setattr(criterion, "_ladder", recording)
    result = criterion.run_anosov_check(scenarios.build_anosov_example(3.0, n=2), samples=14,
                                        t_min=25.0, horizon=27.5)
    assert [len(r) for r in rungs] == [1]
    assert not [f for f in result.report.failures if f["kind"] == "green_gap"]
