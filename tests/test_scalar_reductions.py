"""Scalar-mode reductions against the matrix oracles.

Two-point and limit solutions are Y = y1 c c^T + y2 (I - c c^T), so the
flow-derivative norms, the plane-curvature averages, the field norms |J| and
the Sasaki-orthonormal directions all come from the modes (y_k, y_k').
``reduction_oracle`` keeps the pinv/SVD and einsum reductions of the full
matrices, ``sweep_oracle`` the matrix RK4 march.
"""
import tracemalloc
import warnings

import numpy as np
import pytest

from reduction_oracle import matrix_curvature_averages, matrix_flow_norms
from sweep_oracle import matrix_ivp_march
from warpflow import engine, scenarios
from warpflow.criterion import (
    _chunk_pipeline,
    _curvature_averages,
    _sasaki_mode_weights,
    averaged_curvature,
    run_anosov_check,
    sample_thetas,
)
from warpflow.errors import DomainError, GreenNotConverged
from warpflow.geodesics import integrate_geodesic, unit_tangent_from_direction
from warpflow.jacobi import (
    _flow_norms,
    dphi_norm_series,
    green_stable,
    green_unstable,
    sasaki_orthonormal_directions,
    solve_boundary,
    solve_jacobi_ivp,
)

BUILDERS = {
    "periodic": lambda n: scenarios.build_anosov_example(3.0, n=n),
    "counterexample": lambda n: scenarios.build_counterexample(n=n),
}
CASES = [(name, n) for name in sorted(BUILDERS) for n in (1, 2, 3, 6)]


def _close(new, old, rtol=1e-12):
    return bool(np.all(np.abs(new - old) <= rtol * np.abs(old)))


def _limit_modes(spec, thetas, step, horizon, r):
    """Modes of the two-point solutions y(0) = 1, y(r) = 0 of a batch on [0, horizon].

    Returns (y, y'), the (k1, k2) table on the coarse nodes, c and the times.
    """
    vel = [th.frame_velocity(spec) for th in thetas]
    x0 = np.array([th.x for th in thetas])
    u00, u0v = np.array([v[0] for v in vel]), np.stack([v[1] for v in vel])
    run = engine.integrate_states(spec, x0, None, u00, u0v, t0=0.0, t1=r, step=step, store=False)
    table = run["curvatures"]
    nodes = int(round(horizon / step))
    y, yp, _ = engine.boundary_solve(table[..., : min(spec.n, 2)], step, int(round(r / step)), 0, 0, nodes)
    return y, yp, table[: 2 * nodes + 1 : 2], engine.start_frame(u00, u0v)[1], step * np.arange(nodes + 1)


def _oracle(y, yp, k, c, times):
    """The matrix reductions of the assembled Y, Y', K and the eigh-based Sasaki directions."""
    Y, Yp, K = (engine.split_matrix(a, c) for a in (y, yp, k))
    W = np.stack([sasaki_orthonormal_directions(U) for U in Yp[0]])
    return W, matrix_flow_norms(Y, Yp, 0), matrix_curvature_averages(Y, K, W, times)


def _scalar(y, yp, k, c, times):
    weights = _sasaki_mode_weights(c, yp[0])
    return weights, _flow_norms(y, yp, 0), _curvature_averages(y, k[..., : y.shape[-1]], weights, times)


@pytest.mark.parametrize("name, n", CASES)
def test_batched_reductions_match_matrix_oracle(name, n):
    spec = BUILDERS[name](n)
    thetas = sample_thetas(spec, 10, seed=1)[0]
    data = _limit_modes(spec, thetas, step=0.05, horizon=10.0, r=30.0)
    weights, norms, (averages, jnorms, degenerate) = _scalar(*data)
    W, norms_o, (averages_o, jnorms_o, degenerate_o) = _oracle(*data)

    assert _close(norms, norms_o)
    assert _close(averages, averages_o)
    assert _close(jnorms, jnorms_o)
    assert not degenerate.any() and not degenerate_o.any()
    # the mode weights of each direction w_d: p = c.w_d and q = |w_d - p c|
    c = data[3]
    p = np.einsum("mi,mid->md", c, W)
    q = np.linalg.norm(W - c[:, :, None] * p[:, None, :], axis=1)
    size = np.hypot(p, q)
    assert np.all(np.abs(weights[..., 0] - p) <= 1e-12 * size)
    if n > 1:
        assert np.all(np.abs(weights[..., 1] - q) <= 1e-12 * size)


@pytest.mark.parametrize("name, n", [case for case in CASES if case[1] > 1])
def test_degenerate_flag_matches_matrix_oracle(name, n):
    spec = BUILDERS[name](n)
    y, yp, k, c, times = _limit_modes(spec, sample_thetas(spec, 4, seed=1)[0], step=0.05, horizon=4.0, r=12.0)
    y[5, 1] = 0.0  # both modes of sample 1: J = 0 for every direction
    y[7, 2, 1] = 0.0  # one mode of sample 2: J != 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the flag, not a 0/0 warning, reports J = 0
        flags = _scalar(y, yp, k, c, times)[2][2]
    assert flags.tolist() == [False, True, False, False]
    with np.errstate(invalid="ignore"):  # the oracle's plane curvature of J = 0 is 0/0
        assert np.array_equal(flags, _oracle(y, yp, k, c, times)[2][2])


def test_averages_survive_underflowing_squares():
    # periodic warp: the stable modes decay past 1e-300 inside the window,
    # where y^2 underflows to 0
    spec = scenarios.build_anosov_example(3.0, n=2)
    step, horizon = 0.05, 232.0
    thetas = sample_thetas(spec, 3, seed=0)[0]
    data = _limit_modes(spec, thetas, step=step, horizon=horizon, r=horizon + 16.0)
    y = data[0]
    assert np.abs(y[-1]).max() < 1e-300 and np.abs(y).min() > 1e-306
    _, norms, (averages, jnorms, degenerate) = _scalar(*data)
    _, norms_o, (averages_o, jnorms_o, _) = _oracle(*data)
    assert np.all(np.isfinite(averages)) and np.all(np.isfinite(jnorms))
    assert not degenerate.any()
    assert _close(averages, averages_o)
    assert _close(jnorms, jnorms_o)
    assert _close(norms, norms_o)

    result = run_anosov_check(spec, step=step, samples=3, t_min=200.0, horizon=horizon)
    assert not [f for f in result.report.failures if f["kind"] == "vanishing_field"]
    assert np.isfinite(result.report.B_est)


@pytest.mark.parametrize("name, n", CASES)
def test_single_sample_reductions_match_matrix_oracle(name, n):
    spec = BUILDERS[name](n)
    th = unit_tangent_from_direction(spec, 0.4, np.zeros(n), -0.3, np.linspace(0.6, 0.2, n))
    path = integrate_geodesic(spec, th, 6.0, 0.02, drift_tol=1e-4)
    sols = [solve_boundary(path, 20.0)]
    for limit in (green_stable, green_unstable):
        try:
            sols.append(limit(path, t_obs=6.0, tol=1e-8, max_doublings=1, drift_tol=1e-4))
        except GreenNotConverged as exc:  # the counterexample's ladder does not converge
            sols.append(exc.last_solution)
    w = np.linspace(1.0, -0.5, n)
    for sol in sols:
        zero = sol.index_of(0.0)
        assert _close(dphi_norm_series(sol), matrix_flow_norms(sol.Y[:, None], sol.Yp[:, None], zero)[:, 0])
        times = sol.times[zero:]
        K = np.stack([path.K[path.fine_index(t)] for t in times])
        expected = matrix_curvature_averages(sol.Y[zero:, None], K[:, None], w[None, :, None], times)[0]
        assert _close(averaged_curvature(path, sol, w).values, expected[:, 0, 0])


@pytest.mark.parametrize("name, n", CASES)
def test_ivp_matches_matrix_march(name, n):
    spec = BUILDERS[name](n)
    rng = np.random.RandomState(n)
    th = unit_tangent_from_direction(spec, 0.3, np.zeros(n), 0.2, rng.standard_normal(n))
    path = integrate_geodesic(spec, th, 4.0, 0.01, drift_tol=1e-4)
    # general initial data: not diagonal in the modes
    Y0, Yp0 = rng.standard_normal((2, n, n))
    sol = solve_jacobi_ivp(path, Y0, Yp0)
    Y, Yp = matrix_ivp_march(path.K[:, None], path.step, Y0[None], Yp0[None])
    for new, old in ((sol.Y, Y[:, 0]), (sol.Yp, Yp[:, 0])):
        # relative to the largest entry per node
        assert np.all(np.abs(new - old) <= 1e-12 * np.abs(old).max(axis=(1, 2), keepdims=True))
    assert sol.modes is None
    with pytest.raises(DomainError):
        dphi_norm_series(sol)
    with pytest.raises(DomainError):
        averaged_curvature(path, sol, np.ones(n))


def _pipeline_peak(spec):
    thetas = sample_thetas(spec, 16, seed=0, x_span=None if spec.period else 10.0)[0]
    tracemalloc.start()
    try:
        _chunk_pipeline(spec, thetas, step=0.02, horizon=20.0, green_tol=1e-8, green_r0=36.0,
                        green_max_doublings=0, drift_tol=1e-5, series_stride=25)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_pipeline_memory_does_not_grow_with_n_squared(name):
    # only the n output series depend on n; with n x n Jacobi data the peak
    # grows with n^2
    ratio = _pipeline_peak(BUILDERS[name](6)) / _pipeline_peak(BUILDERS[name](2))
    assert ratio < 3.0
