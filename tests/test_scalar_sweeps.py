"""Two-point solves by scalar sweeps (``engine.boundary_solve``)."""
import numpy as np
import pytest

from sweep_oracle import matrix_boundary_solve, per_step_march, rk4_transfer
from warpflow import criterion, engine, jacobi, scenarios
from warpflow.criterion import sample_thetas
from warpflow.errors import ConjugatePointDetected
from warpflow.geodesics import integrate_geodesic, unit_tangent_from_direction

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
    for r in (20.0, 64.0):
        wpath = integrate_geodesic(anosov_spec, th, r, 0.01, drift_tol=None)
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
    state, e = engine.slice_state(x0, u00, u0v)
    run = engine.integrate_states(spec, state, e, t0=0.0, t1=r, step=step, store=False)
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


@pytest.mark.parametrize("x0", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("a", [2.5, 3.0])
def test_floquet_exponent_of_the_periodic_warp_is_a(a, x0):
    # along the axis geodesic x = x0 + t both modes solve y'' = h y, h = g'' + g'^2,
    # which f = e^g solves too; g(x + T) = g(x) + a T makes f a Floquet solution
    # with multiplier e^{aT}, and the Wronskian puts the other at e^{-aT}, so
    # the monodromy over one period T = 2 pi has exponent log(rho) / T = a.
    # RK4's fourth order shows as an error ratio near 16 between 2,000 and
    # 4,000 steps.
    spec = scenarios.build_anosov_example(a, n=2)
    T = 2.0 * np.pi
    errors = []
    for steps in (2000, 4000):
        _, gp, gpp = spec.log_derivatives(x0 + np.linspace(0.0, T, 2 * steps + 1))
        k = -(gpp + gp * gp)
        start = np.eye(2)[:, :, None, None]  # the pairs (y, y') = (1, 0) and (0, 1)
        pairs, scales = engine.scalar_march(k[:, None, None], T / steps, 0, steps, start, steps, steps)
        monodromy = np.ldexp(pairs[0, :, :, 0, 0], scales[0, :, 0, 0])
        rho = np.abs(np.linalg.eigvals(monodromy)).max()
        errors.append(abs(np.log(rho) / T - a))
    assert errors[0] < 1e-8
    assert errors[0] / errors[1] >= 12.0


@pytest.mark.parametrize("direction", [1, -1])
def test_transfer_block_is_rk4_on_the_identity(direction):
    # the closed form repeats RK4's operations on the identity: the same bits
    rng = np.random.default_rng(7)
    for _ in range(20):
        m, M = rng.integers(1, 5, size=2)
        table = rng.standard_normal((601, m, M)) * 10.0 ** rng.uniform(-4, 3, size=(1, m, M))
        h = direction * 10.0 ** rng.uniform(-3, 0)
        node = 20 if direction > 0 else 280
        T, _ = engine._transfer_block(table, node, direction, 256, h)
        assert np.array_equal(T[:, :, :, 0].swapaxes(1, 2), rk4_transfer(table, node, direction, 256, h))


def _represented(pairs, scales):
    """Mantissas and exponents of pairs * 2^scales, without forming values that may overflow."""
    mant, exp = np.frexp(pairs)
    return mant, np.where((mant == 0.0) | ~np.isfinite(mant), 0, exp + scales[:, None])


def _assert_same_represented(got, want):
    for a, b in zip(_represented(*got), _represented(*want)):
        assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("forward", [True, False])
def test_runwise_rescale_represents_the_per_step_values(q, forward):
    # 1,337 steps (not a multiple of 256) over which lane 0 grows past 2^300
    # (the per-step march rescales it about 20 times), lane 1 turns NaN
    # partway and lane 2 barely grows; every value pair * 2^scale is the
    # per-step march's
    rng = np.random.default_rng(q)
    step, steps = 0.05, 1337
    table = -np.abs(rng.standard_normal((2 * steps + 1, 3, 2))) * np.array([25.0, 1.0, 1e-4])[:, None]
    table[900:, 1] = np.nan
    F = rng.standard_normal((2, q, 3, 2))
    start, stop, lo, hi = (0, steps, 100, 1200) if forward else (steps, 0, 0, 1000)
    got = engine.scalar_march(table, step, start, stop, F, lo, hi)
    _assert_same_represented(got, per_step_march(table, step, start, stop, F, lo, hi))
    assert got[1][:, :, 0].max() > 300 and np.isnan(got[0][-1 if forward else 0, :, :, 1]).all()
    finite = np.isfinite(got[0]).all(axis=1)  # a pair with a NaN part is left unscaled
    assert np.abs(got[0]).max(axis=1)[finite].max() <= engine._RENORM_THRESHOLD


def test_runs_split_a_block_that_would_overflow_unsplit():
    # step * sqrt|k| = 10: each transfer matrix has a row-sum norm near 2^9.3,
    # so a block of 256 steps multiplies to about 2^2400, far past the
    # largest double; the runs rescale inside the block and match the
    # per-step march
    step, steps, k = 0.5, 300, -400.0
    table = np.full((2 * steps + 1, 1, 2), k)
    _, bits = engine._transfer_block(table, 0, 1, 256, step)
    assert bits.sum() > 1100 > engine._RUN_BITS
    F = np.broadcast_to(np.eye(2)[:, :, None, None], (2, 2, 1, 2))
    got = engine.scalar_march(table, step, 0, steps, F, 0, steps)
    assert np.isfinite(got[0]).all()
    _assert_same_represented(got, per_step_march(table, step, 0, steps, F, 0, steps))


def _counter_driver(spec, step, count=10, hi=40):
    """A batched driver of the first ``count`` start data of seed 0 with output window [0, hi]."""
    thetas = sample_thetas(spec, count, seed=0)[0]
    vel = [th.frame_velocity(spec) for th in thetas]
    x0 = np.array([th.x for th in thetas])
    state, e = engine.slice_state(x0, np.array([v[0] for v in vel]), np.stack([v[1] for v in vel]))
    run = engine.integrate_states(spec, state, e, t0=0.0, t1=hi * step, step=step, store=False)
    return jacobi._Sweeps(spec, step, e, run["curvatures"][..., :2], 0, [state, run["final_state"]], (0, hi),
                          run["max_unit_defect"].copy())


@pytest.mark.parametrize("build, step", [
    pytest.param(lambda: scenarios.build_counterexample(n=3), 0.05, id="counterexample"),
    pytest.param(lambda: scenarios.build_anosov_example(3.0, n=2), 0.02, id="periodic"),
])
@pytest.mark.parametrize("side", [1, -1])
def test_later_rung_marches_back_to_the_previous_anchor(build, step, side):
    # solve(2 r) after solve(r) combines the stored window basis with the
    # march back to r; it agrees with a fresh driver's solve(2 r), also for
    # a live subset and a third rung, and on the unstable side, whose
    # table grows before node 0.  The bound is a width |u_N - u_D| between
    # two u of size about 1 (at rounding level on the periodic warp), so it
    # is compared relative to max(1, bound).
    spec, r = build(), 6.0
    live = np.array([0, 3, 4, 9])
    driver = _counter_driver(spec, step)
    driver.solve(side * r, np.arange(10))
    for rung, samples in ((2, live), (4, live[1:])):
        got = driver.solve(side * rung * r, samples)
        want = _counter_driver(spec, step).solve(side * rung * r, samples)
        for a, b in zip(got[:2], want[:2]):
            assert np.all(np.abs(a - b) <= 1e-13 * np.abs(b))
        assert np.all(np.abs(got[2] - want[2]) <= 1e-13 * np.maximum(1.0, want[2]))
        assert driver.basis.offset == side * rung * round(r / step)


@pytest.mark.filterwarnings("error")
def test_singular_lane_is_masked():
    # at h = 1/32 and k = 6 / h^2 RK4's transfer matrix maps (0, y') to
    # (0, -y' / 2) exactly, so lane 1's Dirichlet solution is 0 at every
    # node: NaN modes and an infinite width there, and lanes 0 and 2 keep
    # the bits they have alone
    step, anchor, out_hi = 1.0 / 32.0, 100, 40
    table = np.empty((2 * anchor + 1, 3, 2))
    table[:, 0], table[:, 1], table[:, 2] = -1.0, 6.0 / step**2, -0.25
    y, yp, width = engine.boundary_solve(table, step, anchor, 0, 0, out_hi)
    assert np.isnan(y[:, 1]).all() and np.isnan(yp[:, 1]).all() and np.isinf(width[:, 1]).all()
    for s in (0, 2):
        alone = engine.boundary_solve(table[:, s:s + 1], step, anchor, 0, 0, out_hi)
        assert all(np.array_equal(a[:, s], b[:, 0]) for a, b in zip((y, yp, width), alone))


def _vanishing_sweeps(monkeypatch, lane=slice(None)):
    """Make ``engine.boundary_solve`` see k = 6 / h^2 on ``lane``, where the Dirichlet sweep is 0 (above)."""
    solve = engine.boundary_solve

    def vanishing(curvatures, step, *nodes, **kwargs):
        curvatures = curvatures.copy()
        curvatures[:, lane] = 6.0 / step**2
        return solve(curvatures, step, *nodes, **kwargs)

    monkeypatch.setattr(engine, "boundary_solve", vanishing)


def test_single_sample_solves_raise_on_a_singular_sweep(anosov_spec, monkeypatch):
    th = unit_tangent_from_direction(anosov_spec, 0.4, np.zeros(2), -0.3, [0.6, 0.742])
    path = integrate_geodesic(anosov_spec, th, 2.0, 1.0 / 32.0, drift_tol=None)
    _vanishing_sweeps(monkeypatch)
    with pytest.raises(ConjugatePointDetected):
        jacobi.solve_boundary(path, 4.0)
    with pytest.raises(ConjugatePointDetected):
        jacobi.green_stable(path, 2.0)


def test_singular_sweep_is_a_vanishing_field_failure(anosov_spec, monkeypatch):
    # the run's distinct datum 1 vanishes at t = 0: sample 1, a pole, which
    # also serves as the flip of sample 0, the other pole at the same x.
    # Each side gets one vanishing_field failure and no green_gap, sample
    # 1's series are dropped, and every other sample is as in a run
    # without it
    kw = dict(step=1.0 / 32.0, samples=4, t_min=1.0, horizon=2.0, green_max_doublings=0)
    plain = criterion.run_anosov_check(anosov_spec, **kw)
    _vanishing_sweeps(monkeypatch, lane=1)
    result = criterion.run_anosov_check(anosov_spec, **kw)
    hit = {(1, "stable"), (0, "flip")}
    mine = [f for f in result.report.failures if (f["theta"], f["side"]) in hit]
    assert mine == [{"theta": t, "side": s, "kind": "vanishing_field", "value": 0.0}
                    for t, s in ((1, "stable"), (0, "flip"))]
    others = [f for f in plain.report.failures if (f["theta"], f["side"]) not in hit]
    assert [f for f in result.report.failures if f not in mine] == others
    key = criterion._datum_key
    dropped = key(criterion.sample_thetas(anosov_spec, 4, 0)[0][1])
    kept = [s for s in plain.series if key(s.theta) != dropped]
    assert len(result.series) == len(kept) == len(plain.series) - anosov_spec.n
    assert all(np.array_equal(a.values, b.values) and key(a.theta) == key(b.theta)
               for a, b in zip(result.series, kept))
