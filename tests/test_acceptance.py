"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy scenario run
(criterion 3) takes a few minutes; everything else is seconds.
"""
import json
import time

import numpy as np
import pytest

from warpflow import engine
from warpflow.cli import main
from warpflow.criterion import (
    averaged_curvature,
    decay_envelope,
    estimate_B,
    run_anosov_check,
)
from warpflow.criterion import AveragedCurvatureSeries
from warpflow.geodesics import (
    integrate_geodesic,
    scalar_velocity_series,
    unit_tangent_from_direction,
)
from warpflow.geometry import TangentVector, sectional_curvature
from warpflow.jacobi import (
    dphi_norm_series,
    green_stable,
    green_unstable,
    riccati_along,
    sasaki_orthonormal_directions,
    solve_boundary,
    solve_jacobi_ivp,
)
from warpflow.scenarios import (
    build_anosov_example,
    build_constant_curvature,
    build_counterexample,
    scenario_bounds,
)

from fd_oracle import sectional_fd


def _report(num, detail, elapsed, limit):
    print(f"\nPASS criterion {num}: {detail} [{elapsed:.1f}s < {limit:.0f}s]")


@pytest.fixture(scope="module")
def specs():
    return {
        "anosov": build_anosov_example(3.0, n=2),
        "counter": build_counterexample(n=2),
        "const": build_constant_curvature(1.0, n=2),
    }


def test_criterion_01_constant_curvature_oracle(specs):
    start = time.monotonic()
    spec = specs["const"]
    rng = np.random.RandomState(11)
    worst = 0.0
    for _ in range(100):
        x = float(rng.uniform(-3.0, 3.0))
        u = TangentVector(x=x, y=np.zeros(2), dx=float(rng.randn()), dy=rng.randn(2))
        w = TangentVector(x=x, y=np.zeros(2), dx=float(rng.randn()), dy=rng.randn(2))
        worst = max(worst, abs(sectional_curvature(spec, (x, np.zeros(2)), u, w) + 1.0))
    assert worst < 1e-9

    th = unit_tangent_from_direction(spec, 0.0, np.zeros(2), 0.0, [1.0, 0.0])
    path = integrate_geodesic(spec, th, 5.0, 0.01)
    sol = green_stable(path, t_obs=5.0, tol=1e-8)
    green_err = max(
        float(np.max(np.abs(sol.Y[c] - np.exp(-t) * np.eye(2)))) for c, t in enumerate(sol.times)
    )
    assert green_err < 1e-6

    series = averaged_curvature(path, sol, np.array([1.0, 0.0]))
    series_err = float(np.max(np.abs(series.values + 1.0)))
    assert series_err < 1e-6

    fit = decay_envelope(sol.times, dphi_norm_series(sol))
    assert fit.found and 0.95 * np.exp(-1.0) <= fit.lam <= 1.05 * np.exp(-1.0)

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(1, f"K=-1 within {worst:.1e}; green err {green_err:.1e}; "
               f"series err {series_err:.1e}; lam_s={fit.lam:.6f}", elapsed, 10)


def test_criterion_02_boundary_solution_oracle(specs):
    start = time.monotonic()
    spec = specs["const"]
    th = unit_tangent_from_direction(spec, 0.0, np.zeros(2), 0.0, [1.0, 0.0])
    worst = 0.0
    residual = 0.0
    for r in (8.0, 16.0):
        path = integrate_geodesic(spec, th, r, 0.005)
        sol = solve_boundary(path, r)
        for c, t in enumerate(sol.times):
            if t > 5.0:
                break
            exact = np.sinh(r - t) / np.sinh(r) * np.eye(2)
            worst = max(worst, float(np.max(np.abs(sol.Y[c] - exact))))
        residual = max(residual, sol.meta["endpoint_norm"])
    assert worst < 1e-7
    assert residual < 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(2, f"sinh-ratio err {worst:.1e}; endpoint residual {residual:.1e}", elapsed, 5)


def test_criterion_03_periodic_scenario_reproduction(specs):
    start = time.monotonic()
    spec = specs["anosov"]
    report = spec.condition_report()
    assert report.min_h > 0.0
    assert report.a_ok and report.b_ok and report.c_ok

    bounds = scenario_bounds(spec)
    assert bounds.eta == pytest.approx(20.0 * np.pi, abs=1e-8)
    result = run_anosov_check(
        spec, step=0.02, seed=0, samples=112, t_min=200.0, horizon=220.0,
        green_tol=1e-8, green_max_doublings=12, drift_tol=1e-5,
        workers=4, chunk_size=56, bounds=bounds,
    )
    rep = result.report
    assert len(result.series) >= 100
    worst_value = max(float(np.max(s.values)) for s in result.series)
    assert worst_value < 0.0
    assert rep.B_est > 0.0
    assert result.bounds_check["ok"]
    assert rep.verdict == "anosov_consistent"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(3, f"min h={report.min_h:.3f}; all {len(result.series)} series < 0 "
               f"(max {worst_value:.3f}); B_est={rep.B_est:.3f}; "
               f"dominance margin {-result.bounds_check['max_excess']:.2f}; verdict={rep.verdict}",
            elapsed, 300)


def test_criterion_04_counterexample_reproduction(specs):
    start = time.monotonic()
    spec = specs["counter"]
    th = unit_tangent_from_direction(spec, 0.0, np.zeros(2), 1.0, [0.0, 0.0])
    path = integrate_geodesic(spec, th, 440.0, 0.02, drift_tol=1e-4)
    sol = solve_boundary(path, 1024.0)
    series = averaged_curvature(path, sol, np.array([1.0, 0.0]))

    t = 100.0
    oracle = -(np.arctan(t) + t / (1.0 + t * t)) / (2.0 * t)
    assert oracle == pytest.approx(-7.8539783010411065e-3, abs=1e-12)
    measured = series.value_at(100.0)
    assert measured == pytest.approx(oracle, abs=1e-5)

    levels = []
    for t_min in (50.0, 100.0, 200.0, 400.0):
        keep = series.times <= 1.1 * t_min
        sub = AveragedCurvatureSeries(
            theta=series.theta, direction=0, times=series.times[keep], values=series.values[keep]
        )
        B, _ = estimate_B([sub], t_min=t_min)
        levels.append(B)
    assert all(b2 < b1 for b1, b2 in zip(levels, levels[1:]))

    res = run_anosov_check(
        spec, step=0.1, seed=0, samples=16, t_min=40.0, horizon=60.0,
        green_tol=1e-4, green_max_doublings=2, drift_tol=1e-3, workers=2,
    )
    assert res.report.verdict == "not_anosov_consistent"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(4, f"avg(100)={measured:.6e} vs oracle {oracle:.6e}; "
               f"B_est levels {['%.2e' % b for b in levels]} decreasing; verdict=not_anosov_consistent",
            elapsed, 60)


def test_criterion_05_conservation_suite(specs):
    start = time.monotonic()
    rng = np.random.RandomState(7)
    worst = {}
    for name, spec in specs.items():
        m = 100
        lo, hi = spec.sample_window()
        x0 = rng.uniform(lo, hi, size=m)
        raw = rng.standard_normal((m, 3))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        y0 = np.zeros((m, 2))
        unit, mom = engine.conservation_scan(
            spec, x0, y0, raw[:, 0], raw[:, 1:], t_end=100.0, step=1e-3
        )
        worst[name] = (float(np.max(unit)), float(np.max(mom)))
        assert worst[name][0] < 1e-8
        assert worst[name][1] < 1e-8

    # order check where truncation dominates the double-precision floor
    spec = specs["anosov"]
    th = unit_tangent_from_direction(spec, 0.2, np.zeros(2), 0.3, [0.8, 0.52])
    u0, u = th.frame_velocity(spec)
    ratios = []
    for coarse, fine in ((4e-3, 2e-3), (2e-3, 1e-3)):
        dc = engine.conservation_scan(spec, [th.x], [th.y], [u0], [u], t_end=20.0, step=coarse)
        df = engine.conservation_scan(spec, [th.x], [th.y], [u0], [u], t_end=20.0, step=fine)
        ratios.append(max(dc[0][0], dc[1][0]) / max(df[0][0], df[1][0]))
    assert max(ratios) >= 8.0
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    summary = ", ".join(f"{k}: unit {v[0]:.1e} mom {v[1]:.1e}" for k, v in worst.items())
    _report(5, f"{summary}; halving ratios {[f'{r:.1f}' for r in ratios]}", elapsed, 120)


@pytest.fixture(scope="module")
def anosov_green(specs):
    spec = specs["anosov"]
    th = unit_tangent_from_direction(spec, 0.2, np.zeros(2), 0.3, [0.8, 0.52])
    path = integrate_geodesic(spec, th, 8.0, 1e-3, drift_tol=1e-7)
    sol = green_stable(path, t_obs=8.0, tol=1e-8)
    return spec, path, sol


def test_criterion_06_riccati_suite(specs, anosov_green):
    start = time.monotonic()
    spec, path, sol = anosov_green
    c = np.sqrt(spec.curvature_bound())
    dirs = sasaki_orthonormal_directions(sol.meta["Us0"])
    res_worst = z_worst = id_worst = 0.0
    for i in range(2):
        series = riccati_along(sol, dirs[:, i])
        res_worst = max(res_worst, series.max_residual())
        z_worst = max(z_worst, float(np.max(np.abs(series.z))))
        id_worst = max(id_worst, series.average_identity_defect())
    assert res_worst < 1e-5
    assert z_worst <= 2.0 * c + 1e-6
    assert id_worst < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(6, f"residual {res_worst:.1e}; sup|z|={z_worst:.4f} vs 2c={2*c:.4f}; "
               f"identity defect {id_worst:.1e}", elapsed, 60)


def test_criterion_07_invariant_suite(specs, anosov_green):
    start = time.monotonic()
    spec, path, sol = anosov_green
    c = np.sqrt(spec.curvature_bound())
    # stable norms non-increasing, slope bound, invertibility
    worst_increase = -np.inf
    for w in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.6, 0.8])):
        jn = sol.field_norms(w)
        worst_increase = max(worst_increase, float(np.max(np.diff(jn))))
        jp = np.einsum("cij,j->ci", sol.Yp, w)
        jpn = np.sqrt(np.einsum("ci,ci->c", jp, jp))
        assert np.all(jpn <= c * jn + 1e-6)
    assert worst_increase <= 1e-9
    svals = np.linalg.svd(sol.Y, compute_uv=False)
    assert np.all(np.abs(sol.det_series()) > 0.0)
    assert np.min(svals[:, -1] / svals[:, 0]) > 1e-10

    gu = green_unstable(path, t_obs=6.0, tol=1e-8)
    worst_decrease = np.inf
    for w in (np.array([1.0, 0.0]), np.array([0.3, -0.95])):
        worst_decrease = min(worst_decrease, float(np.min(np.diff(gu.field_norms(w)))))
    assert worst_decrease >= -1e-9

    # fields vanishing at 0 have strictly increasing squared norm
    growth_ok = True
    for name in ("anosov", "counter"):
        s = specs[name]
        th = unit_tangent_from_direction(s, 0.1, np.zeros(2), 0.4, [0.7, 0.59])
        p = integrate_geodesic(s, th, 50.0, 0.01, drift_tol=1e-5)
        ivp = solve_jacobi_ivp(p, np.zeros((2, 2)), np.eye(2))
        for w in (np.array([1.0, 0.0]), np.array([0.5, -0.5])):
            n2 = ivp.field_norms(w)[1:] ** 2
            growth_ok = growth_ok and bool(np.all(np.diff(n2) > 0.0))
    assert growth_ok
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(7, f"stable max increase {worst_increase:.1e}; unstable min decrease "
               f"{worst_decrease:.1e}; |J'|<=c|J| ok; det Y nonzero; no-focal growth ok",
            elapsed, 60)


def test_criterion_08_speed_bounds_sandwich(specs):
    start = time.monotonic()
    spec = specs["anosov"]
    c1, c2 = spec.growth_bounds
    rng = np.random.RandomState(21)
    margin = np.inf
    for _ in range(50):
        b0 = float(rng.uniform(-1.0, 1.0))
        if abs(b0) >= 1.0 - 1e-12:
            continue
        times, _, ell = scalar_velocity_series(spec, b0, 50.0, step=0.01)
        ell0 = np.log((1.0 + b0) / (1.0 - b0))
        lo = ell0 + c1 * times[1:]
        hi = ell0 + c2 * times[1:]
        assert np.all(ell[1:] > lo)
        assert np.all(ell[1:] < hi)
        margin = min(margin, float(np.min(ell[1:] - lo)), float(np.min(hi - ell[1:])))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(8, f"50 samples strictly inside the two-sided growth bounds "
               f"(min margin {margin:.2e} in log-odds)", elapsed, 30)


def test_criterion_09_finite_difference_cross_check(specs):
    start = time.monotonic()
    rng = np.random.RandomState(31)
    worst = 0.0
    for spec in specs.values():
        count = 0
        while count < 200:
            x0 = float(rng.uniform(-3.0, 3.0))
            local = spec.rebased(x0)
            u = rng.randn(3)
            w = rng.randn(3)
            if np.linalg.norm(np.cross(u, w)) < 1e-3:
                continue
            count += 1
            p = (x0, np.zeros(2))
            got = sectional_curvature(
                local, p,
                TangentVector(x=x0, y=np.zeros(2), dx=u[0], dy=u[1:]),
                TangentVector(x=x0, y=np.zeros(2), dx=w[0], dy=w[1:]),
            )
            want = sectional_fd(local, x0, u, w)
            worst = max(worst, abs(got - want))
            assert abs(got - want) < 1e-5
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(9, f"600 random planes, closed-form vs finite-difference oracle, "
               f"max gap {worst:.2e}", elapsed, 30)


def test_criterion_10_determinism(tmp_path):
    start = time.monotonic()
    out = tmp_path / "det"
    args = [
        "anosov-check", "--scenario", "constant-curvature", "--k", "1", "--n", "2",
        "--samples", "6", "--seed", "5", "--step", "0.02", "--tmin", "3",
        "--horizon", "6", "--workers", "2", "--out", str(out),
    ]
    assert main(args) == 0
    first = {
        "json": (out / "anosov_report.json").read_bytes(),
        "csv": (out / "anosov_series.csv").read_bytes(),
    }
    assert main(args) == 0
    assert (out / "anosov_report.json").read_bytes() == first["json"]
    assert (out / "anosov_series.csv").read_bytes() == first["csv"]
    verdict = json.loads(first["json"])["verdict"]
    elapsed = time.monotonic() - start
    _report(10, f"two identical runs, byte-identical JSON+CSV (verdict {verdict})", elapsed, 60)
