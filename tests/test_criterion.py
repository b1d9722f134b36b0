import numpy as np
import pytest

from warpflow import criterion, scenarios
from warpflow.criterion import (
    AveragedCurvatureSeries,
    averaged_curvature,
    decay_envelope,
    dominance_check,
    estimate_B,
    run_anosov_check,
    sample_thetas,
)
from warpflow.errors import DomainError
from warpflow.geodesics import integrate_geodesic, unit_tangent_from_direction
from warpflow.jacobi import green_stable, riccati_along, sasaki_orthonormal_directions
from warpflow.scenarios import scenario_bounds


def _series(times, values):
    th = None
    return AveragedCurvatureSeries(theta=th, direction=0, times=np.asarray(times), values=np.asarray(values))


class TestAveragedCurvature:
    def test_constant_curvature_series_is_constant(self, const_spec):
        th = unit_tangent_from_direction(const_spec, 0.0, np.zeros(2), 0.0, [1.0, 0.0])
        path = integrate_geodesic(const_spec, th, 5.0, 0.01)
        sol = green_stable(path, t_obs=5.0, tol=1e-8)
        series = averaged_curvature(path, sol, np.array([1.0, 0.0]))
        assert np.max(np.abs(series.values + 1.0)) < 1e-9

    def test_counterexample_ray_quadrature(self, counter_spec):
        # (1/t) int_0^t (1+s^2)^{-2} ds = (arctan t + t/(1+t^2)) / (2 t)
        from warpflow.jacobi import solve_boundary

        th = unit_tangent_from_direction(counter_spec, 0.0, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(counter_spec, th, 100.0, 0.01, drift_tol=1e-5)
        sol = solve_boundary(path, 800.0)
        series = averaged_curvature(path, sol, np.array([1.0, 0.0]))
        t = 100.0
        exact = -(np.arctan(t) + t / (1 + t * t)) / (2.0 * t)
        assert series.value_at(100.0) == pytest.approx(exact, abs=1e-7)
        assert exact == pytest.approx(-7.8539783010411065e-3, abs=1e-12)

    def test_axis_average_beats_periodic_bound(self, anosov_spec):
        # axis geodesics average -h over moving windows: below -eta/(2T)
        # once t exceeds two periods
        bounds = scenario_bounds(anosov_spec)
        th = unit_tangent_from_direction(anosov_spec, 0.8, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(anosov_spec, th, 9.0 * np.pi, 0.01)
        sol = green_stable(path, t_obs=9.0 * np.pi, tol=1e-8)
        series = averaged_curvature(path, sol, np.array([1.0, 0.0]))
        mask = series.times > 2.0 * bounds.T
        assert np.all(series.values[mask] <= -bounds.eta / (2.0 * bounds.T) + 1e-6)

    def test_matrix_route_matches_geometric_route(self, anosov_spec):
        th = unit_tangent_from_direction(anosov_spec, 0.2, np.zeros(2), 0.3, [0.8, 0.52])
        path = integrate_geodesic(anosov_spec, th, 6.0, 0.005, drift_tol=1e-6)
        sol = green_stable(path, t_obs=6.0, tol=1e-8)
        w = sasaki_orthonormal_directions(sol.meta["Us0"])[:, 0]
        series = averaged_curvature(path, sol, w)
        ric = riccati_along(sol, w)
        # integrand of the series is the same plane curvature the Riccati
        # residual uses; compare the running average of ric.kappa
        dt = np.diff(ric.times)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (ric.kappa[1:] + ric.kappa[:-1]) * dt)])
        avg = cum[1:] / ric.times[1:]
        # the routes agree up to the frame's perpendicularity defect
        assert np.max(np.abs(avg - series.values[: len(avg)])) < 1e-8


class TestEstimateB:
    def test_constant_series(self):
        t = np.linspace(0.0, 10.0, 101)
        B, t0 = estimate_B([_series(t[1:], -np.ones(100))], t_min=5.0)
        assert B == pytest.approx(1.0)
        assert t0 == 0.0

    def test_requires_t_min(self):
        t = np.linspace(0.0, 2.0, 21)
        with pytest.raises(DomainError):
            estimate_B([_series(t[1:], -np.ones(20))], t_min=5.0)

    def test_t0_after_transient(self):
        t = np.linspace(0.0, 10.0, 101)[1:]
        vals = np.where(t < 3.0, -0.5, -2.0)
        B, t0 = estimate_B([_series(t, vals)], t_min=8.0)
        assert B == pytest.approx(2.0)
        assert 2.9 <= t0 <= 3.1

    def test_counterexample_refinement_to_zero(self, counter_spec):
        # along the ray the averages tend to zero: the estimated level
        # decreases toward zero as the window floor grows
        from warpflow.jacobi import solve_boundary

        th = unit_tangent_from_direction(counter_spec, 0.0, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(counter_spec, th, 440.0, 0.02, drift_tol=1e-4)
        sol = solve_boundary(path, 1024.0)
        series = averaged_curvature(path, sol, np.array([1.0, 0.0]))
        levels = []
        for t_min in (50.0, 100.0, 200.0, 400.0):
            keep = series.times <= 1.1 * t_min
            sub = AveragedCurvatureSeries(
                theta=series.theta, direction=0,
                times=series.times[keep], values=series.values[keep],
            )
            B, _ = estimate_B([sub], t_min=t_min)
            levels.append(B)
        assert all(b2 < b1 for b1, b2 in zip(levels, levels[1:]))
        assert levels[0] < 7.9e-3 * 2.0
        assert levels[-1] < 2.5e-3


class TestDecayEnvelope:
    def test_pure_exponential(self):
        t = np.linspace(0.0, 10.0, 2001)
        fit = decay_envelope(t, np.exp(-t))
        assert fit.found and fit.submult_ok
        assert fit.lam == pytest.approx(np.exp(-1.0), abs=1e-9)
        assert fit.C == pytest.approx(1.0, abs=1e-9)

    def test_scaled_exponential(self):
        t = np.linspace(0.0, 10.0, 2001)
        fit = decay_envelope(t, 2.0 * np.exp(-t))
        assert fit.found
        # first grid point with 2 e^{-r} <= 1 - slack
        assert fit.r == pytest.approx(np.log(2.0 / 0.95), abs=0.01)
        assert fit.lam <= np.exp(-1.0) * 2.0 ** (1.0 / fit.r) + 1e-12
        assert fit.C <= 2.0 + 1e-9

    def test_no_decay_reports_not_found(self):
        t = np.linspace(0.0, 10.0, 101)
        fit = decay_envelope(t, np.full(101, 0.99))
        assert not fit.found

    def test_saturating_profile_fails_submultiplicativity(self):
        # decays to a positive floor: passes the crossing test but is not
        # submultiplicative, so it cannot certify exponential decay
        t = np.linspace(0.0, 40.0, 4001)
        f = 0.5 + 0.5 * np.exp(-t)
        fit = decay_envelope(t, f)
        assert fit.found
        assert not fit.submult_ok

    def test_positive_domain_guard(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(DomainError):
            decay_envelope(t, np.concatenate([np.ones(10), [0.0]]))


class TestSampling:
    def test_deterministic_and_flip_closed(self, anosov_spec):
        thetas, desc = sample_thetas(anosov_spec, 24, seed=3)
        again, _ = sample_thetas(anosov_spec, 24, seed=3)
        assert desc["count"] == 24
        for a, b in zip(thetas, again):
            assert a.x == b.x and a.dx == b.dx and np.all(a.dy == b.dy)
        dirs = {(round(t.dx, 12),) + tuple(np.round(t.dy * np.exp(0), 12)) for t in thetas}
        # poles present
        assert any(abs(t.dx) == 1.0 for t in thetas)

    def test_x_within_fundamental_domain(self, anosov_spec):
        thetas, _ = sample_thetas(anosov_spec, 40, seed=0)
        assert all(0.0 <= t.x < 2.0 * np.pi for t in thetas)

    def test_nonperiodic_span(self, counter_spec):
        thetas, desc = sample_thetas(counter_spec, 40, seed=0, x_span=60.0)
        assert desc["x_span"] == 60.0
        assert max(t.x for t in thetas) > 20.0

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_small_counts(self, anosov_spec, count):
        # below 1 an input error; 1 the covering's first pole, 2 both poles
        kw = dict(step=0.05, samples=count, t_min=1.0, horizon=2.0)
        if count < 1:
            with pytest.raises(DomainError):
                sample_thetas(anosov_spec, count)
            with pytest.raises(DomainError):
                run_anosov_check(anosov_spec, **kw)
            return
        thetas, desc = sample_thetas(anosov_spec, count)
        assert [t.dx for t in thetas] == [1.0, -1.0][:count]
        assert desc["count"] == count and desc["directions"] == 2
        assert run_anosov_check(anosov_spec, **kw).report.sample["count"] == count


@pytest.mark.parametrize("n", [1, 2])
def test_pole_samples_shrink_by_the_period_factor(n):
    # on the axis geodesics of the periodic warp the stable field is
    # f I / (f(x0) I(x0)), I(x) = int_x^inf f^-2, at b0 = 1 and f / f(x0) at
    # b0 = -1, and f(x + 2 pi) = e^{2 pi a} f(x): over each whole period the
    # pipeline's flow norm shrinks by exactly e^{-2 pi a}.  RK4 meets that to
    # fourth order in the step 2 pi / N
    a = 3.0
    spec = scenarios.build_anosov_example(a, n=n)
    poles = sample_thetas(spec, 2)[0]
    assert [th.dx for th in poles] == [1.0, -1.0]
    errors = []
    for N in (128, 256):
        out = criterion._chunk_pipeline(
            spec, poles, step=2.0 * np.pi / N, horizon=4.0 * np.pi, green_tol=1e-8, green_r0=4.0 * np.pi + 16.0,
            green_max_doublings=3, drift_tol=1e-5, series_stride=25)
        assert out["green_ok"].all()
        norms = out["norms"]
        errors.append(np.abs(norms[N:] / norms[:-N] * np.exp(2.0 * np.pi * a) - 1.0).max())
    assert errors[1] < 1.5e-5
    assert errors[0] / errors[1] >= 8.0


@pytest.fixture(scope="module")
def const_result(const_spec):
    return run_anosov_check(
        const_spec, step=0.01, seed=0, samples=8, t_min=5.0, horizon=10.0,
        green_tol=1e-8, drift_tol=1e-6, workers=1,
    )


class TestVerdicts:

    def test_constant_curvature_consistent(self, const_result):
        report = const_result.report
        assert report.verdict == "anosov_consistent"
        assert report.B_est == pytest.approx(1.0, abs=1e-9)
        assert 0.0 < report.stable_envelope.lam < 1.0
        assert 0.0 < report.unstable_envelope.lam < 1.0

    def test_constant_curvature_rate(self, const_result):
        report = const_result.report
        assert report.stable_envelope.lam == pytest.approx(np.exp(-1.0), rel=2e-3)
        assert report.decay_bound_ok

    def test_flip_duality_of_profiles(self, const_result):
        # the sample is flip-closed, so the two profiles coincide
        ts, fs = const_result.stable_profile
        tu, fu = const_result.unstable_profile
        assert np.max(np.abs(fs - fu)) < 1e-9

    def test_series_nonpositive(self, const_result):
        for s in const_result.series:
            assert np.all(s.values <= 1e-12)

    def test_counterexample_not_consistent(self, counter_spec):
        res = run_anosov_check(
            counter_spec, step=0.1, seed=0, samples=24, t_min=40.0, horizon=60.0,
            green_tol=1e-4, green_max_doublings=2, drift_tol=1e-3, workers=1,
        )
        assert res.report.verdict == "not_anosov_consistent"
        assert not res.report.stable_envelope.found
        assert any(f["kind"] == "green_gap" for f in res.report.failures)

    def test_workers_do_not_change_results(self, const_spec):
        kw = dict(step=0.02, seed=1, samples=6, t_min=3.0, horizon=6.0,
                  green_tol=1e-8, drift_tol=1e-5, chunk_size=4)
        a = run_anosov_check(const_spec, workers=1, **kw)
        b = run_anosov_check(const_spec, workers=3, **kw)
        assert a.report.B_est == b.report.B_est
        assert a.report.stable_envelope.lam == b.report.stable_envelope.lam
        for sa, sb in zip(a.series, b.series):
            assert np.array_equal(sa.values, sb.values)

    def test_chunk_size_does_not_change_results(self, anosov_spec, counter_spec):
        # seed 3 mixes pole and oblique data; every sample certifies at the
        # second rung (r = 8), whose sweeps are rescaled while the first's are not
        periodic = dict(step=0.02, seed=3, samples=6, t_min=1.5, horizon=2.0, green_r0=4.0,
                        green_tol=1e-8, drift_tol=1e-5)
        # every counterexample ladder stops uncertified: the forecast stops
        # four of the six distinct data at the first rung, the other two
        # after the second
        counter = dict(step=0.1, seed=0, samples=6, t_min=10.0, horizon=12.0,
                       green_tol=1e-4, green_max_doublings=2, drift_tol=1e-3)
        for spec, kw in ((anosov_spec, periodic), (counter_spec, counter)):
            self._check_chunk_sizes(spec, kw)

    def test_byte_budget_batches_keep_the_bits(self, counter_spec, monkeypatch):
        # a budget of a third of the distinct data's estimate runs them in
        # three batches, with the bits of one batch
        kw = dict(step=0.1, seed=0, samples=6, t_min=10.0, horizon=12.0,
                  green_tol=1e-4, green_max_doublings=2, drift_tol=1e-3)
        batches = []
        pipeline = criterion._chunk_pipeline

        def counting(spec, thetas, **kwargs):
            batches.append(len(thetas))
            return pipeline(spec, thetas, **kwargs)

        monkeypatch.setattr(criterion, "_chunk_pipeline", counting)
        one = run_anosov_check(counter_spec, **kw)
        distinct = batches.pop()
        assert batches == [] and distinct == 6
        per_sample = criterion._sample_bytes(2 * round(28.0 / 0.1) + 1, round(12.0 / 0.1) + 1, 2)
        monkeypatch.setattr(criterion, "_BATCH_BYTES", per_sample * distinct // 3)
        self._check_same_results([one, run_anosov_check(counter_spec, **kw)])
        assert batches == [2, 2, 2]

    @staticmethod
    def _check_chunk_sizes(spec, kw):
        TestVerdicts._check_same_results(
            [run_anosov_check(spec, chunk_size=size, workers=1, **kw) for size in (1, 3, 28, None)]
        )

    @staticmethod
    def _check_same_results(runs):
        ref = runs[0]
        for other in runs[1:]:
            assert np.array_equal(ref.report.B_est, other.report.B_est)
            assert len(ref.series) == len(other.series)
            for sa, sb in zip(ref.series, other.series):
                assert np.array_equal(sa.times, sb.times)
                assert np.array_equal(sa.values, sb.values)
            for pa, pb in ((ref.stable_profile, other.stable_profile),
                           (ref.unstable_profile, other.unstable_profile)):
                assert np.array_equal(pa[0], pb[0])
                assert np.array_equal(pa[1], pb[1])
            assert ref.report.failures == other.report.failures


class TestDeduplication:
    def test_flip_closed_profiles_are_equal(self, const_result):
        assert np.array_equal(const_result.stable_profile[0], const_result.unstable_profile[0])
        assert np.array_equal(const_result.stable_profile[1], const_result.unstable_profile[1])

    def test_each_distinct_datum_integrated_once(self, const_spec, monkeypatch):
        from warpflow import engine

        # five directions are not closed under negation: one flipped datum is new
        base, _ = sample_thetas(const_spec, 5, seed=0)
        rows = [[th.x, *th.y, th.dx, *th.dy] for th in base]
        rows += [[th.x, *th.y, -th.dx, *(-th.dy)] for th in base]
        distinct = len(np.unique(np.array(rows) + 0.0, axis=0))  # + 0.0 maps -0.0 to 0.0
        assert len(base) < distinct < 2 * len(base)

        # a first leg starts at the sample's x; ladder growth resumes from the tails
        starts = {float(th.x) for th in base}
        first_legs = []
        integrate = engine.integrate_states

        def counting(*args, **kwargs):
            out = integrate(*args, **kwargs)
            if set(args[1][0].tolist()) <= starts:  # the x row of the kernel state
                assert kwargs["t0"] == 0.0
                first_legs.append(out["m"])
            return out

        monkeypatch.setattr(engine, "integrate_states", counting)
        run_anosov_check(const_spec, step=0.05, seed=0, samples=5, t_min=2.0, horizon=3.0,
                         green_tol=1e-8, drift_tol=1e-5, workers=1, chunk_size=4)
        assert sum(first_legs) == distinct

    def test_unconverged_failures_listed_for_both_sides(self, counter_spec):
        res = run_anosov_check(
            counter_spec, step=0.1, seed=0, samples=6, t_min=10.0, horizon=12.0,
            green_tol=1e-4, green_max_doublings=1, drift_tol=1e-3, workers=1,
        )
        gaps = {(f["theta"], f["side"]) for f in res.report.failures if f["kind"] == "green_gap"}
        assert gaps == {(s, side) for s in range(6) for side in ("stable", "flip")}


class TestValidation:
    @pytest.mark.parametrize("bad, name", [
        pytest.param(dict(samples=0), "samples", id="samples=0"),
        pytest.param(dict(chunk_size=0), "chunk_size", id="chunk_size=0"),
        pytest.param(dict(step=-0.05), "step", id="step=-0.05"),
    ])
    def test_bad_run_input_fails_before_sampling(self, anosov_spec, monkeypatch, bad, name):
        def sample(*args, **kwargs):
            raise AssertionError("sampled before validating")

        monkeypatch.setattr(criterion, "sample_thetas", sample)
        with pytest.raises(DomainError, match=name):
            run_anosov_check(anosov_spec, **{**dict(samples=4, t_min=1.0, horizon=2.0), **bad})

    @pytest.mark.parametrize("green_r0", [5.0, 10.0])
    def test_green_r0_inside_horizon_rejected(self, anosov_spec, green_r0):
        # a first leg ending inside the window would leave its nodes past r0 unswept
        with pytest.raises(DomainError, match="green_r0"):
            run_anosov_check(anosov_spec, step=0.05, samples=4, t_min=5.0, horizon=10.0, green_r0=green_r0)

    def test_green_r0_one_step_past_horizon_runs(self, anosov_spec):
        res = run_anosov_check(anosov_spec, step=0.05, samples=4, t_min=5.0, horizon=10.0, green_r0=10.05,
                               green_max_doublings=0)
        # r one step past the window leaves the bracket wide open at its end
        gaps = [f for f in res.report.failures if f["kind"] == "green_gap"]
        assert len(gaps) == 8 and all(np.isfinite(f["value"]) for f in gaps)


class TestDominance:
    def test_axis_sample_dominated(self, anosov_spec):
        bounds = scenario_bounds(anosov_spec)
        th = unit_tangent_from_direction(anosov_spec, 0.8, np.zeros(2), 1.0, [0.0, 0.0])
        path = integrate_geodesic(anosov_spec, th, 16.0 * np.pi, 0.01)
        sol = green_stable(path, t_obs=16.0 * np.pi, tol=1e-8)
        series = averaged_curvature(path, sol, np.array([1.0, 0.0]))
        check = dominance_check(bounds, [th], [series])
        assert check["ok"]
        assert check["checked"] > 0
