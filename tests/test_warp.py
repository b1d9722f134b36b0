import numpy as np
import pytest

from warpflow import scenarios
from warpflow.errors import DomainError
from warpflow.warp import WarpSpec, triple_from_scalar, warp_from_config_section


def test_counterexample_log_derivatives(counter_spec):
    xs = np.linspace(-3.0, 3.0, 41)
    g, gp, gpp = counter_spec.log_derivatives(xs)
    assert np.allclose(g, 0.5 * np.log(1 + xs * xs), atol=1e-14)
    assert np.allclose(gp, xs / (1 + xs * xs), atol=1e-14)
    # h = f''/f
    assert np.allclose(gpp + gp * gp, (1 + xs * xs) ** -2, atol=1e-14)


def test_f_derivatives_roundtrip(anosov_spec):
    xs = np.linspace(-1.0, 1.0, 11)
    f, fp, fpp = anosov_spec.f_derivatives(xs)
    g, gp, gpp = anosov_spec.log_derivatives(xs)
    assert np.allclose(f, np.exp(g))
    assert np.allclose(fp / f, gp)
    assert np.allclose(fpp / f, gpp + gp * gp)


def test_positive_warp_required():
    def triple(x):
        x = np.asarray(x, float)
        with np.errstate(invalid="ignore"):
            return np.log(x - 10.0), 1.0 / (x - 10.0), -1.0 / ((x - 10.0) * (x - 10.0))

    # f = x - 10 < 0 at x = 0, where g = log f is NaN
    spec = WarpSpec(name="bad", n=1, triple=triple)
    with pytest.raises(DomainError):
        spec.log_derivatives(np.array([0.0]))


def test_scalar_warp_central_differences():
    spec_triple = triple_from_scalar(lambda x: np.sin(x))
    xs = np.linspace(0.0, 2.0, 21)
    g, gp, gpp = spec_triple(xs)
    assert np.allclose(g, np.sin(xs))
    assert np.allclose(gp, np.cos(xs), atol=1e-9)
    assert np.allclose(gpp, -np.sin(xs), atol=1e-5)


def test_condition_report_fields(anosov_spec):
    rep = anosov_spec.condition_report(samples=2000)
    assert rep.samples == 2000
    assert rep.periodicity_defect < 1e-12
    assert rep.all_ok
    c1, c2 = anosov_spec.growth_bounds
    assert c1 / 2 - 1e-12 <= rep.min_gp and rep.max_gp <= c2 / 2 + 1e-12


def test_unknown_config_kind():
    with pytest.raises(DomainError):
        warp_from_config_section({"kind": "mystery", "n": "2"})


def test_custom_warp_not_serializable():
    def triple(x):
        x = np.asarray(x, float)
        return x, np.ones_like(x), np.zeros_like(x)

    spec = WarpSpec(name="custom", n=2, triple=triple)
    with pytest.raises(DomainError):
        spec.to_config_section()


def test_rebased_preserves_log_derivatives(counter_spec):
    xs = np.linspace(-2.0, 2.0, 21)
    local = counter_spec.rebased(1.5)
    _, gp0, gpp0 = counter_spec.log_derivatives(xs)
    _, gp1, gpp1 = local.log_derivatives(xs)
    assert np.allclose(gp0, gp1, atol=1e-12)
    assert np.allclose(gpp0, gpp1, atol=1e-12)
    assert local.f(np.asarray(1.5)) == pytest.approx(1.0, rel=1e-14)
    assert np.array_equal(local.log_slope(xs), counter_spec.log_slope(xs))
    assert np.allclose(local.log_slope(xs), gp1, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", list(scenarios.SCENARIOS))
def test_log_triple_equals_log_derivatives(name):
    spec = scenarios.build_scenario(name, n=2)
    xs = np.linspace(-300.0, 300.0, 6001)
    for unchecked, checked in zip(spec.triple(xs), spec.log_derivatives(xs)):
        assert np.array_equal(unchecked, checked)
    assert spec.slope is not None
    assert np.array_equal(spec.log_slope(xs), spec.triple(xs)[1])


def test_log_slope_falls_back_to_the_triple():
    spec = WarpSpec(name="sin", n=1, triple=triple_from_scalar(np.sin))
    xs = np.linspace(0.0, 2.0, 21)
    assert spec.slope is None
    assert np.array_equal(spec.log_slope(xs), spec.triple(xs)[1])


def test_slope_must_match_the_triple():
    def triple(x):
        return np.sin(x), np.cos(x), -np.sin(x)

    WarpSpec(name="sin", n=1, triple=triple, slope=np.cos)
    for wrong in (lambda x: np.cos(x) * (1.0 + 1e-9), lambda x: np.cos(x) + 1e-11, lambda x: np.full_like(x, np.nan)):
        with pytest.raises(DomainError):
            WarpSpec(name="sin", n=1, triple=triple, slope=wrong)

    # f = x vanishes at x = 0 inside the window, where g' = 1/x is not finite
    def line(x):
        return np.log(x), 1.0 / x, -1.0 / (x * x)

    WarpSpec(name="line", n=1, triple=line, slope=lambda x: 1.0 / x)
    with pytest.raises(DomainError):
        WarpSpec(name="line", n=1, triple=line, slope=lambda x: 1.0 / (x + 1e-3))
