"""Property-based checks of the geometric and dynamical invariants."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from warpflow.geodesics import (
    flip,
    integrate_geodesic,
    scalar_velocity_series,
    unit_tangent_from_direction,
)
from warpflow.geometry import TangentVector, curvature_tensor, metric_dot, sectional_curvature
from warpflow.errors import DegeneratePlane
from warpflow.jacobi import solve_jacobi_ivp
from warpflow.scenarios import build_anosov_example, build_counterexample

SPEC = build_anosov_example(3.0, n=2)
COUNTER = build_counterexample(n=2)

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)
coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


def _vec(x, comps):
    return TangentVector(x=x, y=np.zeros(2), dx=comps[0], dy=np.asarray(comps[1:]))


@settings(max_examples=40, deadline=None)
@given(coord, st.tuples(finite, finite, finite), st.tuples(finite, finite, finite))
def test_metric_dot_symmetric_bilinear(x, uc, wc):
    p = (x, np.zeros(2))
    u, w = _vec(x, uc), _vec(x, wc)
    assert metric_dot(SPEC, p, u, w) == pytest.approx(metric_dot(SPEC, p, w, u), rel=1e-12, abs=1e-12)
    two_u = _vec(x, tuple(2.0 * c for c in uc))
    assert metric_dot(SPEC, p, two_u, w) == pytest.approx(
        2.0 * metric_dot(SPEC, p, u, w), rel=1e-12, abs=1e-12
    )
    assert metric_dot(SPEC, p, u, u) >= 0.0


@settings(max_examples=30, deadline=None)
@given(coord, st.tuples(finite, finite, finite), st.tuples(finite, finite, finite),
       st.tuples(finite, finite, finite), st.tuples(finite, finite, finite))
def test_curvature_form_symmetries(x, ac, bc, cc, dc):
    p = (x, np.zeros(2))

    def unit(comps):
        v = _vec(x, comps)
        nrm = np.sqrt(metric_dot(SPEC, p, v, v))
        if nrm < 1e-6:
            return None
        return _vec(x, tuple(c / nrm for c in comps))

    vecs = [unit(c) for c in (ac, bc, cc, dc)]
    if any(v is None for v in vecs):
        return
    A, B, C, D = vecs

    def form(a, b, c, d):
        return metric_dot(SPEC, p, curvature_tensor(SPEC, p, a, b, c), d)

    # metric-unit inputs keep the form O(|curvature|), so absolute
    # tolerances are meaningful
    r = form(A, B, C, D)
    scale = 1.0 + abs(r)
    assert abs(form(B, A, C, D) + r) < 1e-9 * scale
    assert abs(form(A, B, D, C) + r) < 1e-9 * scale
    assert abs(form(C, D, A, B) - r) < 1e-9 * scale


@settings(max_examples=30, deadline=None)
@given(coord, st.tuples(finite, finite, finite), st.tuples(finite, finite, finite))
# nearly parallel: 1 - <u, w>^2 = 4e-12 sits just above the degeneracy guard
@example(x=0.0, uc=(1.0, 0.0, 0.0), wc=(0.5, 1e-6, 0.0))
def test_scenario_curvatures_nonpositive_and_bounded(x, uc, wc):
    for spec in (SPEC, COUNTER):
        p = (x, np.zeros(2))
        try:
            val = sectional_curvature(spec, p, _vec(x, uc), _vec(x, wc))
        except DegeneratePlane:
            continue
        assert val <= 1e-12
        assert val >= -spec.curvature_bound() - 1e-9


@settings(max_examples=15, deadline=None)
@given(
    st.floats(min_value=-0.99, max_value=0.99),
    st.floats(min_value=0.0, max_value=2 * np.pi),
    st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_unit_speed_preserved(b0, x0, ang):
    rest = np.sqrt(1.0 - b0 * b0)
    th = unit_tangent_from_direction(
        SPEC, x0, np.zeros(2), b0, [rest * np.cos(ang), rest * np.sin(ang)]
    )
    path = integrate_geodesic(SPEC, th, 2.0, 0.005, drift_tol=1e-5)
    assert path.max_unit_defect < 1e-9
    assert path.max_momentum_defect < 1e-6


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=-0.95, max_value=0.95), st.floats(min_value=0.0, max_value=2 * np.pi))
def test_speed_bounds_sandwich(b0, x0):
    c1, c2 = SPEC.growth_bounds
    times, _, ell = scalar_velocity_series(SPEC, b0, 30.0, x0=x0, step=5e-3)
    ell0 = np.log((1.0 + b0) / (1.0 - b0))
    assert np.all(ell[1:] > ell0 + c1 * times[1:])
    assert np.all(ell[1:] < ell0 + c2 * times[1:])


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=-0.9, max_value=0.9), st.floats(min_value=0.1, max_value=2 * np.pi))
def test_flip_is_involution_and_isometric(b0, x0):
    rest = np.sqrt(1.0 - b0 * b0)
    th = unit_tangent_from_direction(SPEC, x0, np.zeros(2), b0, [rest, 0.0])
    assert flip(flip(th)).dx == th.dx
    assert np.all(flip(flip(th)).dy == th.dy)
    assert flip(th).speed(SPEC) == th.speed(SPEC)


@settings(max_examples=8, deadline=None)
@given(
    st.tuples(finite, finite, finite, finite),
    st.tuples(finite, finite, finite, finite),
)
def test_wronskian_constancy_random_data(y0c, yp0c):
    th = unit_tangent_from_direction(SPEC, 0.3, np.zeros(2), 0.2, [0.6, 0.77])
    path = integrate_geodesic(SPEC, th, 3.0, 0.01, drift_tol=1e-6)
    Y0 = np.asarray(y0c).reshape(2, 2) + np.eye(2)
    Yp0 = np.asarray(yp0c).reshape(2, 2)
    sol = solve_jacobi_ivp(path, Y0, Yp0)
    assert sol.wronskian_defect() < 1e-8
