"""Catalog of warp scenarios and their closed-form averaged-curvature bounds.

Three families:

* ``anosov-warped-torus``: g(x) = a x - cos x + sin x for a > 0 large enough
  that h = g'' + (g')^2 stays non-negative.  h is 2*pi-periodic and g' is
  pinned strictly between a - sqrt(2) and a + sqrt(2), which yields uniform
  negative bounds on time-averaged curvature along every geodesic.
* ``counterexample-sqrt``: f(x) = sqrt(1 + x^2).  All sectional curvatures
  are negative yet decay to zero along rays, so time averages tend to zero
  and no uniform contraction is possible.
* ``constant-curvature``: g(x) = k x, the closed-form oracle with all
  sectional curvatures equal to -k^2.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConditionAViolated, DomainError
from .warp import WarpSpec, _refined_max

def build_anosov_example(a: float, n: int = 2) -> WarpSpec:
    """Warp g(x) = a x - cos x + sin x with the growth constants attached."""
    if a <= 0.0:
        raise DomainError("a must be positive")

    def triple(x, _a=float(a)):
        x = np.asarray(x, dtype=float)
        s, c = np.sin(x), np.cos(x)
        return _a * x - c + s, _a + s + c, c - s

    # a as a 0-d array, which numpy adds to an array faster than a float
    def slope(x, _a=np.array(float(a))):
        return _a + np.sin(x) + np.cos(x)

    xs = np.linspace(0.0, 2.0 * np.pi, 10_000, endpoint=False)
    _, gp, gpp = triple(xs)
    h = gpp + gp * gp
    if np.min(h) < -1e-9:
        raise ConditionAViolated(
            f"h = g'' + (g')^2 dips to {np.min(h):.6f} for a = {a}; "
            "increase a so h stays non-negative"
        )
    c1 = 2.0 * (a - np.sqrt(2.0))
    c2 = 2.0 * (a + np.sqrt(2.0))
    if c1 <= 0.0:
        raise ConditionAViolated(f"a = {a} gives non-positive growth constant C1")
    c_sq = float(max(_refined_max(xs, h), _refined_max(xs, gp * gp)))
    return WarpSpec(
        name=f"anosov-warped-torus(a={a:g})",
        n=n,
        triple=triple,
        slope=slope,
        period=2.0 * np.pi,
        growth_bounds=(c1, c2),
        claims=("A", "B", "C"),
        c_squared=c_sq,
        params={"kind": "anosov-warped-torus", "a": float(a)},
    )


def build_counterexample(n: int = 2) -> WarpSpec:
    """Warp f(x) = sqrt(1 + x^2), g = log(1 + x^2)/2; negative curvature, no uniform average."""

    def triple(x):
        x = np.asarray(x, dtype=float)
        q = 1.0 + x * x
        return 0.5 * np.log(q), x / q, (2.0 - q) / (q * q)

    def slope(x):
        return x / (1.0 + x * x)

    # K >= -max(f''/f, (f'/f)^2) = -1, the first factor peaking at x = 0
    c_sq = 1.0
    return WarpSpec(
        name="counterexample-sqrt",
        n=n,
        triple=triple,
        slope=slope,
        period=None,
        growth_bounds=None,
        claims=(),
        c_squared=c_sq,
        params={"kind": "counterexample-sqrt"},
    )


def build_constant_curvature(k: float, n: int = 2) -> WarpSpec:
    """Warp g(x) = k x; every sectional curvature equals -k^2."""
    if k <= 0.0:
        raise DomainError("k must be positive")

    def triple(x, _k=float(k)):
        x = np.asarray(x, dtype=float)
        return _k * x, np.full_like(x, _k), np.zeros_like(x)

    def slope(x, _k=float(k)):
        return np.full_like(x, _k)

    return WarpSpec(
        name=f"constant-curvature(k={k:g})",
        n=n,
        triple=triple,
        slope=slope,
        period=2.0 * np.pi,
        growth_bounds=(k, 3.0 * k),
        claims=("A", "B", "C"),
        c_squared=float(k * k),
        params={"kind": "constant-curvature", "k": float(k)},
    )


@dataclass(frozen=True)
class Scenario:
    """A catalog entry: its builder, the float parameters it takes besides n,
    and the ``anosov-check`` preset used for flags the user leaves unset."""

    build: Callable[..., WarpSpec]
    params: tuple
    preset: dict


SCENARIOS = {
    "anosov-warped-torus": Scenario(
        build_anosov_example, ("a",),
        dict(step=0.02, samples=112, t_min=200.0, horizon=220.0,
             green_tol=1e-8, green_max_doublings=12, drift_tol=1e-5),
    ),
    "counterexample-sqrt": Scenario(
        build_counterexample, (),
        dict(step=0.05, samples=64, t_min=100.0, horizon=120.0,
             green_tol=1e-4, green_max_doublings=2, drift_tol=1e-4),
    ),
    "constant-curvature": Scenario(
        build_constant_curvature, ("k",),
        dict(step=0.005, samples=16, t_min=5.0, horizon=10.0,
             green_tol=1e-8, green_max_doublings=12, drift_tol=1e-6),
    ),
}


def build_scenario(name: str, *, a: float = 3.0, k: float = 1.0, n: int = 2) -> WarpSpec:
    entry = SCENARIOS.get(name)
    if entry is None:
        raise DomainError(f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}")
    values = {"a": a, "k": k}
    return entry.build(n=n, **{key: values[key] for key in entry.params})


@dataclass(frozen=True)
class ScenarioBounds:
    """Closed-form averaged-curvature bounds for a periodic-warp scenario.

    ``eta`` is the integral of h over one period by the periodic trapezoid
    rule (:func:`scenario_bounds` raises if 512 and 1024 nodes disagree),
    ``slow_entry`` the constant 2/C1 * log 3 bounding how long a geodesic can
    take to reach forward speed 1/2, and ``final_bound`` the uniform bound
    valid for every start velocity once t exceeds ``threshold(b0)``.
    """

    T: float
    eta: float
    C1: float
    C2: float
    slow_entry: float

    @property
    def case1_bound(self) -> float:
        return -self.eta / (2.0 * self.T)

    @property
    def case2_bound(self) -> float:
        return -self.eta / (16.0 * self.T)

    @property
    def case3_bound(self) -> float:
        return -self.eta / (32.0 * self.T)

    @property
    def case3_threshold(self) -> float:
        return max(self.slow_entry + 4.0 * self.T, 2.0 * self.slow_entry)

    @property
    def case4_threshold(self) -> float:
        return 4.0 * self.T + self.case3_threshold

    @property
    def final_bound(self) -> float:
        return max(
            -self.eta / (64.0 * self.T),
            -self.eta / (4.0 * (8.0 * self.T + 2.0 * self.slow_entry)),
        )


def scenario_bounds(spec: WarpSpec) -> ScenarioBounds:
    """Bound data for a periodic scenario.

    ``eta`` is the periodic trapezoid rule for h over one period at 1024
    nodes (exact for the catalog's trigonometric h).  Raises DomainError for
    a warp without period or growth constants, if eta <= 0, or if the rule at
    512 nodes differs by more than 1e-10 (1 + |eta|) or is not finite.
    """
    if spec.period is None or spec.growth_bounds is None:
        raise DomainError("bounds require a periodic warp with growth constants")
    T = float(spec.period)
    coarse, eta = (T * float(np.mean(spec.h(np.linspace(0.0, T, n, endpoint=False)))) for n in (512, 1024))
    if not abs(eta - coarse) <= 1e-10 * (1.0 + abs(eta)):
        raise DomainError(f"h is not resolved over one period: integral {coarse!r} at 512 nodes, {eta!r} at 1024")
    if eta <= 0.0:
        raise DomainError("integral of h over one period must be positive")
    c1, c2 = spec.growth_bounds
    return ScenarioBounds(
        T=T, eta=eta, C1=float(c1), C2=float(c2), slow_entry=float(2.0 / c1 * np.log(3.0))
    )


def case_bound(bounds: ScenarioBounds, b0: float, t: float) -> Optional[float]:
    """Theoretical upper bound for the averaged curvature at time t, or None.

    The bound depends on the bracket of the initial forward speed b0 and only
    applies above a bracket-specific time threshold; below it the result is
    None ("not applicable").
    """
    if not -1.0 <= b0 <= 1.0:
        raise DomainError("b0 must lie in [-1, 1]")
    if abs(b0) == 1.0:
        return bounds.case1_bound if t > 2.0 * bounds.T else None
    if 0.5 <= b0 < 1.0:
        return bounds.case2_bound if t > 4.0 * bounds.T else None
    if -0.5 <= b0 < 0.5:
        return bounds.case3_bound if t > bounds.case3_threshold else None
    return bounds.final_bound if t > bounds.case4_threshold else None
