"""Warp functions for product metrics g = dx^2 + f(x)^2 (dy_1^2 + ... + dy_n^2).

A warp is described either through the log-warp g = log f (``exponential``
mode, natural when f = e^g) or directly through f and its derivatives
(``direct`` mode).  All geometry downstream only ever needs the triple
(g, g', g'') -- equivalently (f'/f, f''/f) -- which stays O(1) even when
f itself overflows double precision.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

# Maps x-array -> (value, first, second derivative) arrays.
TripleFn = Callable[[np.ndarray], tuple]


@dataclass(frozen=True)
class ConditionReport:
    """Sampled check of the admissibility conditions on a warp.

    The three conditions are: (A) h = g'' + (g')^2 >= 0, (B) h periodic with
    the declared period, (C) the declared growth bounds C1/2 < g' < C2/2.
    """

    samples: int
    min_h: float
    max_h: float
    min_gp: float
    max_gp: float
    periodicity_defect: Optional[float]
    a_ok: Optional[bool]
    b_ok: Optional[bool]
    c_ok: Optional[bool]

    @property
    def all_ok(self) -> bool:
        return all(flag is not False for flag in (self.a_ok, self.b_ok, self.c_ok))


@dataclass(frozen=True)
class WarpSpec:
    """A warp function together with its validity metadata.

    Parameters
    ----------
    name : str
        Human-readable identifier (also used by the CLI scenario registry).
    n : int
        Dimension of the flat-torus factor; the manifold has dimension n + 1.
    mode : str
        ``"exponential"`` if ``triple`` returns (g, g', g'') with f = e^g,
        ``"direct"`` if it returns (f, f', f'').
    triple : callable
        Vectorized evaluator of the warp data, see ``mode``.
    slope : callable or None
        Optional unchecked evaluator of g' = f'/f alone, which the geodesic
        kernel calls at every RK4 stage of stored and unstored runs
        (:meth:`log_slope` takes g' from the triple without it).  It should
        repeat the floating-point operations of the triple's g', so that runs
        keep their bits; construction raises :class:`DomainError` where the
        two differ by more than 1e-12 (1 + |g'|) at seven points of
        :meth:`sample_window`.
    period : float or None
        Period of h(x) = g'' + (g')^2 when it is claimed periodic.
    growth_bounds : (float, float) or None
        Constants (C1, C2) with C1/2 < g' < C2/2 when claimed.
    claims : tuple of str
        Subset of ("A", "B", "C") that the spec asserts and that
        ``condition_report`` verifies by dense sampling.
    c_squared : float or None
        Lower curvature bound: all sectional curvatures are >= -c_squared.
    params : dict
        Construction parameters, used for config-file round trips.
    """

    name: str
    n: int
    mode: str
    triple: TripleFn
    slope: Optional[Callable[[np.ndarray], np.ndarray]] = None
    period: Optional[float] = None
    growth_bounds: Optional[tuple] = None
    claims: tuple = ()
    c_squared: Optional[float] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("exponential", "direct"):
            raise DomainError(f"unknown warp mode {self.mode!r}")
        if self.n < 1:
            raise DomainError("torus dimension n must be >= 1")
        if self.slope is not None:
            lo, hi = self.sample_window()
            x = np.linspace(lo, hi, 7)
            with np.errstate(all="ignore"):
                gp = self.log_triple(x)[1]
                given = np.asarray(self.slope(x), dtype=float)
                ok = np.abs(given - gp) <= 1e-12 * (1.0 + np.abs(gp))
            if not ok[np.isfinite(gp)].all():
                raise DomainError(f"slope of warp {self.name!r} disagrees with the g' of its triple")

    # -- evaluation -----------------------------------------------------

    def log_derivatives(self, x):
        """Return (g, g', g'') at x with g = log f.  Vectorized.

        Raises :class:`DomainError` for a non-finite x or, in direct mode, a
        non-positive f; :meth:`log_triple` is the same evaluation unchecked.
        """
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise DomainError("non-finite x")
        a, b, c = (np.asarray(v, dtype=float) for v in self.triple(x))
        if self.mode == "direct" and (a <= 0.0).any():
            raise DomainError("warp function must be positive")
        return self._log_form(a, b, c)

    def log_triple(self, x):
        """(g, g', g'') at a float array x, unchecked: the integration kernels' evaluator.

        A direct warp with f <= 0 gives g = -inf or NaN (with numpy's warning
        unless the caller silences it); callers test finiteness themselves.
        """
        return self._log_form(*self.triple(x))

    def log_slope(self, x):
        """g' at a float array x, unchecked: ``slope`` when given, else the g' of :meth:`log_triple`."""
        if self.slope is None:
            return self.log_triple(x)[1]
        return self.slope(x)

    def _log_form(self, a, b, c):
        """(g, g', g'') from the triple's values (f, f', f'') or (g, g', g'')."""
        if self.mode == "exponential":
            return a, b, c
        gp = b / a
        gpp = c / a - gp * gp
        return np.log(a), gp, gpp

    def f_derivatives(self, x):
        """Return (f, f', f'') at x.  Overflows for exponential warps at large g."""
        x = np.asarray(x, dtype=float)
        a, b, c = self.triple(x)
        if self.mode == "direct":
            return (np.asarray(a, float), np.asarray(b, float), np.asarray(c, float))
        g, gp, gpp = a, b, c
        f = np.exp(g)
        return f, gp * f, (gpp + gp * gp) * f

    def f(self, x):
        return self.f_derivatives(x)[0]

    def h(self, x):
        """Curvature density h(x) = g'' + (g')^2 = f''/f."""
        _, gp, gpp = self.log_derivatives(x)
        return gpp + gp * gp

    def rebased(self, x0: float) -> "WarpSpec":
        """Isometric rescaling of the fiber so that f(x0) = 1.

        Sectional curvature and the log-derivative data are invariant; this
        only conditions coordinate-level computations around x0.
        """
        base = self.triple
        if self.mode == "exponential":
            g0 = float(base(np.asarray(x0, float))[0])

            def shifted(x, _base=base, _g0=g0):
                g, gp, gpp = _base(x)
                return g - _g0, gp, gpp

            return replace(self, triple=shifted, params=dict(self.params), name=self.name)
        f0 = float(base(np.asarray(x0, float))[0])

        def scaled(x, _base=base, _f0=f0):
            f, fp, fpp = _base(x)
            return f / _f0, fp / _f0, fpp / _f0

        return replace(self, triple=scaled, params=dict(self.params), name=self.name)

    # -- condition checks -----------------------------------------------

    def sample_window(self) -> tuple:
        """Default x-window used for dense sampling of conditions."""
        if self.period is not None:
            return (0.0, float(self.period))
        return (-50.0, 50.0)

    def condition_report(self, samples: int = 10_000, tol: float = 1e-9) -> ConditionReport:
        lo, hi = self.sample_window()
        x = np.linspace(lo, hi, samples, endpoint=False)
        g, gp, gpp = self.log_derivatives(x)
        h = gpp + gp * gp
        a_ok = bool(np.min(h) >= -tol) if "A" in self.claims else None
        b_ok = None
        period_defect = None
        if "B" in self.claims and self.period is not None:
            gT, gpT, gppT = self.log_derivatives(x + self.period)
            period_defect = float(np.max(np.abs((gppT + gpT * gpT) - h)))
            b_ok = bool(period_defect < max(tol, 1e-9 * (1.0 + np.max(np.abs(h)))))
        c_ok = None
        if "C" in self.claims and self.growth_bounds is not None:
            c1, c2 = self.growth_bounds
            c_ok = bool(np.min(gp) > c1 / 2.0 - tol and np.max(gp) < c2 / 2.0 + tol)
        return ConditionReport(
            samples=samples,
            min_h=float(np.min(h)),
            max_h=float(np.max(h)),
            min_gp=float(np.min(gp)),
            max_gp=float(np.max(gp)),
            periodicity_defect=period_defect,
            a_ok=a_ok,
            b_ok=b_ok,
            c_ok=c_ok,
        )

    def curvature_bound(self, samples: int = 10_000) -> float:
        """Sampled c^2 with all sectional curvatures >= -c^2."""
        if self.c_squared is not None:
            return self.c_squared
        lo, hi = self.sample_window()
        x = np.linspace(lo, hi, samples)
        _, gp, gpp = self.log_derivatives(x)
        return float(max(_refined_max(x, gpp + gp * gp), _refined_max(x, gp * gp), 0.0))

    # -- serialization ---------------------------------------------------

    def to_config_section(self) -> dict:
        """Key-value form of the warp for the ``[warp]`` config section."""
        if "kind" not in self.params:
            raise DomainError("only catalog warps are serializable")
        out = {"kind": str(self.params["kind"]), "n": str(self.n)}
        for key in ("a", "k"):
            if key in self.params:
                out[key] = repr(float(self.params[key]))
        return out


def _refined_max(x: np.ndarray, values: np.ndarray) -> float:
    """Max of a sampled smooth profile, parabola-corrected at the peak.

    A plain grid max underestimates an interior peak by O(dx^2); the vertex
    of the parabola through the three nodes around the argmax removes that
    bias so the result is a usable upper bound.
    """
    k = int(np.argmax(values))
    if k == 0 or k == len(values) - 1:
        return float(values[k])
    y0, y1, y2 = values[k - 1], values[k], values[k + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom >= 0.0:
        return float(y1)
    return float(y1 - (y2 - y0) ** 2 / (8.0 * denom))


def triple_from_scalar(gfunc: Callable[[np.ndarray], np.ndarray], fd_step: float = 1e-5) -> TripleFn:
    """Build a (g, g', g'') evaluator from a plain scalar g by central differences."""

    def triple(x):
        x = np.asarray(x, dtype=float)
        g = gfunc(x)
        gp = (gfunc(x + fd_step) - gfunc(x - fd_step)) / (2.0 * fd_step)
        gpp = (gfunc(x + fd_step) - 2.0 * g + gfunc(x - fd_step)) / (fd_step * fd_step)
        return g, gp, gpp

    return triple


def warp_from_config_section(section: dict) -> "WarpSpec":
    """Inverse of :meth:`WarpSpec.to_config_section` for catalog warps."""
    from . import scenarios

    kind = section.get("kind", "").strip()
    params = {key: float(section[key]) for key in ("a", "k") if key in section}
    return scenarios.build_scenario(kind, n=int(section.get("n", "2")), **params)
