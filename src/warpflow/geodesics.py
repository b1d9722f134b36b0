"""Unit-speed geodesics of R x_f T^n and their parallel perpendicular frames.

The geodesic system in coordinates (x, y_1..y_n) is

    x''  = f f' (y_1'^2 + ... + y_n'^2),
    y_i'' = -2 (f'/f) x' y_i',

with the unit-speed first integral x'^2 + f^2 sum y_i'^2 = 1 and the
conserved fiber momenta p_i = f^2 y_i'.  In the orthonormal-basis variables
(u0, u) = (x', f y') the fiber direction e = u/|u| is constant, so
integration carries only the slice state (x, u0, s) with u = s e (and the
fiber displacement Y with y = y0 + Y e) and the curvature table (k1, k2) of
the two Jacobi modes.  A path stores just these; the parallel frame and the
curvature matrices are built in closed form from them on access, see
``engine``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import engine
from .errors import DomainError
from .geometry import TangentVector
from .warp import WarpSpec


@dataclass(frozen=True)
class UnitTangent:
    """A point of the unit tangent bundle in coordinates (x, y, dx, dy)."""

    x: float
    y: np.ndarray
    dx: float
    dy: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))
        object.__setattr__(self, "dy", np.atleast_1d(np.asarray(self.dy, dtype=float)))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def speed(self, spec: WarpSpec) -> float:
        f = float(spec.f(self.x))
        return float(np.sqrt(self.dx**2 + f * f * np.dot(self.dy, self.dy)))

    def frame_velocity(self, spec: WarpSpec) -> tuple:
        """Velocity components (u0, u) in the orthonormal basis."""
        g = float(spec.log_derivatives(np.asarray(self.x, float))[0])
        return float(self.dx), np.exp(g) * self.dy

    def as_tangent_vector(self) -> TangentVector:
        return TangentVector(x=self.x, y=self.y, dx=self.dx, dy=self.dy)


def unit_tangent(spec: WarpSpec, x, y, dx, dy, normalize: bool = True) -> UnitTangent:
    """Build a unit tangent vector, normalizing or validating the speed."""
    theta = UnitTangent(x=float(x), y=y, dx=float(dx), dy=dy)
    if theta.y.shape[0] != spec.n or theta.dy.shape[0] != spec.n:
        raise DomainError("fiber dimension mismatch")
    s = theta.speed(spec)
    if s <= 0.0 or not np.isfinite(s):
        raise DomainError("zero or non-finite velocity")
    if normalize:
        return UnitTangent(x=theta.x, y=theta.y, dx=theta.dx / s, dy=theta.dy / s)
    if abs(s - 1.0) > 1e-10:
        raise DomainError(f"velocity is not unit: |v| - 1 = {s - 1.0:.3e}")
    return theta


def unit_tangent_from_direction(spec: WarpSpec, x, y, u0, u) -> UnitTangent:
    """Unit tangent from orthonormal-basis velocity components (u0, u)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    norm = float(np.sqrt(u0 * u0 + np.dot(u, u)))
    if not 0.0 < norm < np.inf:
        raise DomainError("zero or non-finite velocity")
    u0, u = u0 / norm, u / norm
    g = float(spec.log_derivatives(np.asarray(float(x), float))[0])
    return UnitTangent(x=float(x), y=y, dx=float(u0), dy=np.exp(-g) * u)


def flip(theta: UnitTangent) -> UnitTangent:
    """The involution (x, v) -> (x, -v) on the unit tangent bundle."""
    return UnitTangent(x=theta.x, y=theta.y, dx=-theta.dx, dy=-theta.dy)


@dataclass
class GeodesicPath:
    """A time-sampled geodesic: its slice series and the curvature table of its frame.

    Data lives on the fine grid (half the requested step); ``times`` exposes
    the coarse, user-facing grid.  x, u0, s, Y are the slice state of
    ``engine`` and p = f s its fiber momentum; with e = ``frame[0]``, the
    vectors y = y0 + Y e, u = s e and the momenta p e are rebuilt on access.
    The parallel frame rows are V_i = (alpha_i, beta_i) in the orthonormal
    basis, with the constant coefficients ``frame`` = (e, c, w) of
    V_i = c_i E1 + (0, w_i) and E1 = (-s, u0 e).  ``curvatures`` holds
    (k1, k2) per node, so K = k2 I + (k1 - k2) c c^T (see ``engine``).
    ``alpha``, ``beta`` and ``K`` are computed on each access, O(J n^2);
    :meth:`frame_fields` and :meth:`curvature_matrices` build them at chosen
    nodes only.
    """

    spec: WarpSpec
    theta0: UnitTangent
    step: float
    times_fine: np.ndarray
    x: np.ndarray
    u0: np.ndarray
    s: np.ndarray
    Y: np.ndarray
    p: np.ndarray
    curvatures: np.ndarray
    frame: tuple
    unit_defect: np.ndarray
    max_unit_defect: float
    max_momentum_defect: float
    t0_index: int = 0

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def e(self) -> np.ndarray:
        return self.frame[0]

    @property
    def c(self) -> np.ndarray:
        return self.frame[1]

    @property
    def alpha(self) -> np.ndarray:
        return self.frame_fields()[0]

    @property
    def beta(self) -> np.ndarray:
        return self.frame_fields()[1]

    @property
    def K(self) -> np.ndarray:
        return self.curvature_matrices()

    @property
    def y(self) -> np.ndarray:
        return self.theta0.y + self.Y[:, None] * self.e

    @property
    def u(self) -> np.ndarray:
        return self.s[:, None] * self.e

    @property
    def momenta(self) -> np.ndarray:
        return self.p[:, None] * self.e

    @property
    def times(self) -> np.ndarray:
        return self.times_fine[::2]

    @property
    def t_lo(self) -> float:
        return float(self.times_fine[0])

    @property
    def t_hi(self) -> float:
        return float(self.times_fine[-1])

    def fine_index(self, t: float) -> int:
        return int(self.fine_indices([t])[0])

    def fine_indices(self, times) -> np.ndarray:
        """Fine-grid indices of an array of times; raises :class:`DomainError` for a time off the grid."""
        times = np.asarray(times, dtype=float)
        grid = self.times_fine
        with np.errstate(invalid="ignore"):
            j = np.rint((times - grid[0]) / (self.step / 2.0))
            inside = (j >= 0) & (j < len(grid))
            j = np.where(inside, j, 0).astype(int)
            on = inside & (np.abs(grid[j] - times) <= 1e-9 * np.maximum(1.0, np.abs(times)))
        if not on.all():
            raise DomainError(f"time {times[~on][0]} is not on the path grid")
        return j

    def coarse_index(self, t: float) -> int:
        j = self.fine_index(t)
        if j % 2:
            raise DomainError(f"time {t} is not on the coarse grid")
        return j // 2

    def state_at(self, t: float) -> UnitTangent:
        j = self.fine_index(t)
        y = self.theta0.y + self.Y[j] * self.e
        return unit_tangent_from_direction(self.spec, self.x[j], y, self.u0[j], self.s[j] * self.e)

    def slice_state_at(self, j: int) -> np.ndarray:
        """The kernel state (3, 1) with rows (x, u0, s) at fine node j, for ``engine.integrate_states``."""
        return np.array([[self.x[j]], [self.u0[j]], [self.s[j]]])

    def frame_fields(self, j=slice(None)) -> tuple:
        """The frame rows (alpha, beta) at fine nodes j (default: all): alpha = -c s, beta = w + c (u0 e)."""
        e, c, w = self.frame
        return -c * self.s[j][..., None], w + c[:, None] * (self.u0[j][..., None, None] * e)

    def curvature_matrices(self, j=slice(None)) -> np.ndarray:
        """The curvature matrices K = k2 I + (k1 - k2) c c^T at fine nodes j (default: all)."""
        return engine.split_matrix(self.curvatures[j], self.c)

    def frame_at(self, t: float) -> tuple:
        return self.frame_fields(self.fine_index(t))

    def momentum_defect_series(self) -> np.ndarray:
        e_max = np.abs(self.e).max()
        return engine._momentum_defect(self.p, self.s, self.p[self.t0_index], e_max)[0]


# the fine-grid series of a GeodesicPath
_SERIES = ("times_fine", "x", "u0", "s", "Y", "p", "curvatures", "unit_defect")


def integrate_geodesic(
    spec: WarpSpec,
    theta0: UnitTangent,
    t_end: float,
    step: float = 1e-3,
    *,
    drift_tol: Optional[float] = 1e-7,
) -> GeodesicPath:
    """Integrate the geodesic through theta0 over [0, t_end] (t_end may be negative).

    The window [min(0, t_end), max(0, t_end)] of :func:`integrate_window`.
    """
    return integrate_window(spec, theta0, min(0.0, t_end), max(0.0, t_end), step, drift_tol=drift_tol)


def integrate_window(
    spec: WarpSpec,
    theta0: UnitTangent,
    t_lo: float,
    t_hi: float,
    step: float = 1e-3,
    *,
    drift_tol: Optional[float] = 1e-7,
) -> GeodesicPath:
    """Integrate the geodesic through theta0 over a window [t_lo, t_hi] containing 0.

    Classic fixed-step RK4 on the half-step grid (the window snapped to it),
    one kernel run from theta0 each way, glued at t = 0: each node depends
    only on theta0 and its time, so a path over a larger window holds the
    same nodes.  The frame on the backward half is the backward continuation
    of the same parallel frame.  The node invariants (unit speed, momentum
    conservation) are tracked, and a run whose drift exceeds ``drift_tol``
    (None: unchecked) raises :class:`IntegratorDrift`.
    """
    if t_lo > 0 or t_hi < 0:
        raise DomainError("window must contain t = 0")
    u0, u = theta0.frame_velocity(spec)
    state, e = engine.slice_state(theta0.x, u0, u)
    back, fwd = (
        engine.integrate_states(spec, state, e, t0=0.0, t1=t1, step=step, drift_tol=drift_tol)
        for t1 in (-round(-t_lo / step) * step, round(t_hi / step) * step)
    )

    def glued(key):
        """The backward run reversed up to t = 0, then the forward run."""
        b, f = back[key], fwd[key]
        if key != "times_fine":
            b, f = b[:, 0], f[:, 0]
        return np.concatenate([b[:0:-1], f])

    return GeodesicPath(
        spec=spec,
        theta0=theta0,
        step=step,
        **{key: glued(key) for key in _SERIES},
        frame=tuple(part[0] for part in engine.start_frame(np.array([u0]), u[None])),
        max_unit_defect=float(max(run["max_unit_defect"][0] for run in (back, fwd))),
        max_momentum_defect=float(max(run["max_momentum_defect"][0] for run in (back, fwd))),
        t0_index=len(back["times_fine"]) - 1,
    )


def scalar_velocity_series(
    spec: WarpSpec, b0: float, t_end: float, x0: float = 0.0, step: float = 1e-3
):
    """The scalar reduction b' = g'(x)(1 - b^2), x' = b, read off the geodesic kernel.

    b = u0 of one stored kernel run from the slice state (x0, b0,
    sqrt(1 - b0^2)) at step 2 ``step``, whose half-step nodes are the output
    grid (t_end snapped to it).  Clairaut's relation f(x) s = const with
    s^2 = 1 - b^2 gives the log-odds ell = log((1+b)/(1-b)) as
    sign(b) (2 log(1 + |b|) + 2 (g(x) - g(x0)) - log(1 - b0^2)), which g(x)
    keeps growing after b rounds to 1.  Returns (times, b, ell).  The kernel
    raises :class:`DomainError` for a bad x0 and within a block of nodes of
    a non-finite x or warp value.
    """
    if not abs(b0) <= 1.0:
        raise DomainError("|b0| must be <= 1")
    if not np.isfinite(x0):
        raise DomainError("non-finite x0")
    nsteps = int(round(abs(t_end) / step))
    h = -step if t_end < 0 else step
    times = h * np.arange(nsteps + 1)
    if abs(b0) == 1.0:
        return times, np.full(nsteps + 1, b0), np.full(nsteps + 1, np.inf * b0)
    state, e = engine.slice_state(x0, b0, [np.sqrt(1.0 - b0 * b0)])
    # an odd step count runs one node further; that node is dropped
    run = engine.integrate_states(
        spec, state, e, t0=0.0, t1=2.0 * h * ((nsteps + 1) // 2), step=2.0 * step,
        with_curvatures=False,
    )
    x, b = (run[key][: nsteps + 1, 0] for key in ("x", "u0"))
    g = spec.triple(x)[0]
    ell = np.sign(b) * (2.0 * np.log1p(np.abs(b)) + 2.0 * (g - g[0]) - np.log1p(-b0 * b0))
    return times, b, ell


def scalar_velocity(spec: WarpSpec, b0: float, t: float, x0: float = 0.0, step: float = 1e-3) -> float:
    """The scalar velocity b(t) = x'(t) of the reduced geodesic equation."""
    _, b, _ = scalar_velocity_series(spec, b0, t, x0=x0, step=step)
    return float(b[-1])
