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
        """The kernel state (4, 1) with rows (x, u0, s, Y) at fine node j."""
        return np.array([[self.x[j]], [self.u0[j]], [self.s[j]], [self.Y[j]]])

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


def _squeeze_run(run: dict, reverse: bool) -> dict:
    """The series of a stored single-sample run, in time order."""
    sl = slice(None, None, -1) if reverse else slice(None)
    view = {key: run[key][sl, 0].copy() for key in _SERIES[1:]}
    view["times_fine"] = run["times_fine"][sl].copy()
    return view


def integrate_geodesic(
    spec: WarpSpec,
    theta0: UnitTangent,
    t_end: float,
    step: float = 1e-3,
    *,
    drift_tol: float = 1e-7,
) -> GeodesicPath:
    """Integrate the geodesic through theta0 over [0, t_end] (t_end may be negative).

    Classic fixed-step RK4 on the half-step grid; the node invariants (unit
    speed, momentum conservation) are tracked and a drift beyond
    ``drift_tol`` raises :class:`IntegratorDrift`.
    """
    u0, u = theta0.frame_velocity(spec)
    t_end = np.sign(t_end) * round(abs(t_end) / step) * step  # snap to the grid
    state, e = engine.slice_state(theta0.x, u0, u)
    run = engine.integrate_states(spec, state, e, t0=0.0, t1=float(t_end), step=step, drift_tol=drift_tol)
    reverse = t_end < 0
    frame = tuple(part[0] for part in engine.start_frame(np.array([u0]), u[None]))
    return GeodesicPath(
        spec=spec,
        theta0=theta0,
        step=step,
        **_squeeze_run(run, reverse),
        frame=frame,
        max_unit_defect=float(run["max_unit_defect"][0]),
        max_momentum_defect=float(run["max_momentum_defect"][0]),
        t0_index=len(run["times_fine"]) - 1 if reverse else 0,
    )


def _resume(path: GeodesicPath, t_lo: float, t_hi: float, drift_tol) -> GeodesicPath:
    """The path grown to the grid window [t_lo, t_hi] by resuming RK4 from its end nodes.

    Each end is continued from its stored slice state and glued on, with the
    path's frame coefficients; defects of the new pieces are measured
    against the path's initial momentum.  A run beyond ``drift_tol`` (None:
    unchecked) raises :class:`IntegratorDrift`.
    """
    step = path.step
    pieces = [{key: getattr(path, key) for key in _SERIES}]
    max_unit = path.max_unit_defect
    max_mom = path.max_momentum_defect
    p0, e_max = path.p[path.t0_index], np.abs(path.e).max()
    t0_index = path.t0_index
    for j, t_target, grows in ((-1, t_hi, t_hi > path.t_hi + 1e-12), (0, t_lo, t_lo < path.t_lo - 1e-12)):
        if not grows:
            continue
        run = engine.integrate_states(
            path.spec, path.slice_state_at(j), path.e[None],
            t0=path.times_fine[j], t1=t_target, step=step, drift_tol=drift_tol,
        )
        max_unit = max(max_unit, float(run["max_unit_defect"][0]))
        defect, dead = engine._momentum_defect(run["p"][:, 0], run["s"][:, 0], p0, e_max)
        alive = np.logical_and.accumulate(~dead)
        max_mom = max(max_mom, float(np.max(np.where(alive, defect, 0.0))))
        view = _squeeze_run(run, reverse=j == 0)
        if j == 0:
            pieces.insert(0, {key: v[:-1] for key, v in view.items()})
            t0_index += len(view["times_fine"]) - 1
        else:
            pieces.append({key: v[1:] for key, v in view.items()})
    return GeodesicPath(
        spec=path.spec,
        theta0=path.theta0,
        step=step,
        **{key: np.concatenate([piece[key] for piece in pieces], axis=0) for key in _SERIES},
        frame=path.frame,
        max_unit_defect=max_unit,
        max_momentum_defect=max_mom,
        t0_index=t0_index,
    )


def integrate_window(
    spec: WarpSpec,
    theta0: UnitTangent,
    t_lo: float,
    t_hi: float,
    step: float = 1e-3,
    *,
    drift_tol: float = 1e-7,
) -> GeodesicPath:
    """Integrate over a window [t_lo, t_hi] containing 0, gluing the two runs at 0.

    The frame on the backward half is the backward continuation of the same
    parallel frame, so curvature matrices and Jacobi data are consistent
    across the joint.  Both halves are checked against ``drift_tol``.
    """
    if t_lo > 0 or t_hi < 0:
        raise DomainError("window must contain t = 0")
    t_lo = -round(-t_lo / step) * step
    path = integrate_geodesic(spec, theta0, t_hi, step, drift_tol=drift_tol)
    return _resume(path, t_lo, path.t_hi, drift_tol)


def extend_path(path: GeodesicPath, t_lo: float, t_hi: float) -> GeodesicPath:
    """A new path covering [t_lo, t_hi], resuming integration from the stored ends.

    Resumed RK4 from a stored node state reproduces the arithmetic of one
    uninterrupted run, so the extension is exact; the input path is left
    untouched.  Extensions are not checked against a drift tolerance; their
    defects enter ``max_unit_defect`` and ``max_momentum_defect``.
    """
    step = path.step
    t_lo = -round(-min(t_lo, path.t_lo) / step) * step
    t_hi = round(max(t_hi, path.t_hi) / step) * step
    if t_lo >= path.t_lo - 1e-12 and t_hi <= path.t_hi + 1e-12:
        return path
    return _resume(path, t_lo, t_hi, None)


def scalar_velocity_series(
    spec: WarpSpec, b0: float, t_end: float, x0: float = 0.0, step: float = 1e-3
):
    """Integrate the scalar reduction b' = g'(x)(1 - b^2), x' = b.

    Works in the log-odds variable ell = log((1+b)/(1-b)), for which the
    equation is ell' = 2 g'(x) and b = tanh(ell/2); this keeps the strict
    growth bounds representable long after b saturates to 1 in double
    precision.  Returns (times, b, ell).  The steps evaluate the warp
    unchecked; :meth:`WarpSpec.log_derivatives` checks the visited x once at
    the end.
    """
    if abs(b0) > 1.0:
        raise DomainError("|b0| must be <= 1")
    if not np.isfinite(x0):
        raise DomainError("non-finite x0")
    nsteps = int(round(abs(t_end) / step))
    times = np.linspace(0.0, t_end, nsteps + 1)
    if abs(b0) == 1.0:
        b = np.full(nsteps + 1, b0)
        ell = np.full(nsteps + 1, np.inf * b0)
        return times, b, ell
    h = np.sign(t_end) * step if t_end != 0 else step
    xs, ells = states = np.empty((2, nsteps + 1))
    state = np.array([float(x0), np.log((1.0 + b0) / (1.0 - b0))])
    states[:, 0] = state

    def rhs(_stage, state):
        gp = spec.log_slope(state[:1])
        return np.array([np.tanh(state[1] / 2.0), 2.0 * gp[0]])

    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(nsteps):
            state = engine._rk4_step(rhs, state, h)
            states[:, i + 1] = state
        spec.log_derivatives(xs)  # raises if x left the domain of the warp
    return times, np.tanh(ells / 2.0), ells


def scalar_velocity(spec: WarpSpec, b0: float, t: float, x0: float = 0.0, step: float = 1e-3) -> float:
    """The scalar velocity b(t) = x'(t) of the reduced geodesic equation."""
    _, b, _ = scalar_velocity_series(spec, b0, t, x0=x0, step=step)
    return float(b[-1])
