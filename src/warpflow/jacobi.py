"""Matrix Jacobi fields along geodesics: two-point problems, limits, Riccati data.

The perpendicular Jacobi equation along a unit-speed geodesic, written in a
parallel perpendicular frame, is the matrix ODE

    Y''(t) + K(t) Y(t) = 0,

with K(t) the symmetric curvature matrix of a
:class:`~warpflow.geodesics.GeodesicPath`, which stores only its
coefficients (k1, k2).  Two-point solutions Y(0) = I,
Y(r) = 0 exist and are unique here because the scenario metrics have
non-positive curvature (no conjugate points); letting r -> +inf / -inf gives
the stable / unstable solutions whose columns span the candidate contracting
and expanding subspaces of the flow derivative.

Here K = k2 I + (k1 - k2) c c^T with a constant unit vector c (see
``engine``), so a two-point solution is Y = y1 c c^T + y2 (I - c c^T) with
scalar two-point solutions y1, y2 (the modes), swept from the vanishing
endpoint: exact at horizons where shooting from t = 0 loses every digit to
cancellation.  Such solutions carry their modes, on which the r-ladder and
the flow-derivative norms work; the ladder stops at the first rung whose
Dirichlet-Neumann bracket certifies the limit.  Every two-point solve, batched
(``criterion``) or single-sample (m = 1), sweeps the table of one driver,
:class:`_Sweeps`, which grows the (k1, k2) table past the stored data as far
as r needs and stores no path there.  Initial-value solves march the scalar
fundamental pairs (A_k, B_k) both ways from t = 0 and assemble
Y = sum_k P_k (A_k Y(0) + B_k Y'(0)) with P_1 = c c^T, P_2 = I - c c^T; they
carry no modes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import engine
from .errors import ConjugatePointDetected, DomainError, GreenNotConverged, VanishingJacobiField
from .geodesics import GeodesicPath, integrate_window


@dataclass
class MatrixJacobiSolution:
    """(Y, Y') on the coarse grid of a path; two-point and limit solutions also carry their modes (y, y')."""

    path: GeodesicPath
    times: np.ndarray
    Y: np.ndarray
    Yp: np.ndarray
    kind: str
    r: Optional[float] = None
    meta: dict = field(default_factory=dict)
    modes: Optional[tuple] = None

    @property
    def n(self) -> int:
        return self.Y.shape[-1]

    def index_of(self, t: float) -> int:
        i = int(round((t - self.times[0]) / self.path.step))
        if i < 0 or i >= len(self.times) or abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise DomainError(f"time {t} is not on the solution grid")
        return i

    def wronskian_defect(self) -> float:
        """Max drift of Y^T Y' - Y'^T Y from its initial value, scale-free.

        Normalized per node by the product of the factor norms so the
        constancy is measured relatively on exponentially growing solutions.
        """
        w = np.einsum("cki,ckj->cij", self.Y, self.Yp) - np.einsum("cki,ckj->cij", self.Yp, self.Y)
        scale = 1.0 + np.sqrt(
            np.einsum("cij,cij->c", self.Y, self.Y) * np.einsum("cij,cij->c", self.Yp, self.Yp)
        )
        return float(np.max(np.max(np.abs(w - w[0]), axis=(1, 2)) / scale))

    def residual_defect(self) -> float:
        """Scale-free residual of Y'' + K Y via a fourth-order difference stencil."""
        h = self.path.step
        K = self.path.curvature_matrices(self.path.fine_indices(self.times))
        Y = self.Y
        if len(self.times) < 5:
            raise DomainError("need at least 5 grid nodes for the residual check")
        ypp = (-Y[:-4] + 16.0 * Y[1:-3] - 30.0 * Y[2:-2] + 16.0 * Y[3:-1] - Y[4:]) / (12.0 * h * h)
        res = ypp + np.einsum("cij,cjq->ciq", K[2:-2], Y[2:-2])
        scale = 1.0 + np.einsum("cij,cij->c", Y[2:-2], Y[2:-2]) ** 0.5 * (
            1.0 + np.einsum("cij,cij->c", K[2:-2], K[2:-2]) ** 0.5
        )
        return float(np.max(np.sqrt(np.einsum("ciq,ciq->c", res, res)) / scale))

    def det_series(self) -> np.ndarray:
        return np.linalg.det(self.Y)

    def field_norms(self, w: np.ndarray) -> np.ndarray:
        """Norm of the Jacobi field J(t) = Y(t) w on the grid."""
        J = np.einsum("cij,j->ci", self.Y, np.asarray(w, float))
        return np.sqrt(np.einsum("ci,ci->c", J, J))


def _modal_solution(path, times, y, yp, kind, **extra) -> MatrixJacobiSolution:
    """The solution with modes (y, y') (nodes, M) along ``path``, its matrices assembled with ``path.c``."""
    Y, Yp = (engine.split_matrix(a, path.c[None]) for a in (y, yp))
    return MatrixJacobiSolution(path=path, times=times, Y=Y, Yp=Yp, kind=kind, modes=(y, yp), **extra)


def solve_jacobi_ivp(path: GeodesicPath, Y0, Yp0) -> MatrixJacobiSolution:
    """RK4 solve of Y'' + K Y = 0 along the path from data (Y0, Yp0) at t = 0, by fundamental pairs."""
    n = path.n
    M = min(n, 2)  # at n = 1, I - c c^T = 0
    Y0 = np.asarray(Y0, dtype=float).reshape(n, n)
    Yp0 = np.asarray(Yp0, dtype=float).reshape(n, n)
    zero, last = path.t0_index // 2, len(path.times) - 1
    F = np.broadcast_to(np.eye(2)[:, :, None, None], (2, 2, 1, M))  # A_k(0) = B_k'(0) = 1
    table = path.curvatures[:, None, :M]
    # marched from the t = 0 node backward onto the nodes before it, then forward
    halves = [engine.scalar_march(table, path.step, zero, stop, F, lo, hi)
              for stop, lo, hi in ((0, 0, zero - 1), (last, zero, last))]
    pairs, scales = (np.concatenate(parts) for parts in zip(*halves))
    # fund[t, i, j, k]: value (i = 0) or derivative (i = 1) of A_k (j = 0) or B_k (j = 1)
    fund = np.ldexp(pairs[:, :, :, 0], scales[:, None, :, 0])
    cc = np.outer(path.c, path.c)
    P = np.stack([cc, np.eye(n) - cc])[:M]
    init = np.stack([P @ Y0, P @ Yp0])
    out = np.einsum("tijk,jkab->tiab", fund, init)
    return MatrixJacobiSolution(
        path=path, times=path.times.copy(), Y=out[:, 0], Yp=out[:, 1], kind="ivp"
    )


class _Sweeps:
    """Two-point sweeps of m geodesics on a (k1, k2) table that grows on demand.

    ``table`` (J, m, M) holds the coefficients of the M = min(n, 2) modes on
    the fine nodes of a grid span whose coarse node ``zero`` is t = 0,
    ``ends`` the kernel states (x, u0, s) at its first and last node and
    ``e`` (m, n) the fiber directions.  A sweep whose endpoint lies past
    either end first grows the table there by resuming
    ``engine.integrate_states`` from that end's state without storing it;
    the grown table equals that of one longer run bit for bit.  ``window``
    holds the coarse offsets (lo, hi) of the output window from t = 0, and
    ``max_unit`` each sample's largest unit-speed defect, which a growth
    raises only for the samples that asked for it.
    """

    def __init__(self, spec, step, e, table, zero, ends, window, max_unit):
        self.spec, self.step, self.e = spec, step, e
        self.table, self.zero, self.ends = table, zero, ends
        self.window, self.max_unit = window, max_unit

    def _grow(self, side, steps, live):
        """Grow the table by ``steps`` coarse steps past its first (side 0) or last (side 1) node."""
        seg = engine.integrate_states(
            self.spec, self.ends[side], self.e,
            t0=0.0, t1=(steps if side else -steps) * self.step, step=self.step, store=False,
        )
        new = seg["curvatures"][1:, :, : self.table.shape[-1]]
        self.table = np.concatenate([self.table, new] if side else [new[::-1], self.table])
        self.zero += 0 if side else steps
        # a frozen sample's defect covers only the rungs it used
        self.max_unit[live] = np.maximum(self.max_unit[live], seg["max_unit_defect"][live])
        self.ends[side] = seg["final_state"]

    def solve(self, r: float, live: np.ndarray) -> tuple:
        """Modes (y, y') (nodes, len(live), M) of y(0) = 1, y(r) = 0 on the window, and the bracket bounds.

        The bound of each sample in ``live`` is that of :func:`_bracket_bound`.
        """
        offset = round(r / self.step)
        anchor = self.zero + offset
        if anchor < 0:
            self._grow(0, -anchor, live)
            anchor = 0
        if 2 * anchor >= len(self.table):
            self._grow(1, anchor - (len(self.table) - 1) // 2, live)
        lo, hi = (self.zero + k for k in self.window)
        first = min(lo, anchor)
        tab = self.table[2 * first : 2 * max(hi, anchor) + 1]
        # copy the table only when some samples are frozen
        tab = tab if len(live) == tab.shape[1] else tab[:, live]
        nodes = (k - first for k in (anchor, self.zero, lo, hi))
        try:
            y, yp, width = engine.boundary_solve(tab, self.step, *nodes)
        except np.linalg.LinAlgError as exc:  # a solution vanishes at t = 0
            r_snap = offset * self.step
            raise ConjugatePointDetected(f"two-point solve with endpoint r={r_snap} is singular") from exc
        return y, yp, _bracket_bound(width, self.step, -self.window[0])


def _bracket_bound(width: np.ndarray, step: float, zero: int) -> np.ndarray:
    """Per-sample error bound max over modes of max(sup_t width, int width dt) on a window.

    ``width`` (nodes, m, M) is the Dirichlet-Neumann bracket width
    |u_N - u_D| of :func:`engine.boundary_solve` on the coarse nodes of a
    window whose node ``zero`` is t = 0.  For k <= 0 the limit u lies in
    the bracket, so sup_t width bounds the error of u = y'/y, and since
    log y(t) = int_0^t u, the integral bounds |log y - log y_limit| on the
    window.  The trapezoidal integral is summed outward from t = 0, so a
    time-reversed window gives the same bits.
    """
    seg = 0.5 * step * (width[1:] + width[:-1])
    right = np.cumsum(seg[zero:], axis=0)[-1] if zero < len(seg) else 0.0
    left = np.cumsum(seg[zero - 1 :: -1], axis=0)[-1] if zero > 0 else 0.0
    return np.maximum(width.max(axis=0), left + right).max(axis=-1)


def _path_sweeps(path: GeodesicPath, lo_t: float, hi_t: float) -> tuple:
    """Sweeps at m = 1 onto the grid window [lo_t, hi_t], which must contain t = 0.

    Returns the driver, a path that covers the window and the window's
    times.  That path is ``path`` itself when it covers the window, and
    otherwise one run of :func:`~warpflow.geodesics.integrate_window` from
    ``path.theta0`` over both, without a drift check; it holds the nodes of
    ``path`` unchanged.
    """
    step = path.step
    lo, hi = round(lo_t / step), round(hi_t / step)
    if not lo <= 0 <= hi:
        raise DomainError("output window must contain t = 0")
    first, last = -(path.t0_index // 2), (len(path.times_fine) - 1 - path.t0_index) // 2
    wpath = path
    if lo < first or hi > last:
        wpath = integrate_window(
            path.spec, path.theta0, min(lo, first) * step, max(hi, last) * step, step, drift_tol=None
        )
    zero = wpath.coarse_index(0.0)
    ends = [wpath.slice_state_at(j) for j in (0, -1)]
    table = wpath.curvatures[:, None, : min(path.n, 2)]
    sweeps = _Sweeps(path.spec, step, wpath.e[None], table, zero, ends, (lo, hi), np.zeros(1))
    return sweeps, wpath, wpath.times[zero + lo : zero + hi + 1].copy()


def solve_boundary(path: GeodesicPath, r: float) -> MatrixJacobiSolution:
    """The two-point solution Y(0) = I, Y(r) = 0, sampled on the path grid.

    Past the path the coefficient table is grown (integration resumed from
    its ends) up to r, and the path is not; the growth is not drift-checked,
    and its largest unit-speed defect is ``meta["growth_unit_defect"]``.
    The endpoint condition holds exactly by construction.
    """
    r_snap = round(r / path.step) * path.step
    if r_snap == 0.0:
        raise DomainError(f"endpoint r = {r!r} must not round to 0 on the grid of step {path.step!r}")
    out_lo = path.t_lo if r > 0 else max(path.t_lo, r_snap)
    out_hi = min(path.t_hi, r_snap) if r > 0 else path.t_hi
    sweeps, wpath, times = _path_sweeps(path, min(out_lo, 0.0), max(out_hi, 0.0))
    y, yp, _ = sweeps.solve(r, np.arange(1))
    sol = _modal_solution(wpath, times, y[:, 0], yp[:, 0], "boundary", r=r_snap)
    sol.meta["growth_unit_defect"] = float(sweeps.max_unit[0])
    if times[0] - 1e-12 <= r_snap <= times[-1] + 1e-12:
        sol.meta["endpoint_norm"] = float(np.max(np.abs(sol.Y[sol.index_of(r_snap)])))
    else:
        # the sweep anchors the solution at Y(r) = 0, exact by construction
        sol.meta["endpoint_norm"] = 0.0
    return sol


def _ladder(solve, m: int, r0: float, step: float, max_doublings: int, tol: float):
    """Two-point solves at r0, 2 r0, 4 r0, ... (on the grid), per sample until its bracket certifies it.

    ``solve(r, live)`` returns the modes (y, y') for the samples ``live`` (an
    index array into the m samples), each with shape (nodes, len(live), M),
    and their bracket bounds (len(live),) (see :func:`_bracket_bound`).  A
    sample is frozen at the first rung whose bound is below ``tol`` and
    keeps that rung's (y, y') and bound, so its result does not depend on
    the other samples.  Later rungs run only for the samples still live,
    until none is, for at most ``max_doublings`` doublings.

    From the second rung on, a live sample with finite bounds b_prev and b
    at its last two rungs also stops, uncertified, when its decay cannot
    reach ``tol`` in the j doublings left: under uniform contraction the
    bracket width decays like e^{-2 mu (r - t)}, so at the rate the last
    doubling showed, rho = min(1, b / b_prev), each further doubling squares
    the factor, and the sample stops if b rho^(2^(j+1) - 2) >= tol.  It
    keeps this rung's (y, y') and bound, as if it had run out of doublings.
    A slower decay, such as the counterexample's 1/r, only makes later
    bounds larger.  If the decay speeds up past the observed rate, a sample
    that a later rung would certify is reported uncertified; the rule never
    certifies anything the bracket did not.

    Returns the kept (y, y'), the rungs run and one array of per-sample
    bounds per rung, in which a frozen sample repeats its final bound.
    """
    if max_doublings < 0:
        raise DomainError("max_doublings must be >= 0")
    r = round(r0 / step) * step
    live = np.arange(m)
    rungs, gaps = [], []
    y = yp = None
    for left in range(max_doublings, -1, -1):
        yr, ypr, bound = solve(r, live)
        rungs.append(r)
        if y is None:
            y, yp = yr, ypr
        else:
            y[:, live], yp[:, live] = yr, ypr
        gaps.append(gaps[-1].copy() if gaps else np.empty(m))
        gaps[-1][live] = bound
        done = bound < tol
        if len(gaps) > 1:
            prev = gaps[-2][live]
            with np.errstate(divide="ignore", invalid="ignore"):
                reach = bound * np.minimum(1.0, bound / prev) ** (np.ldexp(1.0, left + 1) - 2.0)
            done |= np.isfinite(prev) & np.isfinite(bound) & (reach >= tol)
        live = live[~done]
        if len(live) == 0:
            break
        r = round(2.0 * r / step) * step
    return (y, yp), rungs, gaps


def _green_limit(
    path: GeodesicPath,
    side: int,
    t_obs: float,
    tol: float,
    r0: float,
    max_doublings: int,
    window: tuple,
) -> MatrixJacobiSolution:
    """The r-ladder on ``window`` for the endpoint r -> side * inf; raises :class:`GreenNotConverged`."""
    w_lo, w_hi = window
    r_start = side * max(r0, abs(w_hi) + 4.0, abs(w_lo) + 4.0, t_obs + 4.0)
    sweeps, wpath, times = _path_sweeps(path, w_lo, w_hi)
    (y, yp), rungs, gaps = _ladder(sweeps.solve, 1, r_start, path.step, max_doublings, tol)
    gaps = [float(g[0]) for g in gaps]
    name, U0 = ("stable", "Us0") if side > 0 else ("unstable", "Uu0")
    meta = {"r_ladder": rungs, "gaps": gaps, "final_gap": gaps[-1],
            "growth_unit_defect": float(sweeps.max_unit[0])}
    sol = _modal_solution(wpath, times, y[:, 0], yp[:, 0], f"green_{name}", meta=meta)
    sol.meta[U0] = sol.Yp[sol.index_of(0.0)].copy()
    if not gaps[-1] < tol:
        raise GreenNotConverged(
            f"{name} bracket bound {meta['final_gap']} above tolerance {tol}", last_solution=sol, gaps=gaps
        )
    return sol


def green_stable(
    path: GeodesicPath,
    t_obs: float = 20.0,
    tol: float = 1e-8,
    *,
    r0: float = 8.0,
    max_doublings: int = 12,
    window: Optional[tuple] = None,
) -> MatrixJacobiSolution:
    """Limit of two-point solutions Y(0)=I, Y(r)=0 as r doubles upward.

    Each rung's Dirichlet-Neumann bracket bounds its distance from the limit
    on ``window`` (default [0, t_obs]), see :func:`_ladder`; the first
    iterate whose bound is below ``tol`` is returned, and ``meta["gaps"]``
    holds the bound of every rung.  The bound certifies the limit where the
    curvature is non-positive (condition (A)).  ``r0`` is raised
    automatically so every rung lies beyond the observation window.  The
    ladder runs at most ``max_doublings`` doublings, and stops sooner when
    the bounds' decay cannot reach ``tol`` in the doublings left (see
    :func:`_ladder`; a decay that speeds up later is the one case this
    misses).  On failure to certify, :class:`GreenNotConverged` carries the
    last iterate and the bounds.
    A window that leaves the path is integrated from the path's start datum
    without a drift check, and the solution's path ends at the window: past
    it only the coefficient table grows, also unchecked; the growth's
    largest unit-speed defect is ``meta["growth_unit_defect"]``.
    """
    return _green_limit(path, +1, t_obs, tol, r0, max_doublings, window or (0.0, t_obs))


def green_unstable(
    path: GeodesicPath,
    t_obs: float = 20.0,
    tol: float = 1e-8,
    *,
    r0: float = 8.0,
    max_doublings: int = 12,
) -> MatrixJacobiSolution:
    """Limit of two-point solutions with vanishing end r -> -inf, on [0, t_obs].

    The two-point solves anchor at negative r; otherwise as :func:`green_stable`,
    including the ladder's early stop of a bracket that cannot reach ``tol``.
    """
    return _green_limit(path, -1, t_obs, tol, r0, max_doublings, (0.0, t_obs))


# ---------------------------------------------------------------------------
# Riccati data and flow-derivative norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiccatiSeries:
    """Log-derivative data z(t) = d/dt log |J(t)|^2 along a Jacobi field."""

    times: np.ndarray
    z: np.ndarray
    kappa: np.ndarray
    norms: np.ndarray
    residual: np.ndarray

    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residual)))

    def average_identity_defect(self) -> float:
        """Max defect of (1/t) int z ds = (2/t) log(|J(t)|/|J(0)|) on the grid."""
        t = self.times
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (self.z[1:] + self.z[:-1]) * np.diff(t))])
        lhs = cum[1:] / t[1:]
        rhs = 2.0 * np.log(self.norms[1:] / self.norms[0]) / t[1:]
        return float(np.max(np.abs(lhs - rhs)))


def riccati_along(solution: MatrixJacobiSolution, w, t_max: Optional[float] = None) -> RiccatiSeries:
    """Riccati function and residual along the field J(t) = Y(t) w.

    The residual is of z' + z^2 - 2 |J'|^2/|J|^2 + 2 K(gamma', J) = 0 with
    z' by central differences.  The curvature kappa = K(gamma', J) of the
    plane spanned by gamma' and J = sum_i J_i V_i is read from the path's
    (k1, k2) table: J = p E1 + (0, W) with p = c.J and |W| = q = |J - p c|,
    and E1 and (0, W) span planes with gamma' of curvatures k1/|v|^4 and
    k2/|v|^2 (``engine``), so

        kappa = (k1 p^2 + k2 q^2) / (|v|^2 (|v|^2 p^2 + q^2)),   |v|^2 = u0^2 + s^2,

    without a warp evaluation.  Raises :class:`VanishingJacobiField` if |J|
    drops below 1e-12 on the window.
    """
    path = solution.path
    w = np.asarray(w, dtype=float)
    hi = len(solution.times) if t_max is None else solution.index_of(
        round(t_max / path.step) * path.step
    ) + 1
    times = solution.times[:hi]
    J = np.einsum("cij,j->ci", solution.Y[:hi], w)
    Jp = np.einsum("cij,j->ci", solution.Yp[:hi], w)
    norms = np.sqrt(np.einsum("ci,ci->c", J, J))
    if np.any(norms < 1e-12):
        raise VanishingJacobiField("Jacobi field norm below 1e-12 on the requested window")
    z = 2.0 * np.einsum("ci,ci->c", J, Jp) / (norms * norms)

    fines = path.fine_indices(times)
    k1, k2 = path.curvatures[fines].T
    speed2 = path.u0[fines] ** 2 + path.s[fines] ** 2
    p = J @ path.c
    rest = J - p[:, None] * path.c
    p2, q2 = p * p, np.einsum("ci,ci->c", rest, rest)
    kappa = (k1 * p2 + k2 * q2) / (speed2 * (speed2 * p2 + q2))

    h = path.step
    zp = np.empty_like(z)
    if len(z) >= 5:
        zp[2:-2] = (-z[4:] + 8.0 * z[3:-1] - 8.0 * z[1:-3] + z[:-4]) / (12.0 * h)
    if len(z) >= 3:
        zp[1] = (z[2] - z[0]) / (2.0 * h)
        zp[-2] = (z[-1] - z[-3]) / (2.0 * h)
    zp[0] = (z[1] - z[0]) / h
    zp[-1] = (z[-1] - z[-2]) / h
    residual = zp + z * z - 2.0 * np.einsum("ci,ci->c", Jp, Jp) / (norms * norms) + 2.0 * kappa
    # boundary stencils are low order; the residual claim is for the interior
    residual[:2] = residual[-2:] = 0.0
    return RiccatiSeries(times=times, z=z, kappa=kappa, norms=norms, residual=residual)


def _flow_norms(y: np.ndarray, yp: np.ndarray, zero: int) -> np.ndarray:
    """Flow-derivative norms max_k |(y_k, y_k')| / |(y_k, y_k')| at node ``zero``, per node.

    The largest singular value of [Y; Y'] pinv([Y; Y'] at ``zero``) for
    Y = sum_k y_k P_k: the stacked matrix is block diagonal over the modes,
    each block of rank one.  y and yp have shape (nodes, ..., M).
    """
    size = np.hypot(y, yp)
    return (size / size[zero]).max(axis=-1)


def dphi_norm_series(solution: MatrixJacobiSolution) -> np.ndarray:
    """Sasaki operator norm of the flow derivative on the span of a two-point or limit solution, per node.

    Largest singular value of [Y(t); Y'(t)] times the pseudo-inverse of the
    initial stacked matrix, so the value at the normalization time is 1.
    """
    if solution.modes is None:
        raise DomainError("flow-derivative norms need a two-point or limit solution")
    zero = solution.index_of(0.0) if solution.times[0] <= 0.0 <= solution.times[-1] else 0
    return _flow_norms(*solution.modes, zero)


def dphi_norm(solution: MatrixJacobiSolution, t: float) -> float:
    """Sasaki operator norm of the flow derivative at time t (1 at t = 0)."""
    return float(dphi_norm_series(solution)[solution.index_of(t)])


def sasaki_orthonormal_directions(Us0: np.ndarray) -> np.ndarray:
    """Directions w_i whose initial data (w_i, U w_i) are Sasaki-orthonormal.

    Columns of the inverse symmetric square root of I + U^T U.
    """
    U = np.asarray(Us0, dtype=float)
    gram = np.eye(U.shape[0]) + U.T @ U
    vals, vecs = np.linalg.eigh(gram)
    return vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
