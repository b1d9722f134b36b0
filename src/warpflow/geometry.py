"""Metric, Christoffel symbols and curvature of P = R x_f T^n.

Coordinates are (x, y_1, ..., y_n) with metric dx^2 + f(x)^2 sum_i dy_i^2.
The base factor is flat and one-dimensional and the torus is flat, so the
curvature tensor collapses to a short closed form in f'/f and f''/f.

Curvature convention.  We use the contraction for which the sectional
curvature of a plane spanned by (u, w) is

    K(u, w) = <R(u, w) u, w> / (|u|^2 |w|^2 - <u, w>^2),

so the matrix K_ij = <R(gamma', V_i) gamma', V_j> built from a perpendicular
parallel frame has the sectional curvatures on its diagonal and drives the
perpendicular Jacobi equation Y'' + K Y = 0 (constant curvature -1 gives
K = -I and hyperbolic growth/decay e^{+-t}).

Most internal computations happen in the orthonormal basis
(d_x, f^{-1} d_{y_1}, ..., f^{-1} d_{y_n}), where the metric is Euclidean and
every curvature coefficient is O(1) no matter how large f gets.  Tangent
vectors in that basis are written as a pair (a0, a) with a0 the x-component
and a in R^n the fiber components.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlane, DomainError
from .warp import WarpSpec


@dataclass(frozen=True)
class TangentVector:
    """Coordinate components of a tangent vector at base point (x, y)."""

    x: float
    y: np.ndarray
    dx: float
    dy: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))
        object.__setattr__(self, "dy", np.atleast_1d(np.asarray(self.dy, dtype=float)))
        vals = [self.x, self.dx, *self.y.tolist(), *self.dy.tolist()]
        if not np.all(np.isfinite(vals)):
            raise DomainError("non-finite tangent vector components")

    @property
    def base(self) -> tuple:
        return (self.x, self.y)


@dataclass(frozen=True)
class ChristoffelTable:
    """Nonzero Christoffel symbols at a point.

    ``gamma_x_yy`` is the coefficient of d_x in nabla_{d_yi} d_yi (equal to
    -f' f, the same for every fiber direction), ``gamma_y_xy`` the coefficient
    of d_yi in nabla_{d_x} d_yi (equal to f'/f).  All other symbols vanish.
    """

    gamma_x_yy: float
    gamma_y_xy: float


@dataclass(frozen=True)
class CurvatureMatrix:
    """Symmetric matrix of curvature contractions against a parallel frame."""

    entries: np.ndarray
    t: float

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DomainError("curvature matrix must be square")

    def symmetry_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.T)))

    def min_eigenvalue(self) -> float:
        return float(np.min(np.linalg.eigvalsh(0.5 * (self.entries + self.entries.T))))


# ---------------------------------------------------------------------------
# coordinate-level operations
# ---------------------------------------------------------------------------


def _check_based(p, *vectors):
    x0, y0 = p
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    for v in vectors:
        if abs(v.x - x0) > 1e-12 or v.y.shape != y0.shape or np.max(np.abs(v.y - y0)) > 1e-12:
            raise DomainError("vectors are not based at the given point")
    return float(x0)


def metric_dot(spec: WarpSpec, p, u: TangentVector, w: TangentVector) -> float:
    """Warped-metric inner product u . w at the base point p = (x, y)."""
    x0 = _check_based(p, u, w)
    f = float(spec.f(x0))
    return float(u.dx * w.dx + f * f * np.dot(u.dy, w.dy))


def christoffel(spec: WarpSpec, x: float) -> ChristoffelTable:
    """Nonzero Christoffel symbols of the warped metric at x."""
    f, fp, _ = spec.f_derivatives(np.asarray(x, dtype=float))
    return ChristoffelTable(gamma_x_yy=float(-fp * f), gamma_y_xy=float(fp / f))


def _to_frame(spec: WarpSpec, v: TangentVector) -> tuple:
    """Coordinate components -> orthonormal-basis components (a0, a)."""
    g = spec.log_derivatives(np.asarray(v.x, float))[0]
    return float(v.dx), np.exp(float(g)) * v.dy


def frame_curvature_action(h, gp2, a0, a, b0, b, c0, c):
    """R(A,B)C in the orthonormal basis, returned as (out0, out_fiber)."""
    bc = np.sum(b * c, axis=-1)
    ac = np.sum(a * c, axis=-1)
    out0 = h * (a0 * bc - b0 * ac)
    outv = (
        (h * b0 * c0 + gp2 * bc)[..., None] * a
        - (h * a0 * c0 + gp2 * ac)[..., None] * b
    )
    return out0, outv


def curvature_tensor(spec: WarpSpec, p, A: TangentVector, B: TangentVector, C: TangentVector) -> TangentVector:
    """Curvature tensor R(A, B)C of the warped metric, assembled by multilinearity."""
    x0 = _check_based(p, A, B, C)
    g, gp, gpp = (float(v) for v in spec.log_derivatives(np.asarray(x0, float)))
    h = gpp + gp * gp
    a0, a = _to_frame(spec, A)
    b0, b = _to_frame(spec, B)
    c0, c = _to_frame(spec, C)
    out0, outv = frame_curvature_action(h, gp * gp, a0, a, b0, b, c0, c)
    return TangentVector(x=x0, y=A.y, dx=float(out0), dy=np.exp(-g) * outv)


def sectional_curvature(spec: WarpSpec, p, u: TangentVector, w: TangentVector) -> float:
    """Sectional curvature of the plane spanned by u and w at p.

    The curvature operator is diagonal on the bivectors d_x ^ e_i (eigenvalue
    -h) and e_i ^ e_j (eigenvalue -g'^2), so with the wedge minors
    m_i = u0 w_i - w0 u_i and M_ij = u_i w_j - u_j w_i

        K = -(h sum m_i^2 + g'^2 sum M_ij^2) / (sum m_i^2 + sum M_ij^2),

    a convex combination of -h and -g'^2 also for nearly parallel u and w.
    """
    x0 = _check_based(p, u, w)
    g, gp, gpp = (float(v) for v in spec.log_derivatives(np.asarray(x0, float)))
    h = gpp + gp * gp
    u0, uf = _to_frame(spec, u)
    w0, wf = _to_frame(spec, w)
    nu = np.sqrt(u0 * u0 + np.dot(uf, uf))
    nw = np.sqrt(w0 * w0 + np.dot(wf, wf))
    if nu < 1e-300 or nw < 1e-300:
        raise DegeneratePlane("zero spanning vector")
    u0, uf = u0 / nu, uf / nu
    w0, wf = w0 / nw, wf / nw
    mixed = np.sum((u0 * wf - w0 * uf) ** 2)
    fiber = 0.5 * np.sum((uf[:, None] * wf[None, :] - uf[None, :] * wf[:, None]) ** 2)
    gram = mixed + fiber  # |u ^ w|^2 = 1 - <u, w>^2
    if gram <= 1e-12:
        raise DegeneratePlane("spanning vectors are (numerically) parallel")
    return float(-(h * mixed + gp * gp * fiber) / gram)


def curvature_matrix_along(path, t: float) -> CurvatureMatrix:
    """Curvature matrix of a geodesic path at grid time t.

    Values off the grid are linearly interpolated when within one step of a
    node; farther queries are an error.
    """
    times = path.times_fine
    j = int(np.clip(np.searchsorted(times, t), 1, len(times) - 1))
    j0 = j - 1 if abs(times[j - 1] - t) <= abs(times[j] - t) else j
    if abs(times[j0] - t) <= 1e-9 * max(1.0, abs(t)):
        return CurvatureMatrix(entries=path.curvature_matrices(j0), t=float(times[j0]))
    if abs(times[j0] - t) >= path.step:
        raise DomainError(f"time {t} is more than one step away from the grid")
    lo = j - 1
    w = (t - times[lo]) / (times[j] - times[lo])
    K_lo, K_hi = path.curvature_matrices([lo, j])
    return CurvatureMatrix(entries=(1.0 - w) * K_lo + w * K_hi, t=float(t))
