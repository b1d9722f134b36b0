"""Reference reductions of matrix Jacobi data: flow-derivative norms by pinv/SVD, plane curvature by einsum.

They read full n x n solutions Y, Y' and curvature matrices K, so they check
the scalar reductions of ``jacobi`` and ``criterion``, which work on the modes
of Y = y1 c c^T + y2 (I - c c^T), without relying on that split.
"""
from __future__ import annotations

import numpy as np


def matrix_flow_norms(Y, Yp, zero):
    """Largest singular value of [Y; Y'] pinv([Y; Y'] at node ``zero``), per node and sample.

    Y and Yp have shape (nodes, m, n, q); the result has shape (nodes, m).
    """
    M = np.concatenate([Y, Yp], axis=2)
    pinv0 = np.linalg.pinv(M[zero])
    prod = np.einsum("wmiq,mqr->wmir", M, pinv0)
    return np.linalg.svd(prod, compute_uv=False)[:, :, 0]


def matrix_curvature_averages(Y, K_coarse, W, times):
    """Running averages of the plane curvature K(gamma', J) along J = Y w, per sample and direction.

    Y and K_coarse have shape (nodes, m, n, n) on ``times`` and the columns
    of W (m, n, d) are the directions w.  J is normalized by its max
    component before the quadratic forms.  Returns the trapezoidal averages
    (nodes - 1, m, d) at times[1:], the norms |J| (nodes, m, d) and a
    per-sample flag for fields that vanish on the grid.
    """
    J = np.einsum("wmij,mjd->wmid", Y, W)
    scale = np.max(np.abs(J), axis=2)
    degenerate = np.any(scale == 0.0, axis=(0, 2))
    safe = np.where(scale == 0.0, 1.0, scale)
    Jh = J / safe[:, :, None, :]
    den = np.einsum("wmid,wmid->wmd", Jh, Jh)
    kappa = np.einsum("wmid,wmik,wmkd->wmd", Jh, K_coarse, Jh) / den
    dt = np.diff(times)
    cum = np.concatenate(
        [np.zeros((1,) + kappa.shape[1:]), np.cumsum(0.5 * (kappa[1:] + kappa[:-1]) * dt[:, None, None], axis=0)]
    )
    averages = cum[1:] / (times[1:] - times[0])[:, None, None]
    return averages, safe * np.sqrt(den), degenerate
