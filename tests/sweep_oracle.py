"""Reference two-point solve: the matrix Jacobi sweep with QR renormalization.

The n x n system Y'' + K Y = 0 is marched as the (2n x n) frame [Y; Y'] from
the vanishing end, QR-renormalized whenever its entries exceed a threshold,
and the accumulated right factors are restored when the output is normalized
to Y = I.  It reads full curvature matrices, so it checks the scalar sweeps of
``engine.boundary_solve`` without relying on the split K = k2 I + (k1 - k2) c c^T.
"""
from __future__ import annotations

import numpy as np

from warpflow.engine import _jacobi_step

_THRESHOLD = 1e6


def matrix_boundary_solve(K_fine, step, anchor_c, zero_c, out_lo, out_hi):
    """Two-point solution Y(zero) = I, Y(anchor) = 0 on coarse nodes [out_lo, out_hi].

    ``K_fine`` has shape (J, m, n, n); returns (Y, Yp) of shape (nodes, m, n, n).
    """
    J, m, n, _ = K_fine.shape
    direction = -1 if anchor_c > zero_c else 1
    target = out_lo if direction < 0 else out_hi
    width = out_hi - out_lo + 1

    F = np.zeros((m, 2 * n, n))
    F[:, n:, :] = -np.eye(n)
    frames = np.empty((width, m, 2 * n, n))
    events = {}
    h = direction * step
    c = anchor_c
    if out_lo <= c <= out_hi:
        frames[c - out_lo] = F
    while c != target:
        j0 = 2 * c
        F = _jacobi_step((K_fine[j0], K_fine[j0 + direction], K_fine[j0 + 2 * direction]), F, h, n)
        c += direction
        crossed = np.abs(F).max(axis=(1, 2)) > _THRESHOLD
        if crossed.any():
            F[crossed], r = np.linalg.qr(F[crossed])
            events[c] = (crossed, r)
        if out_lo <= c <= out_hi:
            frames[c - out_lo] = F

    # right factors relating each stored frame to the one at zero_c
    def restore(cur, key, undo):
        if key in events:
            crossed, r = events[key]
            if undo:
                cur[crossed] = np.linalg.solve(r, cur[crossed])
            else:
                cur[crossed] = np.einsum("mij,mjk->mik", r, cur[crossed])
        return cur

    eye = np.broadcast_to(np.eye(n), (m, n, n)).copy()
    H = np.empty((width, m, n, n))
    H[zero_c - out_lo] = eye
    cur = eye.copy()
    for node in range(zero_c + 1, out_hi + 1):
        H[node - out_lo] = restore(cur, node - 1 if direction < 0 else node, direction < 0)
    cur = eye.copy()
    for node in range(zero_c - 1, out_lo - 1, -1):
        H[node - out_lo] = restore(cur, node if direction < 0 else node + 1, direction > 0)

    full = np.einsum("wmiq,wmqr->wmir", frames, H)
    full = np.einsum("wmiq,mqr->wmir", full, np.linalg.inv(full[zero_c - out_lo][:, :n, :]))
    return full[:, :, :n, :], full[:, :, n:, :]
