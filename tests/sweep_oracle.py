"""Reference Jacobi solves: the matrix RK4 march and sweep with QR renormalization.

The n x n system Y'' + K Y = 0 is marched as the (2n x q) frame [Y; Y'].  The
sweep starts at the vanishing end, is QR-renormalized whenever its entries
exceed a threshold, and the accumulated right factors are restored when the
output is normalized to Y = I.  Both read full curvature matrices, so they
check the scalar modes of ``engine`` and ``jacobi`` without relying on the
split K = k2 I + (k1 - k2) c c^T.
"""
from __future__ import annotations

import numpy as np

from warpflow.engine import _rk4_step

_THRESHOLD = 1e6


def _jacobi_step(Ks, F, h, n):
    """One RK4 step of (Y, Y')' = (Y', -K Y); Ks holds K at the start, midpoint and end."""

    def rhs(stage, G):
        return np.concatenate([G[:, n:], -np.einsum("mij,mjq->miq", Ks[stage], G[:, :n])], axis=1)

    return _rk4_step(rhs, F, h)


def matrix_ivp_march(K_fine, step, Y0, Yp0):
    """March the first-order system (Y, Y') along the whole fine grid.

    ``K_fine`` has shape (J, m, n, n); returns (Y, Yp) with shape (C+1, m, n, q)
    on the coarse grid.
    """
    J, m, n, _ = K_fine.shape
    C = (J - 1) // 2
    F = np.concatenate([np.asarray(Y0, float), np.asarray(Yp0, float)], axis=1)
    out = np.empty((C + 1, m, 2 * n, F.shape[-1]))
    out[0] = F
    for c in range(C):
        F = _jacobi_step((K_fine[2 * c], K_fine[2 * c + 1], K_fine[2 * c + 2]), F, step, n)
        out[c + 1] = F
    return out[:, :, :n, :], out[:, :, n:, :]


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
