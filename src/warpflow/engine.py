"""Batched fixed-step integration kernels.

Everything here works on arrays with a leading sample axis m, so one call
integrates a whole bundle of geodesics (plus their parallel frames and
curvature matrices) in lockstep.  Public wrappers in ``geodesics`` and
``jacobi`` use m = 1.

Grids.  A run with requested step h is integrated at the half step h/2 and
every half-step node is stored ("fine grid", index j, J = 2*C + 1 nodes).
Coarse node c sits at fine index 2c.  Jacobi solves then march at step h and
read curvature matrices at fine nodes for their midpoint stages.

State is kept in the orthonormal basis (d_x, f^{-1} d_{y_i}): the velocity is
(u0, u) with u0 = x' and u_i = f y_i', the frame fields are rows (alpha_i,
beta_i).  In this basis all dynamical quantities stay O(1) even while f(x)
sweeps hundreds of orders of magnitude; the conserved fiber momenta
p_i = f^2 y_i' = f u_i are evaluated through logs.
"""
from __future__ import annotations

import numpy as np

from .errors import IntegratorDrift
from .geometry import curvature_matrix_frame
from .warp import WarpSpec

_RENORM_THRESHOLD = 1e6
# frame orthonormality defect above which the frame is re-orthonormalized
_RENORM_TOL = 1e-9
# below this, fiber-velocity components sit in (or neighbor) the subnormal
# range where their relative precision is gone; momentum diagnostics stop
_MOMENTUM_FLOOR = 1e-300
# order of the state the geodesic kernel steps, and of the series it stores
_STATE_KEYS = ("x", "y", "u0", "u", "alpha", "beta")
# nodes per block of an unstored run (see integrate_states)
_BLOCK_NODES = 256


def complete_orthonormal_frame(velocity: np.ndarray) -> np.ndarray:
    """Complete unit rows (m, d) to orthonormal frames (m, d-1, d) normal to them."""
    v = np.asarray(velocity, dtype=float)
    m, d = v.shape
    out = np.empty((m, d - 1, d))
    eye = np.eye(d)
    for s in range(m):
        basis = np.concatenate([v[s][:, None], eye], axis=1)
        q = np.linalg.qr(basis, mode="reduced")[0]
        out[s] = q[:, 1:].T
    return out


def _log_momenta(g, u):
    """Fiber momenta p_i = f u_i evaluated as sign(u_i) exp(g + log|u_i|)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logs = g[..., None] + np.log(np.abs(u))
        p = np.sign(u) * np.exp(logs)
    return np.where(np.abs(u) < _MOMENTUM_FLOOR, 0.0, p)


def _momentum_defect(p, u, p_init, p_scale):
    """Relative momentum defect per node, and where the fiber speed left the representable range.

    A node is dead when a fiber-velocity component with nonzero initial
    momentum sits below ``_MOMENTUM_FLOOR``; callers mask the defect from the
    first dead node on.
    """
    dead = ((np.abs(u) < _MOMENTUM_FLOOR) & (p_init != 0.0)).any(axis=-1)
    return np.abs(p - p_init).max(axis=-1) / p_scale, dead


def _geodesic_rhs(spec, x, y, u0, u, alpha, beta, derivs=None):
    """Derivatives of the state (x, y, u0, u, alpha, beta); None parts stay None.

    ``derivs`` is ``spec.log_derivatives(x)`` when the caller already has it.
    """
    g, gp, _ = spec.log_derivatives(x) if derivs is None else derivs
    s2 = (u * u).sum(axis=-1)
    dx = u0
    du0 = gp * s2
    du = -(gp * u0)[:, None] * u
    dy = None
    if y is not None:
        with np.errstate(over="ignore"):
            scale = np.exp(-g)
        dy = np.where(u == 0.0, 0.0, scale[:, None] * u)
    dal = dbe = None
    if alpha is not None:
        dal = gp[:, None] * np.einsum("mik,mk->mi", beta, u)
        dbe = -gp[:, None, None] * alpha[:, :, None] * u[:, None, :]
    return dx, dy, du0, du, dal, dbe


def _rk4_step(rhs, y, h, k1=None):
    """One classic RK4 step of y' = rhs(stage, y) over a step h.

    ``stage`` counts half steps into the step (0, 1, 1, 2), for right-hand
    sides that read coefficients tabulated on a half-step grid.  ``k1`` is
    ``rhs(0, y)`` when the caller already has it.
    """
    if k1 is None:
        k1 = rhs(0, y)
    k2 = rhs(1, y + 0.5 * h * k1)
    k3 = rhs(1, y + 0.5 * h * k2)
    k4 = rhs(2, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _pack(parts) -> np.ndarray:
    """The carried parts of a geodesic state (None: not carried), flattened end to end."""
    return np.concatenate([p.ravel() for p in parts if p is not None])


def _unpack(S: np.ndarray, layout) -> list:
    """Inverse of :func:`_pack` for a ``layout`` of (slice, shape) or None per part.

    Each part is a C-contiguous view, laid out in memory as it would be as a
    separate array, so ufuncs on it give the same bits.
    """
    return [None if lay is None else S[lay[0]].reshape(lay[1]) for lay in layout]


def _frame_defect(u0, u, alpha, beta):
    """Max deviation of [velocity; fields] from an orthonormal set, per sample."""
    m, nf = alpha.shape
    vecs = np.empty((m, nf + 1, 1 + u.shape[1]))
    vecs[:, 0, 0] = u0
    vecs[:, 0, 1:] = u
    vecs[:, 1:, 0] = alpha
    vecs[:, 1:, 1:] = beta
    gram = np.einsum("mid,mjd->mij", vecs, vecs)
    gram -= np.eye(nf + 1)
    return np.abs(gram).max(axis=(1, 2))


def _renormalize_frame(u0, u, alpha, beta):
    """Modified Gram-Schmidt of the fields against the velocity, via QR."""
    m, nf = alpha.shape
    d = 1 + u.shape[1]
    cols = np.empty((m, d, nf + 1))
    vnorm = np.sqrt(u0 * u0 + np.sum(u * u, axis=-1))
    cols[:, 0, 0] = u0 / vnorm
    cols[:, 1:, 0] = u / vnorm[:, None]
    cols[:, 0, 1:] = alpha
    cols[:, 1:, 1:] = beta.transpose(0, 2, 1)
    q, r = np.linalg.qr(cols)
    sign = np.sign(np.einsum("mii->mi", r))
    sign = np.where(sign == 0.0, 1.0, sign)
    q = q * sign[:, None, :]
    return q[:, 0, 1:].copy(), q[:, 1:, 1:].transpose(0, 2, 1).copy()


def integrate_states(
    spec: WarpSpec,
    x0,
    y0,
    u00,
    u0vec,
    *,
    t0: float,
    t1: float,
    step: float,
    with_frame: bool = True,
    frame0=None,
    store: bool = True,
    drift_tol=None,
):
    """Integrate geodesics (and optionally frames) from t0 to t1.

    Returns a dict of fine-grid arrays in integration order; times are
    monotone from t0 to t1 (possibly decreasing).  K is tabulated whenever
    the frame is carried.  With ``store`` the dict also holds every state
    series (x, y, u0, u, alpha, beta), the momenta and the unit-speed
    defect; without it y is not integrated and only the maximum defects and
    the final state are kept.  A sample's frame is re-orthonormalized when
    its own orthonormality defect exceeds ``_RENORM_TOL``, so every sample
    gets the bits it would get alone; ``renorm_events`` counts the steps at
    which at least one sample was renormalized.  Raises
    :class:`IntegratorDrift` when a conservation defect exceeds ``drift_tol``.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    x = np.array(np.atleast_1d(x0), dtype=float)
    m = x.shape[0]
    n = spec.n
    y = np.array(np.atleast_2d(y0), dtype=float).reshape(m, n) if store else None
    u0s = np.array(np.atleast_1d(u00), dtype=float)
    u = np.array(np.atleast_2d(u0vec), dtype=float).reshape(m, n)

    span = t1 - t0
    n_coarse = max(int(round(abs(span) / step)), 0)
    if abs(abs(span) - n_coarse * step) > 1e-9 * max(1.0, abs(span)):
        raise ValueError("t1 - t0 must be an integer multiple of step")
    direction = 1.0 if span >= 0 else -1.0
    hf = direction * step / 2.0
    J = 2 * n_coarse + 1

    alpha = beta = None
    if with_frame:
        if frame0 is not None:
            alpha = np.array(frame0[0], dtype=float).reshape(m, n)
            beta = np.array(frame0[1], dtype=float).reshape(m, n, n)
        else:
            vel = np.concatenate([u0s[:, None], u], axis=1)
            frame = complete_orthonormal_frame(vel)
            alpha = frame[:, :, 0].copy()
            beta = frame[:, :, 1:].copy()

    out = {"times_fine": t0 + hf * np.arange(J), "m": m}
    if with_frame:
        out["K"] = np.empty((J, m, n, n))
    state = [x, y, u0s, u, alpha, beta]
    # The loop tabulates each node's state and log-derivatives; curvature
    # matrices and conservation defects are then evaluated a block of nodes
    # at a time.  A stored run is one block, so its table is the output.
    block = J if store else min(J, _BLOCK_NODES)
    table = {key: np.empty((block,) + part.shape) for key, part in zip(_STATE_KEYS, state)
             if part is not None}
    if store:
        out.update(table)
        out["momenta"] = np.empty((J, m, n))
        out["unit_defect"] = np.empty((J, m))
    table.update({key: np.empty((block, m)) for key in ("g", "gp", "gpp")})

    g0 = spec.log_derivatives(x)[0]
    p_init = _log_momenta(g0, u)
    # conservation is judged relative to the (coordinate-dependent) size of
    # the initial momenta; for O(1) momenta this matches the absolute defect
    p_scale = np.maximum(1.0, np.max(np.abs(p_init), axis=-1))
    max_unit = np.zeros(m)
    max_mom = np.zeros(m)
    alive = np.ones((m,), dtype=bool)
    renorm_events = 0

    def flush(j0, count):
        """K and the defects of the ``count`` tabulated nodes from node j0 on."""
        nonlocal max_unit, max_mom, alive
        tab = {key: value[:count] for key, value in table.items()}
        nodes = slice(j0, j0 + count)
        u0s, u, gp = tab["u0"], tab["u"], tab["gp"]
        if with_frame:
            gp2 = gp * gp
            out["K"][nodes] = curvature_matrix_frame(
                tab["gpp"] + gp2, gp2, u0s, u, tab["alpha"], tab["beta"]
            )
        unit = np.abs(u0s * u0s + (u * u).sum(axis=-1) - 1.0)
        p = _log_momenta(tab["g"], u)
        defect, dead = _momentum_defect(p, u, p_init, p_scale)
        alive_nodes = alive & np.logical_and.accumulate(~dead, axis=0)
        max_unit = np.maximum(max_unit, unit.max(axis=0))
        max_mom = np.maximum(max_mom, np.where(alive_nodes, defect, 0.0).max(axis=0))
        alive = alive_nodes[-1]
        if store:
            out["momenta"][nodes] = p
            out["unit_defect"][nodes] = unit

    def record(j, state):
        """Tabulate node j; returns spec.log_derivatives at its x."""
        i = j % block
        derivs = spec.log_derivatives(state[0])
        for key, value in zip(_STATE_KEYS + ("g", "gp", "gpp"), (*state, *derivs)):
            if value is not None:
                table[key][i] = value
        if i == block - 1 or j == J - 1:
            flush(j - i, i + 1)
        return derivs

    layout, start = [], 0
    for part in state:
        if part is None:
            layout.append(None)
        else:
            layout.append((slice(start, start + part.size), part.shape))
            start += part.size

    def rhs(_stage, S):
        return _pack(_geodesic_rhs(spec, *_unpack(S, layout)))

    S = _pack(state)
    derivs = record(0, state)
    for j in range(J - 1):
        k1 = _pack(_geodesic_rhs(spec, *state, derivs=derivs))
        S = _rk4_step(rhs, S, hf, k1)
        state = _unpack(S, layout)
        if with_frame and (j + 1) % 2 == 0:
            x, y, u0s, u, alpha, beta = state
            fire = _frame_defect(u0s, u, alpha, beta) > _RENORM_TOL
            if fire.any():
                # alpha and beta are views of S: the renormalized rows land in S
                alpha[fire], beta[fire] = _renormalize_frame(u0s[fire], u[fire], alpha[fire], beta[fire])
                renorm_events += 1
        derivs = record(j + 1, state)

    out["max_unit_defect"] = max_unit
    out["max_momentum_defect"] = max_mom
    out["renorm_events"] = renorm_events
    out["final_state"] = dict(zip(_STATE_KEYS, state))
    if drift_tol is not None:
        worst_unit = float(np.max(max_unit))
        worst_mom = float(np.max(max_mom))
        if worst_unit > drift_tol or worst_mom > drift_tol:
            raise IntegratorDrift(
                f"conserved-quantity drift beyond {drift_tol:g}: "
                f"unit-speed defect {worst_unit:.3e}, momentum defect {worst_mom:.3e}",
                max_unit_defect=worst_unit,
                max_momentum_defect=worst_mom,
            )
    return out


def conservation_scan(spec: WarpSpec, x0, y0, u00, u0vec, *, t_end: float, step: float):
    """Streaming integration tracking only the conservation defects.

    Returns (max_unit_defect, max_momentum_defect) arrays over the sample
    axis, measured on the fine grid over [0, t_end].
    """
    t_end = np.sign(t_end) * round(abs(t_end) / step) * step  # snap to the grid
    run = integrate_states(
        spec, x0, y0, u00, u0vec, t0=0.0, t1=float(t_end), step=step, with_frame=False, store=False
    )
    return run["max_unit_defect"], run["max_momentum_defect"]


# ---------------------------------------------------------------------------
# matrix Jacobi marching
# ---------------------------------------------------------------------------


def _jacobi_step(Ks, F, h, n):
    """One RK4 step of (Y, Y')' = (Y', -K Y); Ks holds K at the start, midpoint and end."""

    def rhs(stage, G):
        return np.concatenate([G[:, n:], -np.einsum("mij,mjq->miq", Ks[stage], G[:, :n])], axis=1)

    return _rk4_step(rhs, F, h)


def jacobi_ivp_march(K_fine: np.ndarray, step: float, Y0: np.ndarray, Yp0: np.ndarray):
    """March the first-order system (Y, Y') along the whole fine grid.

    Returns (Y, Yp) with shape (C+1, m, n, q) on the coarse grid.
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


def boundary_solve(
    K_fine: np.ndarray,
    step: float,
    anchor_c: int,
    zero_c: int,
    out_lo: int,
    out_hi: int,
):
    """Two-point solution Y(zero) = I, Y(anchor) = 0 on coarse nodes [out_lo, out_hi].

    The solution subspace is propagated from the vanishing end, where it is
    the dominant direction of integration, with QR renormalization of each
    sample's (2n x n) frame whenever its own entries exceed
    ``_RENORM_THRESHOLD``, so a sample's result does not depend on the other
    samples of the batch.  The per-node right factors are restored when the
    output is normalized to Y = I at ``zero_c``, so the result is the exact
    two-point solution without overflow or cancellation at any horizon.
    """
    J, m, n, _ = K_fine.shape
    if not (out_lo <= zero_c <= out_hi):
        raise ValueError("normalization node must lie inside the output window")
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
        c2 = c + direction
        j0 = 2 * c
        F = _jacobi_step((K_fine[j0], K_fine[j0 + direction], K_fine[j0 + 2 * direction]), F, h, n)
        c = c2
        crossed = np.abs(F).max(axis=(1, 2)) > _RENORM_THRESHOLD
        if crossed.any():
            F[crossed], r = np.linalg.qr(F[crossed])
            events[c] = (crossed, r)
        if out_lo <= c <= out_hi:
            frames[c - out_lo] = F

    # Right factors H_c relating each stored frame to the one at zero_c; the
    # factor of a renormalization applies to the samples it renormalized.
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
    tz = full[zero_c - out_lo][:, :n, :]
    tz_inv = np.linalg.inv(tz)
    full = np.einsum("wmiq,mqr->wmir", full, tz_inv)
    return full[:, :, :n, :], full[:, :, n:, :]
