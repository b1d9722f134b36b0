"""Batched fixed-step integration kernels.

Everything here works on arrays with a leading sample axis m, so one call
integrates a whole bundle of geodesics in lockstep.  Public wrappers in
``geodesics`` and ``jacobi`` use m = 1.

Grids.  A run with requested step h is integrated at the half step h/2 and
every half-step node is stored ("fine grid", index j, J = 2*C + 1 nodes).
Coarse node c sits at fine index 2c.  Jacobi solves then march at step h and
read curvature coefficients at fine nodes for their midpoint stages.

State is kept in the orthonormal basis (d_x, f^{-1} d_{y_i}): the velocity is
(u0, u) with u0 = x' and u_i = f y_i'.  In this basis all dynamical
quantities stay O(1) even while f(x) sweeps hundreds of orders of magnitude;
the conserved fiber momenta p_i = f^2 y_i' = f u_i are evaluated through logs.

Frame and curvature in closed form.  Since u' is a multiple of u, the fiber
direction e = u/|u| is constant and the geodesic stays in the totally
geodesic slice spanned by d_x and e.  E1 = (-s, u0 e) with s = <u, e> (the
velocity v turned by 90 degrees in the slice) and every (0, w) with w normal
to e are parallel, so a parallel frame is V_i = c_i E1 + (0, w_i) with
constant c and w, and its curvature matrix is K = k2 I + (k1 - k2) c c^T with

    k1 = -h |v|^4,   k2 = -(u0^2 h + s^2 g'^2),   h = g'' + g'^2,

the slice curvature and that of the planes (v, (0, w)) (|v| = 1 up to the
unit-speed defect; |v|^4 = |v|^2 |E1|^2).  The kernel tabulates (k1, k2) per
node, and Y'' + K Y = 0 splits into the scalar modes y'' + k y = 0 for k1 and
k2 with Y = y1 c c^T + y2 (I - c c^T).  Jacobi data stay scalar here: one
march (:func:`scalar_march`) serves two-point and initial-value solves, and
n x n matrices are assembled only by callers that return them
(:func:`split_matrix`).  At n = 1, I - c c^T = 0 and only mode 1 exists.
"""
from __future__ import annotations

import numpy as np

from .errors import IntegratorDrift
from .warp import WarpSpec

# a sweep's scalar pair is rescaled by a power of two once it exceeds this
_RENORM_THRESHOLD = 1e6
# below this, fiber-velocity components sit in (or neighbor) the subnormal
# range where their relative precision is gone; momentum diagnostics stop
_MOMENTUM_FLOOR = 1e-300
# order of the state the geodesic kernel steps, and of the series it stores
_STATE_KEYS = ("x", "y", "u0", "u")
# nodes per block of an unstored run (see integrate_states), steps per
# block of transfer matrices in a sweep (see boundary_solve)
_BLOCK_NODES = 256


def start_frame(u0, u):
    """Constant coefficients (e, c, w) of the default start frame at velocities (u0 (m,), u (m, n)).

    The frame rows V_i = (alpha_i, beta_i) complete the unit velocity to an
    orthonormal basis (by QR).  e (m, n) is the fiber direction of the
    velocity (the first unit vector where the fiber velocity is 0), c (m, n)
    holds c_i = <V_i, E1> and w (m, n, n) the fiber parts
    w_i = beta_i - c_i u0 e, so that V_i = c_i E1 + (0, w_i) with
    E1 = (-s, u0 e) and s = <u, e>.
    """
    v = np.concatenate([u0[:, None], u], axis=1)
    m, d = v.shape
    basis = np.concatenate([v[:, :, None], np.broadcast_to(np.eye(d), (m, d, d))], axis=2)
    frame = np.linalg.qr(basis, mode="reduced")[0][:, :, 1:].transpose(0, 2, 1).copy()
    alpha, beta = frame[:, :, 0], frame[:, :, 1:]
    # scaling by the largest component keeps subnormal fiber velocities' direction
    big = np.abs(u).max(axis=-1, keepdims=True)
    v = np.where(big == 0.0, np.eye(u.shape[-1])[0], u / np.where(big == 0.0, 1.0, big))
    e = v / np.sqrt((v * v).sum(axis=-1, keepdims=True))
    s = (u * e).sum(axis=-1)
    c = -s[:, None] * alpha + u0[:, None] * np.einsum("mik,mk->mi", beta, e)
    w = beta - c[:, :, None] * (u0[:, None, None] * e[:, None, :])
    return e, c, w


def slice_frame(frame, u0, u):
    """Frame fields (alpha, beta) at states (u0, u) with leading axes (..., m), from (e, c, w)."""
    e, c, w = frame
    s = (u * e).sum(axis=-1)
    alpha = -c * s[..., None]
    beta = w + c[:, :, None] * (u0[..., None, None] * e[:, None, :])
    return alpha, beta


def split_matrix(pairs, c):
    """a1 c c^T + a2 (I - c c^T) from pairs (a1, a2) (..., m, M) and c (m, n).

    Curvature matrices from (k1, k2), Jacobi data from their modes.  With
    one mode (M = 1, n = 1) the result is a1.
    """
    a1, a2 = pairs[..., 0], pairs[..., -1]
    cc = c[:, :, None] * c[:, None, :]
    return a2[..., None, None] * np.eye(c.shape[-1]) + (a1 - a2)[..., None, None] * cc


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


def _geodesic_rhs(spec, x, y, u0, u, derivs=None):
    """Derivatives of the state (x, y, u0, u); y may be None (not carried).

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
    return dx, dy, du0, du


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
    with_curvatures: bool = True,
    store: bool = True,
    drift_tol=None,
):
    """Integrate geodesics from t0 to t1, with the curvature coefficients of their frames.

    Returns a dict of fine-grid arrays in integration order; times are
    monotone from t0 to t1 (possibly decreasing).  With ``with_curvatures``
    it holds the table ``curvatures`` (J, m, 2) of (k1, k2) per node, which
    needs no frame (see the module docstring; a frame's coefficients come
    from :func:`start_frame`).  With ``store`` the dict also holds every
    state series (x, y, u0, u), the momenta and the unit-speed defect;
    without it y is not integrated and only the maximum defects and the
    final state are kept.  Raises :class:`IntegratorDrift` when a
    conservation defect exceeds ``drift_tol``.
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

    out = {"times_fine": t0 + hf * np.arange(J), "m": m}
    if with_curvatures:
        out["curvatures"] = np.empty((J, m, 2))
    state = [x, y, u0s, u]
    # The loop tabulates each node's state and log-derivatives; curvature
    # coefficients and conservation defects are then evaluated a block of
    # nodes at a time.  A stored run is one block, so its table is the output.
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

    def flush(j0, count):
        """Curvature coefficients and defects of the ``count`` tabulated nodes from node j0 on."""
        nonlocal max_unit, max_mom, alive
        tab = {key: value[:count] for key, value in table.items()}
        nodes = slice(j0, j0 + count)
        u0s, u, gp = tab["u0"], tab["u"], tab["gp"]
        s2 = (u * u).sum(axis=-1)
        speed2 = u0s * u0s + s2
        if with_curvatures:
            gp2 = gp * gp
            h = tab["gpp"] + gp2
            out["curvatures"][nodes, :, 0] = -(h * speed2 * speed2)
            out["curvatures"][nodes, :, 1] = -(u0s * u0s * h + s2 * gp2)
        unit = np.abs(speed2 - 1.0)
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
        derivs = record(j + 1, state)

    out["max_unit_defect"] = max_unit
    out["max_momentum_defect"] = max_mom
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
        spec, x0, y0, u00, u0vec, t0=0.0, t1=float(t_end), step=step, with_curvatures=False, store=False
    )
    return run["max_unit_defect"], run["max_momentum_defect"]


# ---------------------------------------------------------------------------
# Jacobi marching
# ---------------------------------------------------------------------------


def _transfer_block(curvatures, node, direction, count, h):
    """RK4 transfer matrices T (count, 2, 2, m, M) of y'' + k y = 0 for steps of h from coarse ``node`` on.

    (y, y') after step i is T[i] applied to (y, y') before it.
    """
    sub = curvatures[2 * node + direction * np.arange(2 * count + 1)]
    ks = (sub[0:-1:2], sub[1::2], sub[2::2])

    def rhs(stage, G):
        return np.stack((G[:, 1], -(ks[stage][:, None] * G[:, 0])), axis=1)

    eye = np.zeros((count, 2, 2) + sub.shape[1:])
    eye[:, 0, 0] = eye[:, 1, 1] = 1.0
    return _rk4_step(rhs, eye, h)


def scalar_march(curvatures: np.ndarray, step: float, start: int, stop: int, F: np.ndarray, lo: int, hi: int):
    """March scalar pairs (y, y') of y'' + k y = 0 from coarse node ``start`` to ``stop``.

    ``curvatures`` (J, m, M) holds k per fine node, sample and mode, and F
    (2, q, m, M) the pairs at ``start`` of q solutions.  A solution whose
    pair exceeds ``_RENORM_THRESHOLD`` is divided by a power of two (exact),
    so nothing overflows at any horizon and every decision is per sample and
    mode.  Returns the scaled pairs (nodes, 2, q, m, M) and the base-2
    exponents (nodes, q, m, M) taken out of them, at the coarse nodes of
    [lo, hi] that the march passes.
    """
    direction = -1 if stop < start else 1
    scale = np.zeros(F.shape[1:], dtype=int)
    pairs, scales = np.empty((hi - lo + 1,) + F.shape), np.empty((hi - lo + 1,) + scale.shape, dtype=int)
    node = start
    if lo <= node <= hi:
        pairs[node - lo], scales[node - lo] = F, scale
    steps = abs(stop - start)
    for first in range(0, steps, _BLOCK_NODES):
        T = _transfer_block(curvatures, node, direction, min(_BLOCK_NODES, steps - first), direction * step)
        for Ti in T:
            F = Ti[:, 0, None] * F[0] + Ti[:, 1, None] * F[1]
            node += direction
            if np.abs(F).max() > _RENORM_THRESHOLD:
                size = np.abs(F).max(axis=0)
                shift = np.where(size > _RENORM_THRESHOLD, np.frexp(size)[1], 0)
                F = np.ldexp(F, -shift)
                scale = scale + shift
            if lo <= node <= hi:
                pairs[node - lo], scales[node - lo] = F, scale
    return pairs, scales


def boundary_solve(curvatures: np.ndarray, step: float, anchor_c: int, zero_c: int, out_lo: int, out_hi: int):
    """Scalar two-point solutions y(zero) = 1, y(anchor) = 0 on coarse nodes [out_lo, out_hi].

    ``curvatures`` (J, m, M) holds the coefficient k of each mode per fine
    node.  The modes are marched together from the vanishing end, where they
    are the dominant solution (:func:`scalar_march`), and the exponents are
    restored at normalization.  Returns (y, y'), each (nodes, m, M).
    """
    if not (out_lo <= zero_c <= out_hi):
        raise ValueError("normalization node must lie inside the output window")
    target = out_lo if anchor_c > zero_c else out_hi
    F = np.zeros((2, 1) + curvatures.shape[1:])
    F[1] = -1.0
    pairs, scales = scalar_march(curvatures, step, anchor_c, target, F, out_lo, out_hi)
    pairs, scales = pairs[:, :, 0], scales[:, 0]
    zero = zero_c - out_lo
    y_zero = pairs[zero, 0]
    if (y_zero == 0.0).any():
        raise np.linalg.LinAlgError("two-point solution vanishes at the normalization node")
    ys = np.ldexp(pairs / y_zero, (scales - scales[zero])[:, None])
    return ys[:, 0], ys[:, 1]
