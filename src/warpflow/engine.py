"""Batched fixed-step integration kernels.

Everything here works on arrays with a leading sample axis m, so one call
integrates a whole bundle of geodesics in lockstep.  Public wrappers in
``geodesics`` and ``jacobi`` use m = 1.

Grids.  A run with requested step h is integrated at the half step h/2 and
every half-step node is stored ("fine grid", index j, J = 2*C + 1 nodes).
Coarse node c sits at fine index 2c.  Jacobi solves then march at step h and
read curvature coefficients at fine nodes for their midpoint stages.

The geodesic slice.  In the orthonormal basis (d_x, f^{-1} d_{y_i}) the
velocity is (u0, u) with u0 = x' and u_i = f y_i'.  Since u' is a multiple
of u, the fiber direction e = u/|u| is constant and the geodesic stays in
the totally geodesic slice spanned by d_x and e.  The kernel therefore
steps the slice state, rows (x, u0, s) per sample with s = <u, e>:

    x' = u0,   u0' = g' s^2,   s' = -g' u0 s,

and a stored run adds Y, Y' = e^{-g} s.  Y is cyclic (the torus acts by
isometries) and never feeds back, so it is not stepped: a block of stored
nodes gets its Y increments from one vectorised RK4 step of the four-row
system over the block's node states, summed in node order, which repeats
the operations of an in-loop Y row bit for bit.  Only outputs rebuild the
vectors: u = s e, y = y0 + Y e and the fiber momenta p_i = f^2 y_i' = P e_i
with P = f s, which is evaluated through logs.  All of these stay O(1)
while f(x) sweeps hundreds of orders of magnitude.

Frame and curvature in closed form.  E1 = (-s, u0 e) (the velocity v
turned by 90 degrees in the slice) and every (0, w) with w normal to e are
parallel, so a parallel frame is V_i = c_i E1 + (0, w_i) with constant c
and w, and its curvature matrix is K = k2 I + (k1 - k2) c c^T with

    k1 = -h |v|^4,   k2 = -(u0^2 h + s^2 g'^2),   h = g'' + g'^2,

the slice curvature and that of the planes (v, (0, w)) (|v| = 1 up to the
unit-speed defect; |v|^4 = |v|^2 |E1|^2).  The kernel tabulates (k1, k2) per
node, and Y'' + K Y = 0 splits into the scalar modes y'' + k y = 0 for k1 and
k2 with Y = y1 c c^T + y2 (I - c c^T).  Jacobi data stay scalar here: one
march (:func:`scalar_march`) serves two-point and initial-value solves, and
n x n matrices are assembled only by callers that return them
(:func:`split_matrix`).  At n = 1, I - c c^T = 0 and only mode 1 exists.

Sweeps.  The march multiplies each pair by its step's RK4 transfer matrix,
written in closed form from the step's three coefficients with the bits of
RK4 on the identity (:func:`_transfer_block`).  It rescales by powers of
two once per run of steps, not per step: a run ends before its matrices'
norms could multiply past 2^900, so nothing overflows inside it and every
represented value is that of a per-step rescale, bit for bit.  A two-point
solve may start from the window basis of an earlier one with a nearer
anchor and march only the steps between the two anchors
(:func:`boundary_solve`).

Finiteness.  The kernel evaluates the warp unchecked.  A run, stored or
not, reads only g' at its RK4 stages (:meth:`WarpSpec.log_slope`) and
evaluates (g, g', g'') of the tabulated nodes (:attr:`WarpSpec.triple`)
once per block of at most ``_BLOCK_NODES`` nodes; that one array feeds the
curvature table, the momentum defect and the finiteness test: a non-finite
x or (g, g', g'') raises :class:`DomainError`.  Only the start state goes
through the checked :meth:`WarpSpec.log_derivatives`, so a bad x0 fails at
once.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, IntegratorDrift
from .warp import WarpSpec

# a sweep's scalar pair is rescaled by a power of two once it exceeds this
_RENORM_THRESHOLD = 1e6
# a sweep rescales once per run of steps whose transfer matrices' row-sum
# norms multiply to at most 2^_RUN_BITS (see scalar_march)
_RUN_BITS = 900
# below this, the slice speed s sits in (or neighbors) the subnormal range
# where its relative precision is gone; momentum diagnostics stop
_MOMENTUM_FLOOR = 1e-300
# nodes per block of a kernel run (see integrate_states), steps per
# block of transfer matrices in a sweep (see boundary_solve)
_BLOCK_NODES = 256


def fiber_direction(u):
    """Unit fiber directions e (m, n) of fiber velocities u (m, n), and s = <u, e> (m,).

    e is the first unit vector where u = 0.  Scaling by the largest
    component keeps the direction of subnormal fiber velocities.
    """
    big = np.abs(u).max(axis=-1, keepdims=True)
    v = np.where(big == 0.0, np.eye(u.shape[-1])[0], u / np.where(big == 0.0, 1.0, big))
    e = v / np.sqrt((v * v).sum(axis=-1, keepdims=True))
    return e, (u * e).sum(axis=-1)


def slice_state(x, u0, u):
    """The kernel state (3, m), rows (x, u0, s), of states (x, u0, u) and their fiber directions e (m, n)."""
    e, s = fiber_direction(np.atleast_2d(np.asarray(u, dtype=float)))
    return np.array([np.atleast_1d(x), np.atleast_1d(u0), s], dtype=float), e


def start_frame(u0, u):
    """Constant coefficients (e, c, w) of the default start frame at velocities (u0 (m,), u (m, n)).

    The frame rows V_i = (alpha_i, beta_i) complete the unit velocity to an
    orthonormal basis (by QR).  e (m, n) is the fiber direction of
    :func:`fiber_direction`, c (m, n) holds c_i = <V_i, E1> and w (m, n, n)
    the fiber parts w_i = beta_i - c_i u0 e, so that V_i = c_i E1 + (0, w_i)
    with E1 = (-s, u0 e).
    """
    v = np.concatenate([u0[:, None], u], axis=1)
    m, d = v.shape
    basis = np.concatenate([v[:, :, None], np.broadcast_to(np.eye(d), (m, d, d))], axis=2)
    frame = np.linalg.qr(basis, mode="reduced")[0][:, :, 1:].transpose(0, 2, 1).copy()
    alpha, beta = frame[:, :, 0], frame[:, :, 1:]
    e, s = fiber_direction(u)
    c = -s[:, None] * alpha + u0[:, None] * np.einsum("mik,mk->mi", beta, e)
    w = beta - c[:, :, None] * (u0[:, None, None] * e[:, None, :])
    return e, c, w


def split_matrix(pairs, c):
    """a1 c c^T + a2 (I - c c^T) from pairs (a1, a2) (..., m, M) and c (m, n), or (..., M) and c (n,).

    Curvature matrices from (k1, k2), Jacobi data from their modes.  With
    one mode (M = 1, n = 1) the result is a1.
    """
    a1, a2 = pairs[..., 0], pairs[..., -1]
    cc = c[..., :, None] * c[..., None, :]
    return a2[..., None, None] * np.eye(c.shape[-1]) + (a1 - a2)[..., None, None] * cc


def _fiber_momentum(g, s):
    """The fiber momentum P = f s (s >= 0) evaluated as exp(g + log s); 0 below ``_MOMENTUM_FLOOR``."""
    with np.errstate(divide="ignore", over="ignore"):
        p = np.exp(g + np.log(s))
    return np.where(s < _MOMENTUM_FLOOR, 0.0, p)


def _momentum_defect(p, s, p0, e_max):
    """Relative defect of the fiber momenta P e per node, and where s left the representable range.

    The defect is max_i |e_i| |P - P0| / max(1, max_i |e_i| |P0|) for
    ``e_max`` = max_i |e_i|: the largest change of a momentum component,
    relative to the (coordinate-dependent) size of the initial momenta.  A
    node is dead when s sits below ``_MOMENTUM_FLOOR`` while P0 is nonzero;
    callers mask the defect from the first dead node on.
    """
    dead = (s < _MOMENTUM_FLOOR) & (p0 != 0.0)
    return e_max * np.abs(p - p0) / np.maximum(1.0, e_max * np.abs(p0)), dead


@functools.lru_cache(maxsize=64)
def _rk4_weights(h: float) -> tuple:
    """0.5 h, h, h/6 and 2 as 0-d arrays, which numpy multiplies into an array faster than floats."""
    return tuple(np.array(v) for v in (0.5 * h, h, h / 6.0, 2.0))


def _rk4_step(rhs, y, h):
    """One classic RK4 step of y' = rhs(stage, y) over a step h.

    ``stage`` counts half steps into the step (0, 1, 1, 2), for right-hand
    sides that read coefficients tabulated on a half-step grid.
    """
    half, full, sixth, two = _rk4_weights(h)
    k1 = rhs(0, y)
    k2 = rhs(1, y + half * k1)
    k3 = rhs(1, y + half * k2)
    k4 = rhs(2, y + full * k3)
    return y + sixth * (k1 + two * k2 + two * k3 + k4)


def integrate_states(
    spec: WarpSpec,
    state,
    e,
    *,
    t0: float,
    t1: float,
    step: float,
    with_curvatures: bool = True,
    store: bool = True,
    drift_tol=None,
):
    """Integrate geodesics from t0 to t1, with the curvature coefficients of their frames.

    ``state`` holds the slice states (x, u0, s), one column per sample (see
    the module docstring), and ``e`` (m, n) their fiber directions, which
    only scale the momentum defect.  Returns a dict of fine-grid arrays in
    integration order; times are monotone from t0 to t1 (possibly
    decreasing).  With ``with_curvatures`` it holds the table ``curvatures``
    (J, m, 2) of (k1, k2) per node, which needs no frame (a frame's
    coefficients come from :func:`start_frame`).  With ``store`` the dict
    holds every series x, u0, s, Y (Y = 0 at t0), the fiber momentum
    p = f s and the unit-speed defect; without it only the maximum defects
    are kept.  ``final_state`` is the state at t1, with the Y row when
    stored.  Raises :class:`IntegratorDrift` when a conservation defect
    exceeds ``drift_tol``, and :class:`DomainError` when a block of nodes
    holds a non-finite x or warp value (module docstring).
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    S = np.array(state, dtype=float)
    m = S.shape[1]
    Y_carry = np.zeros(m)  # Y at the next node to flush
    e_max = np.abs(e).max(axis=-1)

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
    # The loop tabulates each node's state; the warp data, curvature
    # coefficients, conservation defects and Y are then evaluated a block of
    # nodes at a time.  A stored run tabulates into its output.
    block = min(J, _BLOCK_NODES)
    states = np.empty((3, J if store else block, m))
    if store:
        out.update(zip(("x", "u0", "s"), states))
        for key in ("Y", "p", "unit_defect"):
            out[key] = np.empty((J, m))

    p_init = _fiber_momentum(spec.log_derivatives(S[0])[0], S[2])
    max_unit = np.zeros(m)
    max_mom = np.zeros(m)
    alive = np.ones((m,), dtype=bool)

    # WarpSpec.log_slope without its dispatch, which would run at every stage
    log_slope = spec.log_slope if spec.slope is None else spec.slope

    def rhs(_stage, S):
        gp = log_slope(S[0])
        u0s, s = S[1], S[2]
        dS = np.empty_like(S)
        dS[0] = u0s
        dS[1] = gp * (s * s)
        dS[2] = -(gp * u0s) * s
        return dS

    def fiber_rhs(stage, S):
        """``rhs`` with the row Y' = e^{-g} s: Y is cyclic, so it never feeds back."""
        dS = np.empty_like(S)
        dS[:3] = rhs(stage, S[:3])
        s = S[2]
        dS[3] = np.where(s == 0.0, 0.0, np.exp(-spec.triple(S[0])[0]) * s)
        return dS

    def flush(j0, count):
        """Curvature coefficients, defects and Y of the ``count`` tabulated nodes from node j0 on."""
        nonlocal max_unit, max_mom, alive, Y_carry
        table = states[:, j0 : j0 + count] if store else states[:, :count]
        x, u0s, s = table
        g, gp, gpp = spec.triple(x)
        if not all(np.isfinite(v).all() for v in (x, g, gp, gpp)):
            times = out["times_fine"][[j0, j0 + count - 1]]
            raise DomainError(f"non-finite x or warp data (g, g', g'') between t = {times[0]:g} and {times[1]:g}")
        nodes = slice(j0, j0 + count)
        s2 = s * s
        speed2 = u0s * u0s + s2
        if with_curvatures:
            gp2 = gp * gp
            h = gpp + gp2
            out["curvatures"][nodes, :, 0] = -(h * speed2 * speed2)
            out["curvatures"][nodes, :, 1] = -(u0s * u0s * h + s2 * gp2)
        unit = np.abs(speed2 - 1.0)
        p = _fiber_momentum(g, s)
        defect, dead = _momentum_defect(p, s, p_init, e_max)
        alive_nodes = alive & np.logical_and.accumulate(~dead, axis=0)
        max_unit = np.maximum(max_unit, unit.max(axis=0))
        max_mom = np.maximum(max_mom, np.where(alive_nodes, defect, 0.0).max(axis=0))
        alive = alive_nodes[-1]
        if store:
            out["p"][nodes] = p
            out["unit_defect"][nodes] = unit
            # Y's RK4 increments over the steps out of these nodes (the last
            # node of the run has none), rebuilt from the node states with
            # the loop's arithmetic and summed in the loop's order
            steps = count if j0 + count < J else count - 1
            start = np.concatenate([table[:, :steps], np.zeros((1, steps, m))])
            increments = _rk4_step(fiber_rhs, start, hf)[3]
            Y = np.add.accumulate(np.concatenate([Y_carry[None], increments]))
            out["Y"][nodes] = Y[:count]
            Y_carry = Y[-1]

    # The warp is evaluated unchecked; flush tests each block for
    # non-finite values instead, so numpy's warnings are silenced here.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(J):
            i = j % block
            states[:, j if store else i] = S
            if i == block - 1 or j == J - 1:
                flush(j - i, i + 1)
            if j < J - 1:
                S = _rk4_step(rhs, S, hf)

    out["max_unit_defect"] = max_unit
    out["max_momentum_defect"] = max_mom
    out["final_state"] = np.vstack([S, Y_carry]) if store else S
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
    state, e = slice_state(x0, u00, u0vec)
    run = integrate_states(
        spec, state, e, t0=0.0, t1=float(t_end), step=step, with_curvatures=False, store=False
    )
    return run["max_unit_defect"], run["max_momentum_defect"]


# ---------------------------------------------------------------------------
# Jacobi marching
# ---------------------------------------------------------------------------


def _transfer_block(curvatures, node, direction, count, h):
    """RK4 transfer matrices of y'' + k y = 0 for ``count`` steps of h from coarse ``node`` on, by column.

    Returns T (count, 2, 2, 1, m, M) with T[i, j] the column j of step i's
    matrix ((y, y') after step i is T[i, 0] y + T[i, 1] y' before it), and
    the log2 of each step's largest row-sum norm over the lanes whose
    matrix is finite (at least 0).  The entries repeat the operations
    :func:`_rk4_step` performs on the identity, dropping only products by
    an exact 0 or 1 and sums with an exact 0, so they have its bits on
    finite coefficients; a non-finite k gives a non-finite matrix (RK4 on
    the identity makes every entry NaN, this only those that read k).
    """
    a = 2 * node
    sub = curvatures[a : a + 2 * count + 1] if direction > 0 else curvatures[a - 2 * count : a + 1][::-1]
    ka, kb, kc = sub[0:-1:2], sub[1::2], sub[2::2]
    half, full, sixth, two = _rk4_weights(h)
    A, B = half * ka, half * kb
    s3 = 1.0 - half * A  # column (1, 0): y at the third stage
    kbs3 = kb * s3
    s4 = 1.0 - full * B  # y of (1, 0) and y' of (0, 1) at the fourth stage
    t3 = 1.0 - half * B  # column (0, 1): y' at the third stage
    T = np.empty((count, 2, 2, 1) + ka.shape[1:])
    T[:, 0, 0, 0] = 1.0 - sixth * (two * (A + B) + full * kbs3)
    T[:, 0, 1, 0] = -(sixth * (((ka + two * kb) + two * kbs3) + kc * s4))
    T[:, 1, 0, 0] = sixth * ((3.0 + two * t3) + s4)
    T[:, 1, 1, 0] = 1.0 - sixth * (4.0 * B + kc * (full * t3))
    with np.errstate(invalid="ignore"):
        absT = np.abs(T)
        norm = np.maximum(absT[:, 0, 0] + absT[:, 1, 0], absT[:, 0, 1] + absT[:, 1, 1])
        norm = np.where(np.isfinite(norm), norm, 1.0).reshape(count, -1).max(axis=1, initial=1.0)
    return T, np.log2(norm)


def _renormalize(pairs, scales):
    """Divide each pair (axis 1 of ``pairs``) larger than ``_RENORM_THRESHOLD`` by a power of two, in place.

    The pair then lies in [0.5, 1) and its exponent is added to ``scales``
    (the shape of ``pairs`` without axis 1); a NaN pair is left as it is.
    """
    size = np.abs(pairs).max(axis=1)
    shift = np.where(size > _RENORM_THRESHOLD, np.frexp(size)[1], 0)
    np.ldexp(pairs, -shift[:, None], out=pairs)
    scales += shift


def scalar_march(curvatures: np.ndarray, step: float, start: int, stop: int, F: np.ndarray, lo: int, hi: int):
    """March scalar pairs (y, y') of y'' + k y = 0 from coarse node ``start`` to ``stop``.

    ``curvatures`` (J, m, M) holds k per fine node, sample and mode, and F
    (2, q, m, M) the pairs at ``start`` of q solutions.  The steps go in
    runs, each ending before the product of its transfer matrices'
    row-sum norms could pass 2^``_RUN_BITS``, so nothing overflows inside
    a run; after it, every pair above ``_RENORM_THRESHOLD``, the march's
    and those stored in the run, is divided by a power of two
    (:func:`_renormalize`).  That is exact, so every represented value
    pair * 2^scale is the one of a march that rescales after each step,
    bit for bit, and every decision is per sample and mode, also beside a
    sample whose pair is NaN.  Returns the scaled pairs (nodes, 2, q, m, M)
    and the base-2 exponents (nodes, q, m, M) taken out of them, at the
    coarse nodes of [lo, hi] that the march passes.
    """
    direction = -1 if stop < start else 1
    scale = np.zeros(F.shape[1:], dtype=int)
    pairs, scales = np.empty((hi - lo + 1,) + F.shape), np.empty((hi - lo + 1,) + scale.shape, dtype=int)
    node = start
    if lo <= node <= hi:
        pairs[node - lo], scales[node - lo] = F, scale
    steps = abs(stop - start)
    for first in range(0, steps, _BLOCK_NODES):
        count = min(_BLOCK_NODES, steps - first)
        T, bits = _transfer_block(curvatures, node, direction, count, direction * step)
        total = np.cumsum(bits)
        i = 0
        while i < count:
            # a run: steps i to end - 1, at least one, whose log2 norms sum to at most _RUN_BITS
            end = max(i + 1, int(np.searchsorted(total, total[i] - bits[i] + _RUN_BITS, side="right")))
            for col0, col1 in zip(T[i:end, 0], T[i:end, 1]):
                node += direction
                G = np.multiply(col0, F[0], out=pairs[node - lo] if lo <= node <= hi else None)
                G += col1 * F[1]
                F = G
            run = sorted((node - direction * (end - i - 1), node))
            a, b = max(lo, run[0]), min(hi, run[1])
            if a <= b:
                scales[a - lo : b - lo + 1] = scale
                _renormalize(pairs[a - lo : b - lo + 1], scales[a - lo : b - lo + 1])
            if lo <= node <= hi:  # F is the run's last stored node
                scale = scales[node - lo].copy()
            else:
                _renormalize(F[None], scale[None])
            i = end
    return pairs, scales


@dataclass
class Basis:
    """The Dirichlet and Neumann pairs of a sweep on its output window, kept for a later sweep (:func:`boundary_solve`).

    ``pairs`` (nodes, 2, 2, m, M) and ``scales`` (nodes, 2, m, M) are as
    :func:`scalar_march` returns them, solution 0 Dirichlet and 1 Neumann,
    and ``offset`` is their anchor's coarse offset from the normalization
    node; it is None while nothing is stored.
    """

    offset: Optional[int] = None
    pairs: Optional[np.ndarray] = None
    scales: Optional[np.ndarray] = None


def _recombine(pairs, scales, end, end_scales):
    """Replace the Dirichlet and Neumann solutions D, N of ``pairs`` and ``scales`` by y N - y' D, in place.

    ``end`` (2, 2, m, M) holds the pairs (y, y') of the new solutions at the
    anchor of D and N, and ``end_scales`` (2, m, M) their exponents.  At
    that anchor D = (0, -1) and N = (1, 0), so y N - y' D has the pair
    (y, y') there; D and N are first brought to a common exponent.
    """
    common = np.maximum(scales[:, 0], scales[:, 1])
    D, N = pairs[:, :, 0], pairs[:, :, 1]
    for sol, s in ((D, scales[:, 0]), (N, scales[:, 1])):
        np.ldexp(sol, (s - common)[:, None], out=sol)
    new_D = N * end[0, 0] - D * end[1, 0]
    N *= end[0, 1]
    N -= D * end[1, 1]
    D[...] = new_D
    scales[...] = common[:, None] + end_scales
    _renormalize(pairs, scales)


def boundary_solve(curvatures: np.ndarray, step: float, anchor_c: int, zero_c: int, out_lo: int, out_hi: int,
                   *, basis: Optional[Basis] = None):
    """Scalar two-point solutions y(zero) = 1, y(anchor) = 0 on coarse nodes [out_lo, out_hi], with a bracket.

    ``curvatures`` (J, m, M) holds the coefficient k of each mode per fine
    node.  The modes are marched together from the vanishing end, where they
    are the dominant solution (:func:`scalar_march`), and the exponents are
    restored at normalization.  The Neumann solutions, y'(anchor) = 0, are
    marched beside them in the same march.  Riccati solutions u = y'/y from
    one endpoint cannot cross, so for k <= 0 every solution whose u at the
    anchor lies in [-inf, 0], the stable (or unstable) limit included, lies
    between the Dirichlet u_D and the Neumann u_N at every node before it.
    Returns (y, y', width), each (nodes, m, M), with width = |u_N - u_D|
    (the rescaling cancels in y'/y); where either solution is zero or not
    finite the width is inf.  A sample whose solution vanishes at the
    normalization node (a conjugate point) gets NaN modes and an infinite
    width on the whole window; the other samples keep their bits.

    ``basis``, when given, receives this sweep's Dirichlet and Neumann pairs
    on the window (the march's own buffers) for a later call with the same
    window and samples.  If it already holds those of an earlier anchor
    that lies between the window and ``anchor_c``, the march stops at that
    anchor, and each new solution on the window is y N - y' D, with D and N
    the stored pairs (a basis of solutions there) and (y, y') its pair at
    the earlier anchor, combined in place (:func:`_recombine`).
    """
    if not (out_lo <= zero_c <= out_hi):
        raise ValueError("normalization node must lie inside the output window")
    # solution 0 is Dirichlet, (y, y') = (0, -1) at the anchor; solution 1 Neumann, (1, 0)
    F = np.zeros((2, 2) + curvatures.shape[1:])
    F[1, 0] = -1.0
    F[0, 1] = 1.0
    prev = None if basis is None or basis.offset is None else zero_c + basis.offset
    if prev is not None and (out_hi < prev < anchor_c or anchor_c < prev < out_lo):
        end, end_scales = scalar_march(curvatures, step, anchor_c, prev, F, prev, prev)
        pairs, scales = basis.pairs, basis.scales
        _recombine(pairs, scales, end[0], end_scales[0])
    else:
        target = out_lo if anchor_c > zero_c else out_hi
        pairs, scales = scalar_march(curvatures, step, anchor_c, target, F, out_lo, out_hi)
    if basis is not None:
        basis.offset, basis.pairs, basis.scales = anchor_c - zero_c, pairs, scales
    zero = zero_c - out_lo
    y_zero = pairs[zero, 0, 0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = pairs[:, 1] / pairs[:, 0]
        width = np.abs(u[:, 1] - u[:, 0])
        ys = np.ldexp(pairs[:, :, 0] / y_zero, (scales[:, 0] - scales[zero, 0])[:, None])
    width[~np.isfinite(width)] = np.inf
    singular = (y_zero == 0.0).any(axis=-1)
    ys[:, :, singular] = np.nan
    width[:, singular] = np.inf
    return ys[:, 0], ys[:, 1], width
