"""Reference parallel transport: the frame ODE integrated by RK4, without renormalization.

In the orthonormal basis (d_x, f^{-1} d_{y_i}) a perpendicular frame
V_i = (alpha_i, beta_i) is parallel along the geodesic with velocity (u0, u)
when

    alpha_i' = g' <beta_i, u>,    beta_i' = -g' alpha_i u .

This module integrates that system together with the geodesic state on the
half-step grid of a :class:`~warpflow.geodesics.GeodesicPath` and evaluates
the curvature matrices of the transported frame with
:func:`curvature_matrix_frame`, the full contraction of the curvature tensor
against the frame.  It shares no code with the closed-form frame of
``engine``, so the two can be compared node by node.
"""
from __future__ import annotations

import numpy as np


def curvature_matrix_frame(h, gp2, u0, u, alpha, beta):
    """Curvature matrix K_ij = <R(gamma', V_i) gamma', V_j> in frame components.

    ``u0, u`` are the velocity components, ``alpha`` (..., n) and ``beta``
    (..., n, n) hold the frame fields V_i = (alpha_i, beta_i).  Returns an
    (..., n, n) symmetric stack.
    """
    d = np.einsum("...ik,...k->...i", beta, u)
    gram = np.einsum("...ik,...jk->...ij", beta, beta)
    s2 = np.sum(u * u, axis=-1)
    u0_ = u0[..., None, None]
    s2_ = s2[..., None, None]
    cross = alpha[..., None, :] * d[..., :, None] + alpha[..., :, None] * d[..., None, :]
    aa = alpha[..., :, None] * alpha[..., None, :]
    dd = d[..., :, None] * d[..., None, :]
    h_ = h[..., None, None] if np.ndim(h) else h
    gp2_ = gp2[..., None, None] if np.ndim(gp2) else gp2
    return h_ * (u0_ * cross - aa * s2_ - u0_ * u0_ * gram) + gp2_ * (dd - s2_ * gram)




def _rhs(spec, state):
    x, u0, u, alpha, beta = state
    _, gp, _ = spec.log_derivatives(np.array([x]))
    gp = float(gp[0])
    s2 = float(u @ u)
    return (u0, gp * s2, -gp * u0 * u, gp * (beta @ u), -gp * np.outer(alpha, u))


def _axpy(state, h, k):
    return tuple(part + h * dpart for part, dpart in zip(state, k))


def transported_frame(path):
    """Frame (alpha, beta), curvature matrices K and states (x, u0, u) of the transport on the fine grid.

    Integrates forward from the path's first node, starting from its stored
    state and frame there; the state (x, u0, u) is stepped with all n fiber
    components.
    """
    spec = path.spec
    h = path.step / 2.0
    state = (float(path.x[0]), float(path.u0[0]), path.u[0].copy(), path.alpha[0].copy(), path.beta[0].copy())
    nodes = len(path.times_fine)
    xs, u0s = np.empty(nodes), np.empty(nodes)
    us = np.empty((nodes, spec.n))
    alphas = np.empty((nodes, spec.n))
    betas = np.empty((nodes, spec.n, spec.n))
    for j in range(nodes):
        xs[j], u0s[j], us[j], alphas[j], betas[j] = state
        if j == nodes - 1:
            break
        k1 = _rhs(spec, state)
        k2 = _rhs(spec, _axpy(state, h / 2.0, k1))
        k3 = _rhs(spec, _axpy(state, h / 2.0, k2))
        k4 = _rhs(spec, _axpy(state, h, k3))
        state = tuple(
            part + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for part, a, b, c, d in zip(state, k1, k2, k3, k4)
        )
    _, gp, gpp = spec.log_derivatives(xs)
    K = curvature_matrix_frame(gpp + gp * gp, gp * gp, u0s, us, alphas, betas)
    return alphas, betas, K, (xs, u0s, us)
