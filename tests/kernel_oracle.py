"""Reference stored geodesic run: the fiber displacement Y stepped inside the RK4 loop.

The slice state (x, u0, s) is extended by the row Y, Y' = e^{-g} s, and the
four rows are stepped together by classic RK4 on the half-step grid, the full
warp triple evaluated at every stage.  The node tables (curvatures, fiber
momentum, unit-speed defect) use the closed forms of ``engine``.  The stepper
is written out here rather than taken from ``engine``, so a change to the
kernel's arithmetic, or to the order in which its Y increments are summed,
shows as a bit difference.
"""
from __future__ import annotations

import numpy as np


def _rhs(spec, S):
    g, gp, _ = spec.log_triple(S[0])
    u0s, s = S[1], S[2]
    dS = np.empty_like(S)
    dS[0] = u0s
    dS[1] = gp * (s * s)
    dS[2] = -(gp * u0s) * s
    dS[3] = np.where(s == 0.0, 0.0, np.exp(-g) * s)
    return dS


def _step(spec, S, h):
    k1 = _rhs(spec, S)
    k2 = _rhs(spec, S + 0.5 * h * k1)
    k3 = _rhs(spec, S + 0.5 * h * k2)
    k4 = _rhs(spec, S + h * k3)
    return S + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def stored_run(spec, state, *, t0: float, t1: float, step: float) -> dict:
    """Series x, u0, s, Y, p, unit_defect, curvatures (J, m[, 2]) and final_state (4, m) of a stored run.

    ``state`` holds the rows (x, u0, s) or (x, u0, s, Y) per sample, as for
    ``engine.integrate_states``; Y starts at 0 without its row.
    """
    S = np.array(state, dtype=float)
    if len(S) == 3:
        S = np.vstack([S, np.zeros(S.shape[1])])
    n_coarse = int(round(abs(t1 - t0) / step))
    hf = (1.0 if t1 >= t0 else -1.0) * step / 2.0
    J = 2 * n_coarse + 1
    states = np.empty((4, J) + S.shape[1:])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(J):
            states[:, j] = S
            if j < J - 1:
                S = _step(spec, S, hf)
        x, u0, s, Y = states
        g, gp, gpp = spec.log_triple(x)
        h = gpp + gp * gp
        s2 = s * s
        speed2 = u0 * u0 + s2
        p = np.where(s < 1e-300, 0.0, np.exp(g + np.log(s)))
    curvatures = np.stack([-(h * speed2 * speed2), -(u0 * u0 * h + s2 * (gp * gp))], axis=-1)
    return {"x": x, "u0": u0, "s": s, "Y": Y, "p": p, "unit_defect": np.abs(speed2 - 1.0),
            "curvatures": curvatures, "final_state": S}
