"""Averaged-curvature criterion: series, estimators, contraction envelopes, verdicts.

The quantity of interest along a geodesic is the running time average of the
sectional curvature of the planes spanned by the velocity and the stable
Jacobi fields,

    avg_i(t) = (1/t) * int_0^t K(gamma'(s), J_i(s)) ds .

If these averages stay below a uniform negative level -B for all sampled
start data once t > t0, and the measured flow-derivative norms on the
stable/unstable spans admit genuine exponential envelopes C lam^t with
lam < 1, the run is consistent with uniform hyperbolicity.  A numerical
check supports but cannot prove that property, so verdicts are worded
"consistent".
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import engine
from .errors import DomainError, VanishingJacobiField
from .geodesics import GeodesicPath, UnitTangent, flip, unit_tangent_from_direction
from .jacobi import MatrixJacobiSolution, _flow_norms, _ladder, _Sweeps
from .scenarios import ScenarioBounds, case_bound
from .warp import WarpSpec

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class AveragedCurvatureSeries:
    """Running averages (1/t) int_0^t K(gamma', J_i) ds for one field direction."""

    theta: UnitTangent
    direction: int
    times: np.ndarray
    values: np.ndarray

    def value_at(self, t: float) -> float:
        return float(np.interp(t, self.times, self.values))


@dataclass(frozen=True)
class EnvelopeFit:
    """Result of fitting f(t) <= C lam^t to a positive decay profile."""

    found: bool
    C: Optional[float]
    lam: Optional[float]
    r: Optional[float]
    submult_ok: bool
    submult_excess: float
    slack: float


@dataclass
class AnosovReport:
    """Outcome of an averaged-curvature consistency run."""

    scenario: str
    sample: dict
    B_est: float
    t0_est: float
    stable_envelope: EnvelopeFit
    unstable_envelope: EnvelopeFit
    verdict: str
    decay_bound_ok: Optional[bool] = None
    failures: list = field(default_factory=list)

    def json_dict(self) -> dict:
        se, ue = self.stable_envelope, self.unstable_envelope
        return {
            "scenario": self.scenario,
            "sample": self.sample,
            "B_est": self.B_est,
            "t0_est": self.t0_est,
            "envelopes": {"Cs": se.C, "ls": se.lam, "Cu": ue.C, "lu": ue.lam},
            "verdict": self.verdict,
            "decay_bound_ok": self.decay_bound_ok,
            "envelope_slack": se.slack,
            "failures": self.failures,
        }


# ---------------------------------------------------------------------------
# series and estimators
# ---------------------------------------------------------------------------


def _curvature_averages(y: np.ndarray, k: np.ndarray, weights: np.ndarray, times: np.ndarray) -> tuple:
    """Running averages of the plane curvature K(gamma', J) along J = Y w, per sample and direction.

    The modes y and their coefficients k have shape (nodes, m, M) on
    ``times``; ``weights`` (m, d, M) holds each direction's mode weights
    (p, q) = (c.w, |w - p c|).  J = Y w = p y1 c + y2 (w - p c), so
    |J| = hypot(p y1, q y2) and the plane curvature is
    (k1 (p y1)^2 + k2 (q y2)^2) / |J|^2.  Dividing both terms by the larger
    keeps the squares off the underflow floor while exponential decay runs
    through hundreds of orders of magnitude.  Returns the trapezoidal
    averages (nodes - 1, m, d) at times[1:], the norms |J| (nodes, m, d) and
    a per-sample flag for fields that vanish on the grid.
    """
    J = y[:, :, None, :] * weights
    scale = np.abs(J).max(axis=-1)
    degenerate = (scale == 0.0).any(axis=(0, 2))
    safe = np.where(scale == 0.0, 1.0, scale)
    J /= safe[..., None]
    J *= J
    den = J.sum(axis=-1)
    J *= k[:, :, None, :]
    with np.errstate(invalid="ignore"):  # 0/0 where a field vanishes, which ``degenerate`` flags
        kappa = J.sum(axis=-1) / den
    cum = np.cumsum(0.5 * (kappa[1:] + kappa[:-1]) * np.diff(times)[:, None, None], axis=0)
    averages = cum / (times[1:] - times[0])[:, None, None]
    return averages, safe * np.sqrt(den), degenerate


def averaged_curvature(
    path: GeodesicPath,
    green: MatrixJacobiSolution,
    w,
    t_grid: Optional[np.ndarray] = None,
) -> AveragedCurvatureSeries:
    """Running average of the plane curvature K(gamma'(s), J(s)) with J = Y w.

    ``green`` is a two-point or limit solution along ``path``.  Trapezoidal
    cumulative quadrature on the solution grid, optionally resampled onto
    ``t_grid``.
    """
    if green.modes is None:
        raise DomainError("averaged curvature needs a two-point or limit solution")
    idx0 = green.index_of(0.0)
    times = green.times[idx0:]
    y = green.modes[0][idx0:]
    k = path.curvatures[path.fine_indices(times), : y.shape[-1]]
    w, c = np.asarray(w, float), green.path.c
    p = c @ w
    weights = np.array([p, np.linalg.norm(w - p * c)])[: y.shape[-1]]
    averages, _, degenerate = _curvature_averages(y[:, None], k[:, None], weights[None, None], times)
    if degenerate[0]:
        raise VanishingJacobiField("Jacobi field vanished on the grid")
    ts, vals = times[1:], averages[:, 0, 0]
    if t_grid is not None:
        vals = np.interp(t_grid, ts, vals)
        ts = np.asarray(t_grid, float)
    return AveragedCurvatureSeries(theta=path.theta0, direction=0, times=ts, values=vals)


def estimate_B(series_list, t_min: float) -> tuple:
    """Uniform negative level estimate from a set of averaged series.

    B_est is minus the largest series value at the largest common time
    (required to be >= t_min); t0_est is the earliest time after which every
    series stays below -B_est.
    """
    if not series_list:
        raise DomainError("no series given")
    t_common = min(float(s.times[-1]) for s in series_list)
    if t_common < t_min:
        raise DomainError(f"series end at {t_common}, before t_min = {t_min}")
    B = -max(s.value_at(t_common) for s in series_list)
    t0 = 0.0
    eps = 1e-12 * (1.0 + abs(B))
    for s in series_list:
        mask = s.times <= t_common
        vals = s.values[mask]
        ts = s.times[mask]
        bad = vals > -B + eps
        if np.any(bad):
            last_bad = np.max(np.nonzero(bad)[0])
            if last_bad + 1 >= len(ts):
                t0 = max(t0, float(ts[-1]))
            else:
                t0 = max(t0, float(ts[last_bad + 1]))
    return float(B), float(t0)


def decay_envelope(times, values, slack: float = 0.05) -> EnvelopeFit:
    """Fit f(t) <= C lam^t from a sampled positive decay profile.

    Requires approximate submultiplicativity f(t+s) <= f(t) f(s) (within
    ``slack``, checked on grid pairs) and a grid time r with f(r) <= 1 -
    slack; the margin keeps sampling noise from faking a contraction.  When
    no such r exists the fit is reported as not found.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0.0):
        raise DomainError("decay profile must be positive")
    if abs(times[0]) > 1e-12:
        raise DomainError("profile must start at t = 0")

    # submultiplicativity on a deterministic lattice of index pairs
    excess = 0.0
    npts = len(times)
    stride = max(1, npts // 24)
    idx = np.arange(stride, npts // 2, stride)
    for i in idx:
        j = np.arange(stride, npts - 1 - i, stride)
        if len(j) == 0:
            continue
        ratio = values[i + j] / (values[i] * values[j])
        excess = max(excess, float(np.max(ratio)) - 1.0)
    submult_ok = excess <= slack

    below = np.nonzero((times > 0.0) & (values <= 1.0 - slack))[0]
    if len(below) == 0:
        return EnvelopeFit(
            found=False, C=None, lam=None, r=None,
            submult_ok=submult_ok, submult_excess=excess, slack=slack,
        )
    k = int(below[0])
    r = float(times[k])
    lam = float(values[k] ** (1.0 / r))
    upto = times <= r + 1e-12
    C = float(np.max(values[upto] / lam ** times[upto]))
    return EnvelopeFit(
        found=True, C=C, lam=lam, r=r,
        submult_ok=submult_ok, submult_excess=excess, slack=slack,
    )


# ---------------------------------------------------------------------------
# start-data sampling
# ---------------------------------------------------------------------------


def direction_covering(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic covering of the unit sphere in R^dim, poles included.

    dim = 2 uses equispaced angles, dim = 3 a Fibonacci lattice plus the two
    poles, higher dims a seeded Gaussian covering plus the poles.  Points come
    in antipodal pairs, so the set is symmetric under negation when ``count``
    is even; an odd count drops the negative of the last point.  A prefix of
    the set, as :func:`sample_thetas` takes for its last x block, is in
    general not symmetric.
    """
    if count < 2:
        raise DomainError("need at least the two poles")
    poles = np.zeros((2, dim))
    poles[0, 0] = 1.0
    poles[1, 0] = -1.0
    inner = count - 2
    if inner <= 0:
        return poles
    if dim == 2:
        # symmetric pairs of angles, poles excluded
        half = (inner + 1) // 2
        ang = np.pi * (np.arange(1, half + 1)) / (half + 1)
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        pts = np.concatenate([pts, -pts], axis=0)[:inner]
    elif dim == 3:
        half = (inner + 1) // 2
        k = np.arange(half)
        z = 1.0 - (2.0 * k + 1.0) / (2.0 * half + 1.0)
        phi = 2.0 * np.pi * _GOLDEN * (k + 1)
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        pts = np.stack([z, rho * np.cos(phi), rho * np.sin(phi)], axis=1)
        pts = np.concatenate([pts, -pts], axis=0)[:inner]
    else:
        rng = np.random.RandomState(seed)
        half = (inner + 1) // 2
        raw = rng.standard_normal((half, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        pts = np.concatenate([raw, -raw], axis=0)[:inner]
    return np.concatenate([poles, pts], axis=0)


def sample_thetas(
    spec: WarpSpec,
    count: int,
    seed: int = 0,
    *,
    x_span: Optional[float] = None,
    directions: int = 0,
) -> tuple:
    """Deterministic start-data sample: low-discrepancy x, sphere-covered velocities.

    Base points take y = 0 (the flat fiber is homogeneous) and x from a
    golden-ratio sequence over one period, or over [0, x_span] when the warp
    is not periodic.  Each x takes the ``directions`` velocities of
    :func:`direction_covering` in turn, and the last x only as many as
    ``count`` leaves.  So the flipped start data stay inside the sample when
    ``count`` is a multiple of an even ``directions``; otherwise the last
    block lacks the negatives of some of its velocities: with n = 3 (14
    directions) and ``count`` = 20, 16 of the 20 flipped data are in the
    sample.  Returns (thetas, description).
    """
    dim = spec.n + 1
    if directions <= 0:
        directions = {2: 8, 3: 14}.get(dim, 2 * dim + 6)
    directions = min(directions, count)
    nx = int(np.ceil(count / directions))
    if x_span is None:
        x_span = float(spec.period) if spec.period is not None else 50.0
    offset = (seed * _GOLDEN) % 1.0
    xs = ((np.arange(1, nx + 1) * _GOLDEN + offset) % 1.0) * x_span
    dirs = direction_covering(dim, directions, seed=seed)
    thetas = []
    for x0 in xs:
        for v in dirs:
            thetas.append(unit_tangent_from_direction(spec, x0, np.zeros(spec.n), v[0], v[1:]))
            if len(thetas) == count:
                break
        if len(thetas) == count:
            break
    desc = {
        "seed": int(seed),
        "count": int(len(thetas)),
        "x_span": float(x_span),
        "directions": int(directions),
    }
    return thetas, desc


# ---------------------------------------------------------------------------
# batched pipeline
# ---------------------------------------------------------------------------


def _datum_key(theta: UnitTangent) -> tuple:
    """Coordinates (x, y, dx, dy) of a start datum as floats, so -0.0 and 0.0 compare equal."""
    return (float(theta.x), *theta.y.tolist(), float(theta.dx), *theta.dy.tolist())


def _sasaki_mode_weights(c: np.ndarray, yp0: np.ndarray) -> np.ndarray:
    """Mode weights (p, q) (m, n, M) of the Sasaki-orthonormal directions w_d of limit solutions.

    The w_d are the columns of (I + U^T U)^(-1/2) = a1 c c^T + a2 (I - c c^T),
    a_k = (1 + y_k'(0)^2)^(-1/2), so p_d = a1 c_d and q_d = a2 |e_d - c_d c|;
    |e_d - c_d c|^2 is the sum of the other c_j^2, summed without cancellation.
    """
    a = 1.0 / np.sqrt(1.0 + yp0 * yp0)
    sq = c * c
    zero = np.zeros_like(sq[:, :1])
    before = np.cumsum(np.concatenate([zero, sq[:, :-1]], axis=1), axis=1)
    after = np.cumsum(np.concatenate([zero, sq[:, :0:-1]], axis=1), axis=1)[:, ::-1]
    weights = np.stack([a[:, :1] * c, a[:, -1:] * np.sqrt(before + after)], axis=-1)
    return weights[..., : yp0.shape[-1]]


def _chunk_pipeline(spec, thetas, *, step, horizon, green_tol, green_r0, green_max_doublings,
                    drift_tol, series_stride):
    """Forward pass + stable ladder + reductions for one bundle of start data."""
    m = len(thetas)
    x0 = np.array([th.x for th in thetas])
    vel = [th.frame_velocity(spec) for th in thetas]
    u00 = np.array([v[0] for v in vel])
    u0v = np.stack([v[1] for v in vel])

    n_coarse = int(round(horizon / step))
    w = n_coarse + 1

    state, e = engine.slice_state(x0, u00, u0v)
    run = engine.integrate_states(
        spec, state, e, t0=0.0, t1=round(green_r0 / step) * step, step=step, store=False
    )
    # per node (k1, k2); the Jacobi data stay the scalar modes of K = k2 I + (k1 - k2) c c^T
    sweeps = _Sweeps(spec, step, e, run["curvatures"][..., : min(spec.n, 2)], 0, [state, run["final_state"]],
                     (0, n_coarse), run["max_unit_defect"])
    del run  # the sweeps hold the only reference to the first table
    (y, yp), _, gaps_hist = _ladder(sweeps.solve, m, green_r0, step, green_max_doublings, green_tol)
    max_unit = sweeps.max_unit

    final_gaps = gaps_hist[-1]
    green_ok = final_gaps < green_tol
    drifted = max_unit > drift_tol

    times = step * np.arange(w)
    weights = _sasaki_mode_weights(engine.start_frame(u00, u0v)[1], yp[0])
    averages, Jnorm, degenerate = _curvature_averages(y, sweeps.table[: 2 * n_coarse + 1 : 2], weights, times)
    norms = _flow_norms(y, yp, 0)

    sidx = np.unique(np.concatenate([np.arange(0, w, series_stride), [w - 1]]))
    sidx_pos = sidx[sidx > 0]
    return {
        "times": times,
        "series_times": times[sidx_pos],
        "series_values": averages[sidx_pos - 1],
        "Jnorms_times": times[sidx],
        "Jnorms": Jnorm[sidx],
        "norms": norms,
        "green_ok": green_ok,
        "green_gap": final_gaps,
        "degenerate": degenerate,
        "drifted": drifted,
        "max_unit_defect": max_unit,
    }


def contraction_check(
    series_list,
    stable_profile,
    unstable_profile,
    c: float,
    t_min: float,
    *,
    slack: float = 0.05,
    field_norm_tables=None,
    scenario: str = "",
    sample_desc=None,
    failures=None,
) -> AnosovReport:
    """Assemble the verdict from series, norm profiles and the curvature bound c.

    ``stable_profile``/``unstable_profile`` are (times, values) pairs of
    sampled sup norms of the flow derivative on the candidate subspaces;
    verdict is consistent only if both admit genuine decay envelopes and the
    estimated level B is positive.
    """
    failures = failures or []
    sample_desc = dict(sample_desc or {})
    sample_desc.setdefault("t_min", t_min)
    try:
        B, t0 = estimate_B(series_list, t_min)
    except DomainError:
        return AnosovReport(
            scenario=scenario, sample=sample_desc, B_est=float("nan"), t0_est=float("nan"),
            stable_envelope=EnvelopeFit(False, None, None, None, False, np.inf, slack),
            unstable_envelope=EnvelopeFit(False, None, None, None, False, np.inf, slack),
            verdict="inconclusive", failures=failures,
        )

    def fit(profile):
        times, values = profile
        if values is None or len(values) == 0:
            # no certified norm data: contraction is unsupported
            return EnvelopeFit(False, None, None, None, False, np.inf, slack)
        keep = values > 0.0
        if not np.all(keep):
            last = np.nonzero(keep)[0]
            hi = int(last[-1]) + 1 if len(last) else 1
            times, values = times[:hi], values[:hi]
        return decay_envelope(times, values, slack=slack)

    stable_env = fit(stable_profile)
    unstable_env = fit(unstable_profile)

    decay_ok = None
    if B > 0.0 and field_norm_tables is not None and c > 0.0:
        rate = B / (4.0 * c)
        decay_ok = True
        for times, norms in field_norm_tables:
            i0 = int(np.searchsorted(times, t0))
            if i0 >= len(times):
                continue
            ref = norms[i0]
            bound = (1.0 + slack) * ref * np.exp(-rate * (times[i0:] - times[i0]))
            if np.any(norms[i0:] > bound + 1e-12):
                decay_ok = False

    if B <= 0.0:
        verdict = "not_anosov_consistent"
    elif (
        stable_env.found and stable_env.submult_ok and stable_env.lam < 1.0
        and unstable_env.found and unstable_env.submult_ok and unstable_env.lam < 1.0
    ):
        verdict = "anosov_consistent"
    else:
        verdict = "not_anosov_consistent"

    return AnosovReport(
        scenario=scenario, sample=sample_desc, B_est=B, t0_est=t0,
        stable_envelope=stable_env, unstable_envelope=unstable_env,
        verdict=verdict, decay_bound_ok=decay_ok, failures=failures,
    )


@dataclass
class AnosovCheckResult:
    report: AnosovReport
    series: list
    stable_profile: tuple
    unstable_profile: tuple
    bounds_check: Optional[dict] = None


def run_anosov_check(
    spec: WarpSpec,
    *,
    step: float = 0.02,
    seed: int = 0,
    samples: int = 112,
    t_min: float = 200.0,
    horizon: float = 220.0,
    green_tol: float = 1e-8,
    green_r0: Optional[float] = None,
    green_max_doublings: int = 12,
    envelope_slack: float = 0.05,
    drift_tol: float = 1e-5,
    workers: int = 1,
    chunk_size: int = 28,
    bounds: Optional[ScenarioBounds] = None,
) -> AnosovCheckResult:
    """End-to-end averaged-curvature consistency check over a start-data sample.

    Stable data come from the sample itself; unstable data reuse the stable
    construction along the velocity-reversed sample (the flip involution
    conjugates the two).  A flipped datum that equals a base datum is
    integrated once and its results serve both sides.  The distinct data are
    cut into chunks of ``chunk_size``, run one after the other; the ladder
    and the sweep rescaling decide per sample, so per-sample results do not
    depend on ``chunk_size``.  Each sample's ladder runs at most
    ``green_max_doublings`` doublings from ``green_r0`` and stops sooner,
    as a ``green_gap`` failure, once its bounds' decay cannot reach
    ``green_tol`` in the doublings left (see :func:`~warpflow.jacobi._ladder`).
    ``workers`` is accepted for compatibility and starts no threads.
    """
    horizon = round(horizon / step) * step
    if not horizon > 0:
        raise DomainError("horizon must be positive")
    if green_r0 is None:
        green_r0 = horizon + 16.0
    if round(green_r0 / step) <= round(horizon / step):
        # the first leg would end inside the output window, leaving its nodes past r0 unswept
        raise DomainError(f"green_r0 = {green_r0} must lie beyond the horizon {horizon}")
    x_span = None if spec.period is not None else max(10.0, horizon / 2.0)
    base, desc = sample_thetas(spec, samples, seed, x_span=x_span)
    batch = base + [flip(th) for th in base]
    m = len(base)
    # each distinct start datum is integrated once, in order of first
    # appearance; ``index`` maps the 2m sample order to the distinct list
    slots = {}
    index = np.array([slots.setdefault(_datum_key(th), len(slots)) for th in batch])
    distinct = [batch[i] for i in np.unique(index, return_index=True)[1]]
    chunks = [distinct[i : i + chunk_size] for i in range(0, len(distinct), chunk_size)]

    kwargs = dict(
        step=step, horizon=horizon, green_tol=green_tol, green_r0=green_r0,
        green_max_doublings=green_max_doublings, drift_tol=drift_tol,
        series_stride=max(1, int(round(0.5 / step))),
    )
    results = [_chunk_pipeline(spec, ch, **kwargs) for ch in chunks]

    # stitch chunk outputs together and gather them into the 2m sample order
    def gather(key, axis=0):
        return np.concatenate([r[key] for r in results], axis=axis).take(index, axis=axis)

    norms = gather("norms", axis=1)
    series_vals = gather("series_values", axis=1)
    jnorms = gather("Jnorms", axis=1)
    green_ok = gather("green_ok")
    green_gap = gather("green_gap")
    degenerate = gather("degenerate")
    drifted = gather("drifted")
    unit_defects = gather("max_unit_defect")
    stimes = results[0]["series_times"]
    jtimes = results[0]["Jnorms_times"]
    times = results[0]["times"]

    failures = []
    for idx in range(len(batch)):
        tag = idx if idx < m else idx - m
        side = "stable" if idx < m else "flip"
        if not green_ok[idx]:
            failures.append(
                {"theta": int(tag), "side": side, "kind": "green_gap", "value": float(green_gap[idx])}
            )
        if drifted[idx]:
            failures.append(
                {"theta": int(tag), "side": side, "kind": "integrator_drift", "value": float(unit_defects[idx])}
            )
        if degenerate[idx]:
            failures.append({"theta": int(tag), "side": side, "kind": "vanishing_field", "value": 0.0})

    keep = ~degenerate & ~drifted
    series = []
    tables = []
    for s in range(m):
        if not keep[s]:
            continue
        for d in range(spec.n):
            series.append(
                AveragedCurvatureSeries(
                    theta=base[s], direction=d, times=stimes, values=series_vals[:, s, d]
                )
            )
            tables.append((jtimes, jnorms[:, s, d]))

    # Capped two-point iterates underestimate the limit-solution norms
    # (Riccati monotonicity for K <= 0), so only samples whose bracket bound
    # is below green_tol certify a contraction profile.
    certified = keep & green_ok

    def profile(sl):
        mask = certified[sl]
        if not np.any(mask):
            return (times, None)
        return (times, np.max(norms[:, sl][:, mask], axis=1))

    stable_profile = profile(slice(0, m))
    unstable_profile = profile(slice(m, 2 * m))

    report = contraction_check(
        series, stable_profile, unstable_profile,
        c=float(np.sqrt(spec.curvature_bound())), t_min=t_min,
        slack=envelope_slack, field_norm_tables=tables,
        scenario=spec.params.get("kind", spec.name),
        sample_desc={**desc, "t_min": t_min, "horizon": horizon},
        failures=failures,
    )
    if not series:
        report.verdict = "inconclusive"

    bcheck = None if bounds is None else dominance_check(bounds, base, series, tol=1e-3)
    return AnosovCheckResult(
        report=report, series=series, stable_profile=stable_profile,
        unstable_profile=unstable_profile, bounds_check=bcheck,
    )


def dominance_check(bounds: ScenarioBounds, thetas, series_list, tol: float = 1e-3) -> dict:
    """Compare measured averages against the case bounds for every admissible time."""
    worst = -np.inf
    checked = 0
    by_theta = {}
    for s in series_list:
        b0 = float(s.theta.dx)
        for i, t in enumerate(s.times):
            bound = case_bound(bounds, b0, float(t))
            if bound is None:
                continue
            checked += 1
            worst = max(worst, float(s.values[i]) - bound)
    return {"checked": int(checked), "max_excess": float(worst), "tol": tol, "ok": bool(worst <= tol)}
