"""Command-line runner: curvature tables, trajectories, Jacobi data, verdicts."""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import jacobi
from .config import RunConfig, build_config
from .criterion import run_anosov_check
from .errors import DomainError, GreenNotConverged, IntegratorDrift
from .geodesics import integrate_geodesic, unit_tangent_from_direction
from .geometry import TangentVector, sectional_curvature
from .reports import write_csv, write_json
from .scenarios import SCENARIOS, build_scenario, scenario_bounds

# preset keys that also apply to a single green solve
_GREEN_PRESET_KEYS = ("step", "green_tol", "green_max_doublings", "drift_tol")


def _spec_from(cfg: RunConfig):
    return build_scenario(cfg.scenario, a=cfg.a, k=cfg.k, n=cfg.n)


def _theta_from(cfg: RunConfig, spec):
    b0 = cfg.b0
    rest = float(np.sqrt(max(0.0, 1.0 - b0 * b0)))
    u = np.zeros(spec.n)
    u[0] = rest
    return unit_tangent_from_direction(spec, cfg.x0, np.zeros(spec.n), b0, u)


def cmd_curvature(cfg: RunConfig) -> int:
    spec = _spec_from(cfg)
    rng = np.random.RandomState(cfg.seed)
    lo, hi = spec.sample_window()
    n = spec.n
    xs, vecs, Ks = np.empty(cfg.samples), np.empty((cfg.samples, 2, n + 1)), np.empty(cfg.samples)
    for i in range(cfg.samples):
        xs[i] = x0 = float(rng.uniform(lo, hi))
        vecs[i] = rng.standard_normal((2, n + 1))
        y0 = np.zeros(n)
        u, w = (TangentVector(x=x0, y=y0, dx=v[0], dy=v[1:]) for v in vecs[i])
        Ks[i] = sectional_curvature(spec, (x0, y0), u, w)
    cols = (
        ["x", "u_dx"] + [f"u_dy{i+1}" for i in range(n)]
        + ["w_dx"] + [f"w_dy{i+1}" for i in range(n)] + ["K"]
    )
    path = write_csv(f"{cfg.out}/curvature.csv", cols, [[xs, *vecs[:, 0].T, *vecs[:, 1].T, Ks]],
                     cfg.resolved_dict())
    print(f"wrote {path} ({cfg.samples} planes)")
    return 0


def cmd_geodesic(cfg: RunConfig) -> int:
    spec = _spec_from(cfg)
    theta = _theta_from(cfg, spec)
    path = integrate_geodesic(spec, theta, cfg.t_end, cfg.step, drift_tol=cfg.drift_tol)
    n = spec.n
    mom_defect = path.momentum_defect_series()
    u = path.u[::2]
    g = spec.log_derivatives(path.x[::2])[0]
    with np.errstate(over="ignore"):
        dy = np.where(u == 0.0, 0.0, np.exp(-g)[:, None] * u)
    columns = [path.times, path.x[::2], *np.mod(path.y[::2], 2.0 * np.pi).T, path.u0[::2],
               *dy.T, path.unit_defect[::2], mom_defect[::2]]
    cols = (
        ["t", "x"] + [f"y{i+1}" for i in range(n)]
        + ["dx"] + [f"dy{i+1}" for i in range(n)] + ["defect_unit", "defect_momentum"]
    )
    out = write_csv(f"{cfg.out}/trajectory.csv", cols, [columns], cfg.resolved_dict())
    print(f"wrote {out} ({len(path.times)} nodes)")
    return 0


def _solution_columns(sol):
    n, count = sol.n, len(sol.times)
    cols = (
        ["t"]
        + [f"Y{i}{j}" for i in range(n) for j in range(n)]
        + [f"Yp{i}{j}" for i in range(n) for j in range(n)]
    )
    return cols, [sol.times, *sol.Y.reshape(count, n * n).T, *sol.Yp.reshape(count, n * n).T]


def cmd_jacobi(cfg: RunConfig) -> int:
    spec = _spec_from(cfg)
    theta = _theta_from(cfg, spec)
    path = integrate_geodesic(spec, theta, cfg.t_end, cfg.step, drift_tol=cfg.drift_tol)
    sol = jacobi.solve_jacobi_ivp(path, np.eye(spec.n), np.zeros((spec.n, spec.n)))
    cols, columns = _solution_columns(sol)
    out = write_csv(f"{cfg.out}/jacobi.csv", cols, [columns], cfg.resolved_dict())
    print(f"wrote {out}")
    return 0


def cmd_green(cfg: RunConfig) -> int:
    preset = SCENARIOS[cfg.scenario].preset
    cfg.apply_preset({key: preset[key] for key in _GREEN_PRESET_KEYS})
    spec = _spec_from(cfg)
    theta = _theta_from(cfg, spec)
    # the ladder's window [0, t_obs] is the path, integrated once and drift-checked
    path = integrate_geodesic(spec, theta, cfg.green_t_obs, cfg.step, drift_tol=cfg.drift_tol)
    converged = True
    try:
        sol = jacobi.green_stable(
            path, cfg.green_t_obs, cfg.green_tol,
            r0=cfg.green_r0, max_doublings=cfg.green_max_doublings,
        )
    except GreenNotConverged as exc:
        sol = exc.last_solution
        converged = False
    payload = {
        "r_ladder": sol.meta["r_ladder"],
        "final_gap": sol.meta["final_gap"],
        "Us0": sol.meta["Us0"],
        "converged": converged,
    }
    out = write_json(f"{cfg.out}/green.json", payload, cfg.resolved_dict())
    cols, columns = _solution_columns(sol)
    write_csv(f"{cfg.out}/green.csv", cols, [columns], cfg.resolved_dict())
    print(f"wrote {out} (converged={converged})")
    return 0


def cmd_anosov_check(cfg: RunConfig) -> int:
    cfg.apply_preset(SCENARIOS[cfg.scenario].preset).validate()
    spec = _spec_from(cfg)
    bounds = None
    if cfg.scenario == "anosov-warped-torus":
        bounds = scenario_bounds(spec)
    result = run_anosov_check(
        spec,
        step=cfg.step, seed=cfg.seed, samples=cfg.samples,
        t_min=cfg.t_min, horizon=cfg.horizon,
        green_tol=cfg.green_tol, green_max_doublings=cfg.green_max_doublings,
        # unset, the check takes its default r0 = horizon + 16
        green_r0=cfg.green_r0 if "green_r0" in cfg._explicit else None,
        envelope_slack=cfg.envelope_slack, drift_tol=cfg.drift_tol,
        # unset, the check sizes its batches by bytes
        chunk_size=cfg.chunk_size if "chunk_size" in cfg._explicit else None, bounds=bounds,
    )
    report = result.report
    payload = report.json_dict()
    if result.bounds_check is not None:
        payload["case_dominance"] = result.bounds_check
    out = write_json(f"{cfg.out}/anosov_report.json", payload, cfg.resolved_dict())
    # one block per series; the series share one times array, rendered once
    blocks = [(k, s.direction, s.theta.x, s.theta.dx, s.times, s.values) for k, s in enumerate(result.series)]
    write_csv(f"{cfg.out}/anosov_series.csv", ["series", "direction", "x0", "b0", "t", "value"], blocks,
              cfg.resolved_dict())
    print(f"wrote {out}")
    print(f"verdict: {report.verdict} (B_est={report.B_est:.6g}, t0_est={report.t0_est:.6g})")
    return 0


def cmd_scenario_bounds(cfg: RunConfig) -> int:
    spec = _spec_from(cfg)
    report = spec.condition_report()
    payload = {
        "scenario": cfg.scenario,
        "conditions": {
            "min_h": report.min_h,
            "max_h": report.max_h,
            "min_gp": report.min_gp,
            "max_gp": report.max_gp,
            "periodicity_defect": report.periodicity_defect,
            "a_ok": report.a_ok,
            "b_ok": report.b_ok,
            "c_ok": report.c_ok,
        },
        "c_squared": spec.curvature_bound(),
    }
    if spec.period is not None and spec.growth_bounds is not None:
        b = scenario_bounds(spec)
        payload["bounds"] = {
            "T": b.T, "eta": b.eta, "C1": b.C1, "C2": b.C2,
            "slow_entry": b.slow_entry,
            "case1_bound": b.case1_bound, "case2_bound": b.case2_bound,
            "case3_bound": b.case3_bound, "final_bound": b.final_bound,
            "case3_threshold": b.case3_threshold, "case4_threshold": b.case4_threshold,
        }
    out = write_json(f"{cfg.out}/scenario_bounds.json", payload, cfg.resolved_dict())
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpflow",
        description="Geodesic flows, Jacobi fields and averaged-curvature checks "
        "for warped metrics on R x T^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="sectioned key=value config file")
    common.add_argument("--scenario", choices=list(SCENARIOS))
    common.add_argument("--a", type=float, help="growth slope of the periodic warp")
    common.add_argument("--k", type=float, help="slope of the constant-curvature warp")
    common.add_argument("--n", type=int, help="torus dimension")
    common.add_argument("--step", type=float, help="integrator step")
    common.add_argument("--seed", type=int, help="sampling seed")
    common.add_argument("--samples", type=int, help="number of sampled start data / planes")
    common.add_argument("--tmin", dest="t_min", type=float, help="time floor of the averaging window")
    common.add_argument("--horizon", type=float, help="time ceiling of the run")
    common.add_argument("--out", help="output directory")
    common.add_argument(
        "--workers", type=int,
        help="accepted for compatibility; starts no threads: the start data run in sequential "
             "batches sized by a byte budget (at most chunk_size data when a config file sets it), "
             "a flipped datum equal to a sampled one is integrated once, and results do not depend "
             "on the batches",
    )
    common.add_argument("--x0", type=float, help="start base coordinate")
    common.add_argument("--b0", type=float, help="start forward speed in [-1, 1]")
    common.add_argument("--tend", dest="t_end", type=float, help="trajectory end time")
    common.add_argument("--tobs", dest="green_t_obs", type=float, help="observation window of limit solutions")
    common.add_argument("--green-tol", dest="green_tol", type=float, help="ladder convergence tolerance")

    for name, fn in (
        ("curvature", cmd_curvature),
        ("geodesic", cmd_geodesic),
        ("jacobi", cmd_jacobi),
        ("green", cmd_green),
        ("anosov-check", cmd_anosov_check),
        ("scenario-bounds", cmd_scenario_bounds),
    ):
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(func=fn)
    return parser


_FLAG_KEYS = (
    "scenario", "a", "k", "n", "step", "seed", "samples", "t_min", "horizon",
    "out", "workers", "x0", "b0", "t_end", "green_t_obs", "green_tol",
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    mapping = {key: getattr(args, key, None) for key in _FLAG_KEYS}
    try:
        return args.func(build_config(args.config, mapping))
    except (DomainError, IntegratorDrift, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
