"""The benchmark workloads: inputs made from a seed, the timed operation, its check.

An operation is one ``anosov-check`` run, one conservation scan of one
scenario, or one single-path request.  A workload's operations repeat in
rounds of ``round_size``; every round of one seed has the same inputs, so
counts taken over a round repeat exactly.  Why each workload exists is in
perfbench/README.md.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import checks

# Check workloads draw the sample seed of ``anosov-check`` from this pool;
# references.json holds the reference output of each.
SAMPLE_SEEDS = 8
# The presets' step, green_tol and doubling limit are kept; t_min and the
# horizon are cut to an eighth (periodic) and a quarter (counterexample) of
# the presets', so that one check takes seconds and a run holds several.
PERIODIC_ARGS = (
    "anosov-check", "--scenario", "anosov-warped-torus", "--a", "3", "--n", "2",
    "--samples", "14", "--workers", "2", "--tmin", "25", "--horizon", "27.5",
)
COUNTER_ARGS = (
    "anosov-check", "--scenario", "counterexample-sqrt", "--n", "3",
    "--samples", "20", "--workers", "2", "--tmin", "25", "--horizon", "30",
)
# counterexample: "B_est near 0"
COUNTER_MAX_ABS_B = 1e-3

SCAN_SAMPLES = 100
SCAN_T_END = 2.0
SCAN_STEP = 1e-3

PATH_STEP = 0.01
PATH_T_OBS = 8.0
PATH_RICCATI_T_MAX = 2.0
PATH_GREEN_TOL = 1e-8


@dataclass(frozen=True)
class Op:
    label: str
    data: dict


def _arg(args, flag):
    return args[args.index(flag) + 1]


class CheckWorkload:
    """``warpflow anosov-check`` called in-process through ``cli.main``."""

    round_size = 1
    workers = 2

    def __init__(self, name: str, why: str, args: tuple, bounds: bool, max_abs_B=None):
        self.name = name
        self.why = why
        self.args = args
        self.scenario = _arg(args, "--scenario")
        self.n = int(_arg(args, "--n"))
        self.samples = int(_arg(args, "--samples"))
        self.horizon = float(_arg(args, "--horizon"))
        self.max_abs_B = max_abs_B
        scenario_kwargs = {"n": self.n}
        if "--a" in args:
            scenario_kwargs["a"] = float(_arg(args, "--a"))
        self.setup_scenarios = [(self.scenario, scenario_kwargs, bounds)]

    def ops(self, seed: int, count: int) -> list:
        return [
            Op(f"sample_seed={(seed + i) % SAMPLE_SEEDS}", {"sample_seed": (seed + i) % SAMPLE_SEEDS})
            for i in range(count)
        ]

    def prepare(self, wf, out_dir: Path, seed: int):
        return SimpleNamespace(wf=wf, out=out_dir / "report")

    def execute(self, op: Op, state):
        argv = [*self.args, "--seed", str(op.data["sample_seed"]), "--out", str(state.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return state.wf.cli.main(argv)

    def read_report(self, state) -> dict:
        return json.loads((state.out / "anosov_report.json").read_text(encoding="utf-8"))

    def check(self, op: Op, output, state, references: dict) -> list:
        if output != 0:
            return [f"anosov-check exited with {output}"]
        ref = references[self.name][str(op.data["sample_seed"])]
        return checks.check_anosov_report(self.read_report(state), ref)

    def reference_entry(self, report: dict) -> dict:
        entry = {
            "verdict": report["verdict"],
            "B_est": report["B_est"],
            "failures": checks.failure_kinds(report),
        }
        if "case_dominance" in report:
            entry["case_dominance_ok"] = report["case_dominance"]["ok"]
        if self.max_abs_B is not None:
            entry["max_abs_B"] = self.max_abs_B
        return entry

    def input_counts(self, wf, op: Op) -> dict:
        """Counts fixed by the inputs: trajectories, chunks and flip duplicates.

        The sample is drawn as ``run_anosov_check`` draws it, and a flipped
        start datum is a duplicate when every coordinate equals a base
        datum's (as floats, so -0.0 equals 0.0).
        """
        spec = wf.scenarios.build_scenario(self.scenario, **self.setup_scenarios[0][1])
        x_span = None if spec.period is not None else max(10.0, self.horizon / 2.0)
        base, _ = wf.criterion.sample_thetas(spec, self.samples, op.data["sample_seed"], x_span=x_span)

        def key(th):
            return (float(th.x), float(th.dx), *th.y.tolist(), *th.dy.tolist())

        base_keys = {key(th) for th in base}
        flipped = [key(wf.geodesics.flip(th)) for th in base]
        trajectories = 2 * len(base)
        chunk = wf.config.RunConfig().chunk_size
        return {
            "workload.n": spec.n,
            "criterion.trajectories": trajectories,
            "criterion.chunks": math.ceil(trajectories / chunk),
            "criterion.flip_duplicate_share": sum(k in base_keys for k in flipped) / len(flipped),
            "criterion.distinct_over_integrated": len(base_keys | set(flipped)) / trajectories,
        }

    def output_counts(self, op: Op, state) -> dict:
        return checks.failure_counts(self.read_report(state))


def _unchunked_counts(n: int, trajectories: int) -> dict:
    """Input counts of an operation outside ``run_anosov_check``: no chunks, no flips."""
    return {"workload.n": n, "criterion.trajectories": trajectories, "criterion.chunks": 0,
            "criterion.flip_duplicate_share": 0.0, "criterion.distinct_over_integrated": 1.0}


class ConservationScan:
    """``engine.conservation_scan`` with criterion 5's inputs over a shorter t_end."""

    name = "conservation-scan"
    why = ("the RK4 kernel used as a streaming state-only scan (m = 100, step 1e-3): "
           "frame, K, sweeps, reductions and reports idle")
    workers = 1
    scenarios = ("anosov-warped-torus", "counterexample-sqrt", "constant-curvature")
    round_size = len(scenarios)
    setup_scenarios = [(name, {"a": 3.0, "k": 1.0, "n": 2}, False) for name in scenarios]

    def ops(self, seed: int, count: int) -> list:
        return [Op(f"scenario={self.scenarios[i % 3]}", {"scenario": self.scenarios[i % 3]})
                for i in range(count)]

    def prepare(self, wf, out_dir: Path, seed: int):
        """Start data as criterion 5 draws them: one RandomState, scenarios in order."""
        import numpy as np

        rng = np.random.RandomState(seed)
        specs, inputs = {}, {}
        for name, kwargs, _ in self.setup_scenarios:
            specs[name] = wf.scenarios.build_scenario(name, **kwargs)
            lo, hi = specs[name].sample_window()
            x0 = rng.uniform(lo, hi, size=SCAN_SAMPLES)
            raw = rng.standard_normal((SCAN_SAMPLES, 3))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            inputs[name] = (x0, np.zeros((SCAN_SAMPLES, 2)), raw[:, 0], raw[:, 1:])
        return SimpleNamespace(wf=wf, specs=specs, inputs=inputs)

    def execute(self, op: Op, state):
        name = op.data["scenario"]
        x0, y0, u00, u = state.inputs[name]
        return state.wf.engine.conservation_scan(
            state.specs[name], x0, y0, u00, u, t_end=SCAN_T_END, step=SCAN_STEP
        )

    def check(self, op: Op, output, state, references: dict) -> list:
        unit, mom = output
        return checks.check_conservation(float(unit.max()), float(mom.max()))

    def input_counts(self, wf, op: Op) -> dict:
        return _unchunked_counts(2, SCAN_SAMPLES)

    def output_counts(self, op: Op, state) -> dict:
        return checks.failure_counts({})


class SinglePath:
    """The README library tour at m = 1 for seeded random start data."""

    name = "single-path"
    why = ("the single-sample geodesics/jacobi API at m = 1, where per-call overhead "
           "dominates; the only workload that extends a path")
    workers = 1
    round_size = 4
    setup_scenarios = [("anosov-warped-torus", {"a": 3.0, "n": 2}, False)]

    def ops(self, seed: int, count: int) -> list:
        return [Op(f"request={i % self.round_size}", {"request": i % self.round_size})
                for i in range(count)]

    def prepare(self, wf, out_dir: Path, seed: int):
        """Start data uniform over one period in x, uniform on the unit sphere in velocity."""
        import numpy as np

        spec = wf.scenarios.build_scenario("anosov-warped-torus", a=3.0, n=2)
        rng = np.random.RandomState(seed)
        lo, hi = spec.sample_window()
        inputs = []
        for _ in range(self.round_size):
            x0 = float(rng.uniform(lo, hi))
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            inputs.append((x0, float(v[0]), v[1:]))
        return SimpleNamespace(wf=wf, spec=spec, inputs=inputs, np=np)

    def execute(self, op: Op, state):
        wf, spec, np = state.wf, state.spec, state.np
        x0, b0, u = state.inputs[op.data["request"]]
        theta = wf.geodesics.unit_tangent_from_direction(spec, x0, np.zeros(2), b0, u)
        path = wf.geodesics.integrate_geodesic(spec, theta, PATH_T_OBS, PATH_STEP)
        try:
            stable = wf.jacobi.green_stable(path, t_obs=PATH_T_OBS, tol=PATH_GREEN_TOL)
            converged = True
        except wf.errors.GreenNotConverged as exc:
            stable, converged = exc.last_solution, False
        w = wf.jacobi.sasaki_orthonormal_directions(stable.meta["Us0"])[:, 0]
        series = wf.criterion.averaged_curvature(path, stable, w)
        riccati = wf.jacobi.riccati_along(stable, w, t_max=PATH_RICCATI_T_MAX)
        norms = wf.jacobi.dphi_norm_series(stable)
        return converged, series, riccati, norms

    def check(self, op: Op, output, state, references: dict) -> list:
        converged, series, riccati, _ = output
        return checks.check_single_path(converged, riccati.max_residual(), float(series.values.max()))

    def input_counts(self, wf, op: Op) -> dict:
        return _unchunked_counts(2, 1)

    def output_counts(self, op: Op, state) -> dict:
        return checks.failure_counts({})


WORKLOADS = {
    w.name: w
    for w in (
        CheckWorkload(
            "periodic-check",
            "anosov-check on the periodic warp: one chunk (pool idle), kernel-bound, "
            "every flipped datum a duplicate",
            PERIODIC_ARGS, bounds=True,
        ),
        CheckWorkload(
            "counterexample-check",
            "anosov-check at n = 3: two chunks on two threads, three rungs, every ladder "
            "unconverged",
            COUNTER_ARGS, bounds=False, max_abs_B=COUNTER_MAX_ABS_B,
        ),
        ConservationScan(),
        SinglePath(),
    )
}
