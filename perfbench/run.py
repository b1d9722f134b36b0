"""warpflow benchmark: run one workload for a fixed time, check its outputs, print metrics.

    python3 perfbench/run.py --workload periodic-check --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics from a run with every warpflow module wrapped from
outside.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Run from the root of a checkout;
see perfbench/README.md.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
MAX_ROUNDS = 1000
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("warp", "geometry", "engine", "geodesics", "jacobi", "criterion",
           "scenarios", "config", "cli", "reports", "errors")


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def load_metric_table() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def is_timing(name: str) -> bool:
    """Per-layer metrics that vary run to run; the rest are counts and repeat exactly."""
    return name.endswith("_s") or "ns_per_" in name or name in ("trace.coverage", "criterion.parallel_overlap")


# ---------------------------------------------------------------------------
# set-up, machine
# ---------------------------------------------------------------------------


def probe_setup(workload) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), json.dumps(workload.setup_scenarios)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "not a git checkout"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_block(workers: int, blas: int) -> dict:
    import numpy
    import scipy

    blas_info = {}
    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas_info.get('name', 'unknown')} {blas_info.get('version', '')}".strip(),
        "blas_threads": blas,
        "worker_threads": workers,
        "threads_within_nproc": workers * blas <= nproc(),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def run_op(workload, op, state, references) -> dict:
    """Time one operation (not its check), then check its output."""
    error = None
    output = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        output = workload.execute(op, state)
    except Exception:
        error = traceback.format_exc(limit=3)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if error is None:
        try:
            problems = workload.check(op, output, state, references)
        except Exception:
            problems = [f"check raised: {traceback.format_exc(limit=3)}"]
    else:
        problems = [f"operation raised: {error}"]
    return {"op": op.label, "run_s": wall, "cpu_s": cpu, "problems": problems}


def run_round(workload, ops, state, references) -> tuple:
    t0 = time.perf_counter()
    records = [run_op(workload, op, state, references) for op in ops]
    return records, time.perf_counter() - t0


def timed_rounds(workload, state, references, seed: int, seconds: float) -> list:
    """Whole rounds while the next one still fits in ``seconds``; at least one."""
    size = workload.round_size
    ops = workload.ops(seed, size * MAX_ROUNDS)
    records, round_walls = [], []
    start = time.perf_counter()
    for r in range(MAX_ROUNDS):
        recs, wall = run_round(workload, ops[r * size:(r + 1) * size], state, references)
        records += recs
        round_walls.append(wall)
        if time.perf_counter() - start + statistics.median(round_walls) > seconds:
            break
    return records


def traced_rounds(workload, state, references, seed: int, seconds: float, wf):
    """Pairs of the same round untraced, then traced, while a pair still fits."""
    size = workload.round_size
    ops = workload.ops(seed, size * MAX_ROUNDS)
    tracer = spans.Tracer()
    start = time.perf_counter()
    # One operation outside the pairs first, so that neither side of the
    # first pair carries the process's warm-up.
    records = [run_op(workload, ops[0], state, references)]
    per_round, overheads, span_rows = [], [], []
    pair_walls = []
    for r in range(MAX_ROUNDS):
        round_ops = ops[r * size:(r + 1) * size]
        plain, plain_wall = run_round(workload, round_ops, state, references)
        tracer.install(observers=spans.OBSERVERS)
        try:
            traced, traced_wall = run_round(workload, round_ops, state, references)
        finally:
            tracer.uninstall()
        recorded, counters = tracer.take()
        records += plain + traced
        metrics = spans.layer_metrics(recorded, counters, traced_wall)
        metrics.update(workload.input_counts(wf, round_ops[0]))
        metrics.update(workload.output_counts(round_ops[-1], state))
        metrics["trace.absent_functions"] = len(tracer.absent)
        per_round.append(metrics)
        overheads.append(traced_wall - plain_wall)
        span_rows.append({"round": r, "ops": [op.label for op in round_ops],
                          "spans": spans.spans_as_rows(recorded)})
        pair_walls.append(plain_wall + traced_wall)
        if time.perf_counter() - start + statistics.median(pair_walls) > seconds:
            break
    layer = {}
    for key in per_round[0]:
        values = [m[key] for m in per_round]
        layer[key] = statistics.median(values) if is_timing(key) else values[0]
    layer["trace.overhead_s"] = statistics.median(overheads)
    return records, layer, {"absent": tracer.absent, "rounds": span_rows}, len(per_round)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fmt_value(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args, table: dict) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    # Worker threads times BLAS threads stays within nproc; set before numpy loads.
    blas = max(1, nproc() // workload.workers)
    for var in BLAS_VARS:
        os.environ[var] = str(blas)

    setup = [probe_setup(workload) for _ in range(SETUP_PROBES)]

    sys.path.insert(0, str(ROOT / "src"))
    wf = SimpleNamespace(**{name: importlib.import_module(f"warpflow.{name}") for name in MODULES})
    if ROOT not in Path(wf.cli.__file__).resolve().parents:
        print(f"error: warpflow imported from {wf.cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    references = checks.load_references()
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"{workload.name}-seed{args.seed}"
    state = workload.prepare(wf, work_dir, args.seed)
    machine = machine_block(workload.workers, blas)

    extra = {}
    if args.trace:
        records, metrics, trace_dump, rounds = traced_rounds(
            workload, state, references, args.seed, args.seconds, wf)
        samples = {name: rounds if is_timing(name) else 1 for name in metrics}
        extra["absent"] = trace_dump["absent"]
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(trace_dump), encoding="utf-8")
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        records = timed_rounds(workload, state, references, args.seed, args.seconds)
        metrics = {
            "run_s": statistics.median(r["run_s"] for r in records),
            "cpu_s": statistics.median(r["cpu_s"] for r in records),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {"run_s": len(records), "cpu_s": len(records), "setup_s": len(setup), "peak_rss_mb": 1}

    wanted = table[args.trace]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    failed = sum(1 for r in records if r["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": wanted[name]} for name in wanted},
    }

    print(f"workload {workload.name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"  why: {workload.why}")
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    for rec in records:
        status = "ok" if not rec["problems"] else "FAILED: " + "; ".join(rec["problems"])
        print(f"  op {rec['op']}: {rec['run_s']:.4f} s wall, {rec['cpu_s']:.4f} s cpu, {status}")
    if args.trace and extra["absent"]:
        print(f"  absent (metrics read 0): {', '.join(extra['absent'])}")
    for name, unit in wanted.items():
        print(f"  {name:48s} {fmt_value(float(metrics[name])):>14s} {unit:6s} n={samples[name]}")
    print(f"  operations: {len(records)} attempted, {failed} failed")

    record_path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "setup_s": setup, "operations": records,
        "samples": samples, **extra, "result": result,
    }, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args, table: dict) -> int:
    """Every workload in its own process, then one table of every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
            rows.append((name, metric, entry["value"], entry["unit"], record["samples"][metric]))
    print()
    print(f"{'workload':22s} {'metric':48s} {'value':>14s} {'unit':6s} samples")
    for name, metric, value, unit, n in rows:
        print(f"{name:22s} {metric:48s} {fmt_value(value):>14s} {unit:6s} {n}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "warpflow" / "__init__.py").is_file():
        print(f"error: no warpflow sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    table = load_metric_table()
    if args.workload == "all":
        return run_all(args, table)
    return run_one(args, table)


if __name__ == "__main__":
    raise SystemExit(main())
