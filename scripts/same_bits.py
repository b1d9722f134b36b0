#!/usr/bin/env python3
"""Check that two source trees write the same check reports and single-path results, number for number.

Usage: python scripts/same_bits.py PARENT_TREE CHANGE_TREE [--seeds S ...] [--out DIR]

Each tree is a checkout of this repository.  The ``anosov-check`` argv of
the check workloads and the ``single-path`` operation are read from
``perfbench/workloads.py`` (the one beside this script) and run for every
seed (default: the pool 0..7 of the check workloads), in one subprocess per
tree with ``PYTHONPATH=<tree>/src``.  A check writes its reports and exit
code; a single-path seed writes, per request of one round, whether the
ladder converged, the averaged-curvature series, the Riccati z, kappa and
residual and the flow-derivative norms as JSON.  Every pair of output
directories is then compared by ``scripts/compare_results.py``.  The
outputs go under ``--out`` (default: a temporary directory, removed
afterwards).  Exits with 0 when every pair holds the same numbers and
text, else 1.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# runs the jobs of sys.argv[1] through ``run_jobs`` of this script (sys.argv[2])
_CHILD = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("same_bits", sys.argv[2])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.run_jobs(sys.argv[1])
"""


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))  # workloads imports its sibling ``checks``
    try:
        return _load(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def check_workloads() -> tuple:
    """{name: anosov-check argv without --seed and --out} of the perfbench check workloads, and their seed pool size."""
    workloads = _workloads()
    argvs = {w.name: list(w.args) for w in workloads.WORKLOADS.values() if hasattr(w, "args")}
    return argvs, workloads.SAMPLE_SEEDS


def _single_path(out: Path, seed: int) -> None:
    """One round of the ``single-path`` operation at ``seed``, one JSON file per request."""
    import warpflow  # the package imports every module that the workload reads

    workload = _workloads().WORKLOADS["single-path"]
    state = workload.prepare(warpflow, out, seed)
    for op in workload.ops(seed, workload.round_size):
        converged, series, riccati, norms = workload.execute(op, state)
        result = {"converged": converged, "series": {"times": series.times, "values": series.values},
                  "riccati": {"times": riccati.times, "z": riccati.z, "kappa": riccati.kappa,
                              "residual": riccati.residual},
                  "norms": norms}
        text = json.dumps(result, default=lambda a: a.tolist())
        (out / f"request{op.data['request']}.json").write_text(text, encoding="utf-8")


def run_jobs(jobs: str) -> None:
    """Run the JSON list of jobs [output dir, argv or seed] in this process, on the warpflow it imports.

    An argv runs ``cli.main`` and records its exit code; a seed runs one
    single-path round (:func:`_single_path`).
    """
    from warpflow import cli

    for out, job in json.loads(jobs):
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        if isinstance(job, int):
            _single_path(out, job)
            continue
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*job, "--out", str(out)])
        (out / "exit_code.json").write_text(json.dumps({"exit_code": code}), encoding="utf-8")


def run_tree(tree: Path, out: Path, runs: list) -> None:
    """Run (output dir, argv or seed) pairs in one subprocess on ``tree``'s sources, from the directory ``out``.

    The output dirs are relative to ``out``, so the ``out`` entry that a
    report records is the same for both trees.
    """
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    argv = [sys.executable, "-c", _CHILD, json.dumps(runs), str(Path(__file__).resolve())]
    subprocess.run(argv, cwd=out, env=env, check=True)


def same_bits(parent: Path, change: Path, seeds, out: Path) -> bool:
    """Run both trees and print each pair's comparison; returns whether every pair is the same.

    ``seeds`` None means the check workloads' whole seed pool.
    """
    compare = _load(ROOT / "scripts" / "compare_results.py", "compare_results")
    argvs, pool = check_workloads()
    seeds = range(pool) if seeds is None else seeds
    runs = [(f"{name}/seed{seed}", [*argv, "--seed", str(seed)]) for name, argv in argvs.items() for seed in seeds]
    runs += [(f"single-path/seed{seed}", seed) for seed in seeds]
    for side, tree in (("parent", parent), ("change", change)):
        run_tree(tree, out / side, runs)
    same = True
    for rel, _ in runs:
        print(f"== {rel}")
        same &= not compare.compare_dirs(out / "parent" / rel, out / "change" / rel)
    print("same bits" if same else "CHANGED")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "warpflow").is_dir():
            print(f"not a warpflow tree: {tree}", file=sys.stderr)
            return 2
    if args.out is not None:
        return 0 if same_bits(args.parent, args.change, args.seeds, args.out) else 1
    with tempfile.TemporaryDirectory() as tmp:
        return 0 if same_bits(args.parent, args.change, args.seeds, Path(tmp)) else 1


if __name__ == "__main__":
    sys.exit(main())
