#!/usr/bin/env python3
"""Check that two source trees write the same check reports, number for number.

Usage: python scripts/same_bits.py PARENT_TREE CHANGE_TREE [--seeds S ...] [--out DIR]

Each tree is a checkout of this repository.  The ``anosov-check`` argv of
the check workloads is read from ``perfbench/workloads.py`` (the one beside
this script) and run for every sample seed (default: the pool 0..7 of the
check workloads), in one subprocess per tree with ``PYTHONPATH=<tree>/src``.
Every pair of output directories, each with the exit code of its run, is
then compared by ``scripts/compare_results.py``.  The outputs go under
``--out`` (default: a temporary directory, removed afterwards).  Exits with
0 when every pair holds the same numbers and text, else 1.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# runs argv lists from sys.argv[1] in-process; each output directory also
# gets the exit code of its run
_CHILD = """
import contextlib, io, json, sys
from pathlib import Path
from warpflow import cli
for out, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    Path(out).mkdir(parents=True, exist_ok=True)
    Path(out, "exit_code.json").write_text(json.dumps({"exit_code": code}), encoding="utf-8")
"""


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def check_workloads() -> tuple:
    """{name: anosov-check argv without --seed and --out} of the perfbench check workloads, and their seed pool size."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # workloads imports its sibling ``checks``
    try:
        workloads = _load(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    argvs = {w.name: list(w.args) for w in workloads.WORKLOADS.values() if hasattr(w, "args")}
    return argvs, workloads.SAMPLE_SEEDS


def run_tree(tree: Path, out: Path, runs: list) -> None:
    """Run (output dir, argv) pairs in one subprocess on ``tree``'s sources, from the directory ``out``.

    The output dirs are relative to ``out``, so the ``out`` entry that a
    report records is the same for both trees.
    """
    out.mkdir(parents=True, exist_ok=True)
    jobs = [(rel, [*argv, "--out", rel]) for rel, argv in runs]
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    subprocess.run([sys.executable, "-c", _CHILD, json.dumps(jobs)], cwd=out, env=env, check=True)


def same_bits(parent: Path, change: Path, seeds, out: Path) -> bool:
    """Run both trees and print each pair's comparison; returns whether every pair is the same.

    ``seeds`` None means the check workloads' whole seed pool.
    """
    compare = _load(ROOT / "scripts" / "compare_results.py", "compare_results")
    argvs, pool = check_workloads()
    runs = [(f"{name}/seed{seed}", [*argv, "--seed", str(seed)])
            for name, argv in argvs.items() for seed in (range(pool) if seeds is None else seeds)]
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
