"""Record the reference outputs of the check workloads into references.json.

    python3 perfbench/make_references.py

Runs every sample seed of the pool once per check workload, through the same
code path as the benchmark, and stores verdict, B_est, failure kinds and the
case-dominance flag.  Run it on the commit whose outputs are the reference;
the file records that commit.  It takes a few minutes.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import run
import workloads


def main() -> int:
    for var in run.BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.ROOT / "src"))
    wf = SimpleNamespace(**{name: importlib.import_module(f"warpflow.{name}") for name in run.MODULES})
    refs = {"commit": run.git_commit()}
    for name, workload in workloads.WORKLOADS.items():
        if not isinstance(workload, workloads.CheckWorkload):
            continue
        state = workload.prepare(wf, run.OUT / f"references-{name}", 0)
        refs[name] = {}
        for op in workload.ops(0, workloads.SAMPLE_SEEDS):
            t0 = time.perf_counter()
            if workload.execute(op, state) != 0:
                raise SystemExit(f"{name} {op.label}: anosov-check failed")
            refs[name][str(op.data["sample_seed"])] = workload.reference_entry(workload.read_report(state))
            print(f"{name} {op.label} {time.perf_counter() - t0:.2f} s",
                  refs[name][str(op.data["sample_seed"])], flush=True)
    path = Path(__file__).with_name("references.json")
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
