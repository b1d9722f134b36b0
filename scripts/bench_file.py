#!/usr/bin/env python3
"""Summarise perfbench runs of a parent and a change into one BENCH file.

Usage: python scripts/bench_file.py --pr N --parent PATH... --change PATH... [--out FILE]

Each PATH is a perfbench ``result-<workload>-seed<s>-trace<t>.json`` file or
a directory holding such files (``perfbench/out`` after a run).  Per workload
and metric the BENCH file holds, for each side, the run count, the median
and the quartiles of the per-run values (each already a median over the
run's operations) and the values by seed; then the ratio of the change's
median to the parent's, how many seeds both sides ran and in how many of
those the change's value is lower, the parent's interquartile range, the
median and interquartile range of the per-seed ratios change/parent, and
``gain_resolved``: at least ten paired seeds, the change lower in at least
nine of every ten, and 1 - median ratio above the ratios' interquartile
range.  A ratio of one seed's two runs cancels the spread between seeds
(their inputs differ), so what remains to beat is run-to-run noise.  It
also holds the machine block fields that every run agrees on, each side's
commits and its failed operations.  The file goes to ``BENCH_<N>.json`` in
the current directory unless ``--out`` names another.
Two result files of one side with the same workload and seed (say a traced
and an untraced run) are an error: exit status 2.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def _result_files(paths) -> list:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.glob("result-*.json")) if path.is_dir() else [path])
    return files


def _load(paths) -> list:
    return [json.loads(path.read_text(encoding="utf-8")) for path in _result_files(paths)]


def _quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def _summary(by_seed: dict) -> dict:
    values = [by_seed[seed] for seed in sorted(by_seed)]
    q1, median, q3 = _quartiles(values)
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3,
            "by_seed": {str(seed): by_seed[seed] for seed in sorted(by_seed)}}


def _values(side: str, records) -> dict:
    """{workload: {metric: (unit, {seed: value})}} over a side's records.

    Raises ValueError when two records share a workload and seed.
    """
    table, seen = {}, set()
    for rec in records:
        key = (rec["workload"], rec["seed"])
        if key in seen:
            raise ValueError(f"two {side} result files for workload {key[0]} seed {key[1]}")
        seen.add(key)
        for name, entry in rec["result"]["metrics"].items():
            _, by_seed = table.setdefault(rec["workload"], {}).setdefault(name, (entry["unit"], {}))
            by_seed[rec["seed"]] = entry["value"]
    return table


def bench(pr: int, parent: list, change: list) -> dict:
    """The BENCH document of parent and change result records."""
    records = parent + change
    first = records[0]["machine"]
    machine = {key: value for key, value in first.items()
               if key != "git_commit" and all(rec["machine"].get(key) == value for rec in records)}
    sides = {
        name: {"commits": sorted({rec["machine"].get("git_commit", "unknown") for rec in recs}),
               "runs": len(recs),
               "failed_operations": sum(rec["result"]["failed"] for rec in recs)}
        for name, recs in (("parent", parent), ("change", change))
    }
    before, after = _values("parent", parent), _values("change", change)
    workloads = {}
    for workload in sorted(set(before) & set(after)):
        metrics = {}
        for name in sorted(set(before[workload]) & set(after[workload])):
            unit, old = before[workload][name]
            new = after[workload][name][1]
            a, b = _summary(old), _summary(new)
            paired = sorted(set(old) & set(new))
            lower = sum(new[seed] < old[seed] for seed in paired)
            ratios = [new[seed] / old[seed] for seed in paired if old[seed]]
            r1, ratio, r3 = _quartiles(ratios) if ratios else (None, None, None)
            spread = r3 - r1 if ratios else None
            metrics[name] = {
                "unit": unit, "parent": a, "change": b,
                "change_over_parent": b["median"] / a["median"] if a["median"] else None,
                "paired_seeds": len(paired),
                "change_lower_in": lower,
                "parent_iqr": a["q3"] - a["q1"],
                "ratio_median": ratio,
                "ratio_iqr": spread,
                "gain_resolved": len(ratios) >= 10 and 10 * lower >= 9 * len(paired)
                and 1.0 - ratio > spread,
            }
        workloads[workload] = metrics
    return {"pr": pr, "machine": machine, **sides, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    parent, change = _load(args.parent), _load(args.change)
    if not parent or not change:
        print("error: no result files on one side", file=sys.stderr)
        return 2
    try:
        doc = bench(args.pr, parent, change)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out = Path(args.out or f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
