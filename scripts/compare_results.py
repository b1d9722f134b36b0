#!/usr/bin/env python3
"""Compare two results directories number by number.

Usage: python scripts/compare_results.py DIR_A DIR_B

Every JSON and CSV file under either directory is matched with the file of
the same relative path under the other.  Per file it prints how many numbers
the files hold and how many changed, the largest absolute change
|b - a| and the largest relative change |b - a| / max(|a|, |b|), each with
where it occurs and both values, and every difference that is not a number:
strings, keys, lengths, CSV headers and comment lines, and files present on
one side only.
Exits with 0 when the directories hold the same numbers and text, else 1.
"""
from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

SUFFIXES = (".json", ".csv")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_leaves(value, where=""):
    """(location, leaf) pairs of a parsed JSON value, lists indexed and keys sorted."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _json_leaves(value[key], f"{where}.{key}" if where else key)
    elif isinstance(value, list):
        yield f"{where}#len", f"{len(value)} items"
        for i, item in enumerate(value):
            yield from _json_leaves(item, f"{where}[{i}]")
    else:
        yield where, value


def _csv_leaves(path: Path):
    """(location, cell) pairs of a CSV file; cells that parse as floats become numbers.

    Lines starting with '#' (the embedded run configuration) compare as text.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [line for line in lines if line.startswith("#")]
    for i, line in enumerate(comments, start=1):
        yield f"comment {i}", line
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    yield "#rows", f"{len(rows)} rows"
    header = rows[0] if rows else []
    yield "#header", ",".join(header)
    for i, row in enumerate(rows[1:], start=1):
        for j, cell in enumerate(row):
            name = header[j] if j < len(header) else str(j)
            try:
                cell = float(cell)
            except ValueError:
                pass
            yield f"row {i}, {name}", cell


def _leaves(path: Path) -> dict:
    if path.suffix == ".json":
        return dict(_json_leaves(json.loads(path.read_text(encoding="utf-8"))))
    return dict(_csv_leaves(path))


def _same(a, b) -> bool:
    if _is_number(a) and _is_number(b) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def compare_file(path_a: Path, path_b: Path) -> tuple:
    """Summary lines of one file pair and whether the two differ."""
    a, b = _leaves(path_a), _leaves(path_b)
    numbers = changed = 0
    worst_abs = worst_rel = (0.0, None)
    other = []
    for where in sorted(set(a) | set(b), key=lambda w: (w not in a, w)):
        if where not in a or where not in b:
            side = "B" if where not in a else "A"
            other.append(f"{where}: only in {side} ({(a if side == 'A' else b)[where]!r})")
            continue
        va, vb = a[where], b[where]
        if _is_number(va) and _is_number(vb):
            numbers += 1
            if _same(va, vb):
                continue
            changed += 1
            diff = abs(vb - va)
            if math.isnan(diff):  # a NaN against a number, or inf against -inf
                diff = math.inf
            rel = diff / max(abs(va), abs(vb)) if math.isfinite(diff) else math.inf
            if diff > worst_abs[0]:
                worst_abs = (diff, where)
            if rel > worst_rel[0]:
                worst_rel = (rel, where)
        elif not _same(va, vb):
            other.append(f"{where}: {va!r} -> {vb!r}")
    lines = [f"{numbers} numbers, {changed} changed"]
    for label, (size, where) in (("absolute", worst_abs), ("relative", worst_rel)):
        if where is not None:
            lines.append(f"largest {label} change {size:.3g} at {where}: {a[where]!r} -> {b[where]!r}")
    lines += [f"not a number: {line}" for line in other]
    return lines, bool(changed or other)


def compare_dirs(dir_a: Path, dir_b: Path, out=sys.stdout) -> bool:
    """Print the comparison of every JSON and CSV file pair; returns whether anything differs."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file() and p.suffix in SUFFIXES}

    in_a, in_b = files(dir_a), files(dir_b)
    differs = in_a != in_b
    for rel in sorted(in_a | in_b):
        if rel not in in_a or rel not in in_b:
            print(f"{rel}: only in {'A' if rel in in_a else 'B'}", file=out)
            continue
        lines, changed = compare_file(dir_a / rel, dir_b / rel)
        differs |= changed
        print(f"{rel}: " + lines[0], file=out)
        for line in lines[1:]:
            print(f"  {line}", file=out)
    return differs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(a) for a in args)
    for d in (dir_a, dir_b):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    return 1 if compare_dirs(dir_a, dir_b) else 0


if __name__ == "__main__":
    sys.exit(main())
