"""Deterministic CSV/JSON writers.

Floats are rendered with 17 significant digits ('.' decimal separator) so
double-precision values round-trip exactly and identical runs produce
byte-identical files.  Every file embeds the resolved run configuration.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def config_header_lines(config: dict) -> list:
    return [f"# {key} = {fmt(config[key])}" for key in sorted(config)]


def _cells(column) -> list:
    """The rendered cells of a sequence of one type, in one pass, cell for cell as :func:`fmt` renders them.

    A float column is rendered by ``format`` over its ``tolist``.
    """
    values = np.asarray(column)
    if values.dtype.kind == "f":
        return [format(v, ".17g") for v in values.tolist()]
    return [fmt(v) for v in values.tolist()]


def write_csv(path, columns, blocks, config: dict) -> Path:
    """Write a CSV of the header ``columns`` whose rows come in ``blocks``, each a sequence of columns.

    A block's columns are sequences of one length, its row count, or single
    values repeated on every row; each is rendered once (:func:`_cells`),
    and so is a sequence that several blocks share (the same object).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = config_header_lines(config)
    lines.append(",".join(columns))
    shared = {}  # id -> (column, cells); holding the column keeps its id unique
    for block in blocks:
        count = max([len(c) for c in block if np.ndim(c)], default=1)
        cells = []
        for column in block:
            if np.ndim(column) == 0:
                cells.append([fmt(np.asarray(column).tolist())] * count)
                continue
            if id(column) not in shared:
                shared[id(column)] = (column, _cells(column))
            cells.append(shared[id(column)][1])
        lines.extend(map(",".join, zip(*cells)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and obj != obj:  # NaN is not valid JSON
        return None
    return obj


def write_json(path, payload: dict, config: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = dict(payload)
    body["config"] = config
    path.write_text(
        json.dumps(_jsonable(body), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    return path
