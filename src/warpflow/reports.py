"""Deterministic CSV/JSON writers.

Floats are rendered with 17 significant digits ('.' decimal separator) so
double-precision values round-trip exactly and identical runs produce
byte-identical files.  Every file embeds the resolved run configuration.
"""
from __future__ import annotations

import json
from pathlib import Path


def fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def config_header_lines(config: dict) -> list:
    return [f"# {key} = {fmt(config[key])}" for key in sorted(config)]


def write_csv(path, columns, rows, config: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = config_header_lines(config)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join([fmt(v) for v in row]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def _jsonable(obj):
    import numpy as np

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
