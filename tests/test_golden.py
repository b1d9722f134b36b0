"""Golden regression: the committed constant-curvature results reproduce byte for byte.

Runs the argv lists of ``scripts/run_constant_curvature.py`` from an empty
working directory with the same relative ``--out``, so the resolved config
embedded in every file matches the committed one.
"""
import contextlib
import importlib.util
import io
import os
from pathlib import Path

import pytest

from warpflow.cli import main

ROOT = Path(__file__).resolve().parents[1]
RESULTS = Path("results/constant-curvature")
FILES = ("anosov_report.json", "anosov_series.csv", "green.json", "green.csv")


def _script(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _changes(name, fresh_results):
    """The number-by-number summary of ``scripts/compare_results.py``, committed file against fresh."""
    lines, _ = _script("compare_results").compare_file(ROOT / RESULTS / name, fresh_results / name)
    return "; ".join(lines)


@pytest.fixture(scope="module")
def fresh_results(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    here = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(list(argv)) for argv in _script("run_constant_curvature").RUNS]
    finally:
        os.chdir(here)
    assert codes == [0] * len(codes)
    return work / RESULTS


def test_committed_file_set():
    assert sorted(p.name for p in (ROOT / RESULTS).iterdir()) == sorted(FILES)


@pytest.mark.parametrize("name", FILES)
def test_constant_curvature_bytes(fresh_results, name):
    fresh = (fresh_results / name).read_bytes()
    committed = (ROOT / RESULTS / name).read_bytes()
    assert fresh == committed, f"{RESULTS / name} no longer reproduces: {_changes(name, fresh_results)}"
