"""``scripts/compare_results.py``: number-by-number comparison of two results directories."""
import importlib.util
import io
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _module():
    path = ROOT / "scripts" / "compare_results.py"
    spec = importlib.util.spec_from_file_location("compare_results", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root, report, rows, extra=None):
    root.mkdir()
    (root / "report.json").write_text(json.dumps(report), encoding="utf-8")
    (root / "series.csv").write_text("# seed = 0\nt,value\n" + "".join(f"{t},{v}\n" for t, v in rows),
                                     encoding="utf-8")
    if extra:
        (root / extra).write_text("{}", encoding="utf-8")


def test_identical_directories(tmp_path):
    compare = _module()
    for name in ("a", "b"):
        _write(tmp_path / name, {"B": 1.0, "rungs": [9.0, 18.0]}, [(0, 1.0), (1, 0.5)])
    out = io.StringIO()
    assert not compare.compare_dirs(tmp_path / "a", tmp_path / "b", out=out)
    assert out.getvalue().splitlines() == [
        "report.json: 3 numbers, 0 changed",
        "series.csv: 4 numbers, 0 changed",
    ]


def test_largest_changes_and_text_differences(tmp_path):
    compare = _module()
    _write(tmp_path / "a", {"B": 1.0, "verdict": "yes", "rungs": [9.0, 18.0, 36.0]},
           [(0, 1.0), (1, 0.5)], extra="only_a.json")
    _write(tmp_path / "b", {"B": 1.0 + 1e-12, "verdict": "no", "rungs": [9.0, 18.0]},
           [(0, 1.0), (1, 0.25)])
    out = io.StringIO()
    assert compare.compare_dirs(tmp_path / "a", tmp_path / "b", out=out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "only_a.json: only in A"
    assert lines[1] == "report.json: 3 numbers, 1 changed"
    assert lines[2].startswith("  largest absolute change 1e-12 at B: 1.0 -> 1.000000000001")
    assert "  not a number: rungs#len: '3 items' -> '2 items'" in lines
    assert "  not a number: rungs[2]: only in A (36.0)" in lines
    assert "  not a number: verdict: 'yes' -> 'no'" in lines
    assert "series.csv: 4 numbers, 1 changed" in lines
    assert "  largest relative change 0.5 at row 2, value: 0.5 -> 0.25" in lines


def test_exit_status(tmp_path):
    compare = _module()
    _write(tmp_path / "a", {"B": 1.0}, [(0, 1.0)])
    _write(tmp_path / "b", {"B": 2.0}, [(0, 1.0)])
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert compare.main([str(tmp_path / "a")]) == 2
