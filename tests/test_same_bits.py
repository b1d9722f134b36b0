"""``scripts/same_bits.py``: the check workloads' reports and single-path results of two source trees, compared."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _module():
    path = ROOT / "scripts" / "same_bits.py"
    spec = importlib.util.spec_from_file_location("same_bits", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_is_same(tmp_path, capsys):
    assert _module().main([str(ROOT), str(ROOT), "--seeds", "0", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "same bits"
    assert {line for line in lines if line.startswith("==")} == {
        "== periodic-check/seed0", "== counterexample-check/seed0", "== single-path/seed0"}
    assert (tmp_path / "change" / "periodic-check" / "seed0" / "anosov_report.json").is_file()
    assert (tmp_path / "change" / "single-path" / "seed0" / "request3.json").is_file()


def test_not_a_tree(tmp_path):
    assert _module().main([str(tmp_path), str(ROOT)]) == 2
