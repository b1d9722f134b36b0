"""``scripts/bench_file.py``: a BENCH file from perfbench result files of a parent and a change."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _module():
    path = ROOT / "scripts" / "bench_file.py"
    spec = importlib.util.spec_from_file_location("bench_file", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(root, seed, run_s, commit, failed=0, workload="scan"):
    root.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "trace": 0,
        "machine": {"nproc": 2, "python": "3.11", "git_commit": commit},
        "result": {"correct": failed == 0, "attempted": 3, "failed": failed,
                   "metrics": {"run_s": {"value": run_s, "unit": "s"},
                               "peak_rss_mb": {"value": 80.0, "unit": "MB"}}},
    }
    path = root / f"result-{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    return path


def test_medians_quartiles_and_pairs(tmp_path):
    bench_file = _module()
    for seed, old, new in ((1, 1.0, 0.8), (2, 2.0, 1.0), (3, 3.0, 3.5), (4, 4.0, 2.0)):
        _result(tmp_path / "parent", seed, old, "aaa")
        _result(tmp_path / "change", seed, new, "bbb", failed=int(seed == 4))
    out = tmp_path / "BENCH_7.json"
    assert bench_file.main(["--pr", "7", "--parent", str(tmp_path / "parent"),
                            "--change", str(tmp_path / "change"), "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["pr"] == 7
    assert doc["machine"] == {"nproc": 2, "python": "3.11"}
    assert doc["parent"] == {"commits": ["aaa"], "runs": 4, "failed_operations": 0}
    assert doc["change"] == {"commits": ["bbb"], "runs": 4, "failed_operations": 1}
    run_s = doc["workloads"]["scan"]["run_s"]
    assert run_s["unit"] == "s"
    assert run_s["parent"] == {"runs": 4, "median": 2.5, "q1": 1.75, "q3": 3.25,
                               "by_seed": {"1": 1.0, "2": 2.0, "3": 3.0, "4": 4.0}}
    assert run_s["change"]["median"] == pytest.approx(1.5)
    assert run_s["change"]["q1"] == pytest.approx(0.95)
    assert run_s["change"]["q3"] == pytest.approx(2.375)
    assert run_s["change_over_parent"] == pytest.approx(0.6)
    assert (run_s["paired_seeds"], run_s["change_lower_in"]) == (4, 3)
    rss = doc["workloads"]["scan"]["peak_rss_mb"]
    assert rss["change_over_parent"] == 1.0 and rss["change_lower_in"] == 0


def test_single_runs_files_and_unmatched_workloads(tmp_path):
    bench_file = _module()
    parent = _result(tmp_path / "parent", 5, 2.0, "aaa")
    _result(tmp_path / "parent", 5, 9.0, "aaa", workload="only-parent")
    change = _result(tmp_path / "change", 6, 1.0, "bbb")
    (tmp_path / "empty").mkdir()
    doc = bench_file.bench(3, [json.loads(parent.read_text())], [json.loads(change.read_text())])
    run_s = doc["workloads"]["scan"]["run_s"]
    assert run_s["parent"]["q1"] == run_s["parent"]["median"] == run_s["parent"]["q3"] == 2.0
    assert (run_s["paired_seeds"], run_s["change_lower_in"]) == (0, 0)
    assert bench_file.main(["--pr", "3", "--parent", str(tmp_path / "parent"),
                            "--change", str(tmp_path / "empty"), "--out", str(tmp_path / "x.json")]) == 2
    bench_file.main(["--pr", "3", "--parent", str(tmp_path / "parent"),
                     "--change", str(change), "--out", str(tmp_path / "x.json")])
    assert set(json.loads((tmp_path / "x.json").read_text())["workloads"]) == {"scan"}
