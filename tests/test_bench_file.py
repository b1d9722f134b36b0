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


def _record(seed, run_s, commit, failed=0, workload="scan", trace=0):
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "machine": {"nproc": 2, "python": "3.11", "git_commit": commit},
        "result": {"correct": failed == 0, "attempted": 3, "failed": failed,
                   "metrics": {"run_s": {"value": run_s, "unit": "s"},
                               "peak_rss_mb": {"value": 80.0, "unit": "MB"}}},
    }


def _result(root, seed, run_s, commit, failed=0, workload="scan", trace=0):
    root.mkdir(exist_ok=True)
    path = root / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(_record(seed, run_s, commit, failed, workload, trace)), encoding="utf-8")
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
    assert run_s["parent_iqr"] == 1.5 and run_s["gain_resolved"] is False
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


def test_gain_resolved_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_parent_spread():
    bench_file = _module()

    def run_s(pairs):
        parent = [_record(seed, old, "aaa") for seed, (old, _) in enumerate(pairs)]
        change = [_record(seed, new, "bbb") for seed, (_, new) in enumerate(pairs)]
        return bench_file.bench(1, parent, change)["workloads"]["scan"]["run_s"]

    parent = [1.0 + 0.01 * seed for seed in range(10)]  # quartiles 1.0225 and 1.0675
    entry = run_s([(old, old - 0.1) for old in parent])
    assert entry["parent_iqr"] == pytest.approx(0.045)
    assert (entry["paired_seeds"], entry["change_lower_in"], entry["gain_resolved"]) == (10, 10, True)
    # one loss in ten still resolves, two do not
    assert run_s([(old, old - 0.1 if seed else old + 1.0) for seed, old in enumerate(parent)])["gain_resolved"]
    assert not run_s([(old, old - 0.1 if seed > 1 else old + 1.0) for seed, old in enumerate(parent)])["gain_resolved"]
    # wins in every pair, but by less than the parent's spread
    assert not run_s([(old, old - 0.01) for old in parent])["gain_resolved"]
    # too few pairs
    assert not run_s([(old, old - 0.1) for old in parent[:9]])["gain_resolved"]


def test_duplicate_workload_and_seed_on_one_side_is_an_error(tmp_path, capsys):
    bench_file = _module()
    _result(tmp_path / "parent", 1, 2.0, "aaa")
    _result(tmp_path / "parent", 1, 5.0, "aaa", trace=1)
    _result(tmp_path / "change", 1, 1.0, "bbb")
    out = tmp_path / "BENCH_1.json"
    assert bench_file.main(["--pr", "1", "--parent", str(tmp_path / "parent"),
                            "--change", str(tmp_path / "change"), "--out", str(out)]) == 2
    assert "two parent result files for workload scan seed 1" in capsys.readouterr().err
    assert not out.exists()
