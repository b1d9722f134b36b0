"""``scripts/bench_file.py``: a BENCH file from perfbench result files of a parent and a change."""
import importlib.util
import json
from pathlib import Path

import numpy as np
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


def _run_s(pairs):
    """The run_s entry of a BENCH document from (parent, change) values, one pair per seed."""
    parent = [_record(seed, old, "aaa") for seed, (old, _) in enumerate(pairs)]
    change = [_record(seed, new, "bbb") for seed, (_, new) in enumerate(pairs)]
    return _module().bench(1, parent, change)["workloads"]["scan"]["run_s"]


def test_gain_resolved_needs_ten_pairs_nine_wins_and_a_gain_beyond_ratio_spread():
    parent = [1.0 + 0.01 * seed for seed in range(10)]  # quartiles 1.0225 and 1.0675
    entry = _run_s([(old, old - 0.1) for old in parent])
    assert entry["parent_iqr"] == pytest.approx(0.045)
    assert entry["ratio_median"] == pytest.approx(0.904, abs=1e-3) and entry["ratio_iqr"] < 0.01
    assert (entry["paired_seeds"], entry["change_lower_in"], entry["gain_resolved"]) == (10, 10, True)
    # one loss in ten still resolves, two do not
    assert _run_s([(old, old - 0.1 if seed else old + 1.0) for seed, old in enumerate(parent)])["gain_resolved"]
    assert not _run_s([(old, old - 0.1 if seed > 1 else old + 1.0) for seed, old in enumerate(parent)])["gain_resolved"]
    # wins in every pair, but the median gain of 0.1 % lies within the ratios' spread
    ratios = [0.5, 0.5, 0.5] + [0.999] * 7
    entry = _run_s([(old, ratio * old) for old, ratio in zip(parent, ratios)])
    assert entry["change_lower_in"] == 10 and entry["ratio_median"] == pytest.approx(0.999)
    assert not entry["gain_resolved"]
    # too few pairs
    assert not _run_s([(old, old - 0.1) for old in parent[:9]])["gain_resolved"]


def test_gain_resolved_on_the_single_path_values_of_bench_13():
    # by-seed values bimodal by input: the parent's interquartile range over
    # seeds (40 % of its median) exceeds the -38 % gain, the ratios' does not
    entry = json.loads((ROOT / "BENCH_13.json").read_text(encoding="utf-8"))["workloads"]["single-path"]["run_s"]
    old, new = entry["parent"]["by_seed"], entry["change"]["by_seed"]
    run_s = _run_s([(old[seed], new[seed]) for seed in sorted(old)])
    assert run_s["ratio_median"] == pytest.approx(0.63, abs=0.01)
    assert run_s["ratio_iqr"] == pytest.approx(0.11, abs=0.01)
    assert run_s["parent_iqr"] > (run_s["parent"]["median"] - run_s["change"]["median"])
    assert run_s["gain_resolved"]


def test_unchanged_side_with_jitter_is_not_resolved():
    rng = np.random.RandomState(7)
    parent = 0.05 + 0.05 * rng.rand(20)
    jitter = 1.0 + rng.uniform(-0.03, 0.03, 20)
    entry = _run_s(list(zip(parent, parent * jitter)))
    assert entry["paired_seeds"] == 20
    # refused by the ratio rule on its own, not only by the count of wins
    assert 1.0 - entry["ratio_median"] < entry["ratio_iqr"]
    assert not entry["gain_resolved"]


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
