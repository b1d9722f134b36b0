import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import spans
from spans import Span


def test_self_time_of_nested_spans():
    recorded = [
        Span(0, "a", 0.0, 10.0, None, 1),
        Span(1, "b", 1.0, 4.0, 0, 1),
        Span(2, "c", 2.0, 3.0, 1, 1),
        Span(3, "b", 5.0, 6.0, 0, 1),
    ]
    own = spans.self_times(recorded)
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})
    assert spans.self_by_name(recorded)["b"] == pytest.approx(3.0)
    assert spans.busy_times(recorded)["b"] == pytest.approx(4.0)


def test_self_time_with_children_overlapping_on_two_threads():
    recorded = [
        Span(0, "run", 0.0, 10.0, None, 1),
        Span(1, "kernel", 1.0, 6.0, 0, 2),
        Span(2, "kernel", 4.0, 8.0, 0, 3),
        Span(3, "leaf", 2.0, 3.0, 1, 2),
    ]
    own = spans.self_times(recorded)
    # union of [1, 6] and [4, 8] covers 7 of the parent's 10 seconds
    assert own[0] == pytest.approx(3.0)
    assert own[1] == pytest.approx(4.0)
    # busy time adds parallel spans, so it exceeds the wall time they share
    assert spans.busy_times(recorded)["kernel"] == pytest.approx(9.0)
    assert spans.coverage(recorded, 10.0) == pytest.approx(1.0)


def test_same_name_nesting_is_not_counted_twice():
    recorded = [Span(0, "f", 0.0, 4.0, None, 1), Span(1, "f", 1.0, 2.0, 0, 1)]
    assert spans.busy_times(recorded)["f"] == pytest.approx(4.0)


def _fake_package(name):
    pkg = types.ModuleType(name)
    engine = types.ModuleType(f"{name}.engine")

    def boundary_solve(x):
        time.sleep(0.05)
        return x

    boundary_solve.__module__ = engine.__name__
    engine.boundary_solve = boundary_solve
    criterion = types.ModuleType(f"{name}.criterion")
    criterion.boundary_solve = boundary_solve  # imported by name

    def run_anosov_check(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(criterion.boundary_solve, range(n)))

    run_anosov_check.__module__ = criterion.__name__
    criterion.run_anosov_check = run_anosov_check
    modules = {name: pkg, engine.__name__: engine, criterion.__name__: criterion}
    return modules, engine, criterion


def test_wrapping_follows_aliases_and_threads(monkeypatch):
    modules, engine, criterion = _fake_package("fakewf")
    for key, mod in modules.items():
        monkeypatch.setitem(sys.modules, key, mod)
    original = engine.boundary_solve
    tracer = spans.Tracer()
    tracer.install(package="fakewf")
    assert criterion.boundary_solve is engine.boundary_solve is not original
    criterion.run_anosov_check(2)
    tracer.uninstall()
    assert criterion.boundary_solve is original and engine.boundary_solve is original

    recorded, _ = tracer.take()
    root = next(s for s in recorded if s.name == "criterion.run_anosov_check")
    kernels = [s for s in recorded if s.name == "engine.boundary_solve"]
    assert len(kernels) == 2
    assert all(s.parent == root.sid for s in kernels)
    assert {s.thread for s in kernels} != {threading.get_ident()}
    covered = spans.union_length([(s.start, s.end) for s in kernels])
    assert spans.self_times(recorded)[root.sid] == pytest.approx(root.end - root.start - covered)


def test_missing_function_is_reported_absent(monkeypatch):
    modules, engine, _ = _fake_package("fakewf2")
    for key, mod in modules.items():
        monkeypatch.setitem(sys.modules, key, mod)
    tracer = spans.Tracer()
    tracer.install(package="fakewf2")
    tracer.uninstall()
    assert "engine.integrate_states" in tracer.absent
    assert "engine.boundary_solve" not in tracer.absent
    metrics = spans.layer_metrics([], {}, 1.0)
    assert metrics["engine.integrate_states.calls"] == 0.0
    assert metrics["engine.integrate_states.ns_per_sample_halfstep"] == 0.0


def test_missing_warpflow_function_is_absent_and_restored(monkeypatch):
    import warpflow.engine as engine

    original = engine.integrate_states
    monkeypatch.delattr(engine, "boundary_solve")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert engine.integrate_states is not original
    finally:
        tracer.uninstall()
    assert tracer.absent == ["engine.boundary_solve"]
    assert engine.integrate_states is original


def test_observer_error_costs_the_count_not_the_call(monkeypatch):
    modules, engine, _ = _fake_package("fakewf3")
    for key, mod in modules.items():
        monkeypatch.setitem(sys.modules, key, mod)

    def broken(tracer, args, kwargs, result, exc):
        raise KeyError("t_end")

    tracer = spans.Tracer()
    tracer.install(package="fakewf3", observers={"engine.boundary_solve": broken})
    try:
        assert engine.boundary_solve(7) == 7
    finally:
        tracer.uninstall()
    recorded, counters = tracer.take()
    assert [s.name for s in recorded] == ["engine.boundary_solve"]
    assert spans.layer_metrics(recorded, counters, 1.0)["trace.observer_errors"] == 1.0
