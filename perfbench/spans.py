"""Outside tracing of warpflow: span recording, wrapping, self time and layer metrics.

Nothing here is imported by warpflow.  A :class:`Tracer` replaces the public
functions of each warpflow module by recording wrappers, at every name under
which a warpflow module (or the package) holds them.  That covers callers
that imported a function by name, such as ``cli`` importing
``run_anosov_check`` or ``engine`` importing ``curvature_matrix_frame``.

Spans are kept in memory as tuples and written out once, when the run ends.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

# Modules traced, in layer order; their short names are the layer names.
LAYERS = (
    "warp", "geometry", "engine", "geodesics", "jacobi",
    "criterion", "scenarios", "config", "cli", "reports",
)

# Called once per CSV cell: a span each would cost more than the work it wraps.
UNTRACED = frozenset({"reports.fmt"})

# Functions the layer metrics read.  One that no longer exists is reported
# absent and its metrics read 0.
EXPECTED = (
    "engine.integrate_states", "engine.boundary_solve", "engine.conservation_scan",
    "geometry.curvature_matrix_frame", "geodesics.integrate_geodesic",
    "geodesics.extend_path", "jacobi.green_stable", "jacobi.riccati_along",
    "jacobi.dphi_norm_series", "criterion.run_anosov_check",
    "criterion.dominance_check", "criterion.averaged_curvature",
    "scenarios.build_scenario", "scenarios.scenario_bounds",
    "config.build_config", "cli.main", "reports.write_csv", "reports.write_json",
    "warp.WarpSpec.log_derivatives",
)

ENTRY = "cli.main"
ENGINE_KERNELS = ("engine.integrate_states", "engine.boundary_solve")


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int


class Tracer:
    """Records spans and counters of wrapped functions; thread-safe.

    A span opened on a thread with no open span of its own (a pool worker)
    takes as parent the innermost open span of the thread that created the
    tracer, which is the thread that fanned the work out.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.absent: list = []
        self._lock = threading.Lock()
        self._next = 0
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._root_stack: list = []
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else None
        with self._lock:
            sid = self._next
            self._next += 1
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, name: str, token: tuple) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self._stack().pop()
        span = Span(sid, name, start, end, parent, threading.get_ident())
        with self._lock:
            self.spans.append(span)

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += value

    # -- wrapping --------------------------------------------------------

    def _wrapper(self, name: str, fn: Callable, observer: Optional[Callable]) -> Callable:
        tracer = self

        def observe(args, kwargs, result, exc):
            # A signature the observer no longer understands costs the
            # counts, never the operation.
            try:
                observer(tracer, args, kwargs, result, exc)
            except Exception:
                tracer.count("trace.observer_errors")

        def traced(*args, **kwargs):
            token = tracer.open()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if observer is not None:
                    observe(args, kwargs, None, exc)
                raise
            finally:
                tracer.close(name, token)
            if observer is not None:
                observe(args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str = "warpflow", observers: Optional[dict] = None) -> None:
        """Wrap every public function of the traced modules, under every alias."""
        observers = observers or {}
        layers = {}
        for layer in LAYERS:
            try:
                layers[layer] = importlib.import_module(f"{package}.{layer}")
            except ModuleNotFoundError:
                continue
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        found = set()
        for layer, mod in layers.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in UNTRACED:
                    continue
                found.add(name)
                self._replace(modules, fn, self._wrapper(name, fn, observers.get(name)))
        warp = layers.get("warp")
        spec_cls = getattr(warp, "WarpSpec", None)
        method = getattr(spec_cls, "log_derivatives", None)
        if method is not None:
            found.add("warp.WarpSpec.log_derivatives")
            tracer = self

            def log_derivatives(spec, x):
                tracer.count("warp.log_derivatives.calls")
                tracer.count("warp.log_derivatives.points", getattr(x, "size", 1))
                return method(spec, x)

            setattr(spec_cls, "log_derivatives", log_derivatives)
            self._restore.append((spec_cls, "log_derivatives", method))
        self.absent = [name for name in EXPECTED if name not in found]

    def _replace(self, modules: list, original: Callable, wrapper: Callable) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take(self) -> tuple:
        """Return and clear the spans and counters recorded so far."""
        with self._lock:
            spans, counters = self.spans, dict(self.counters)
            self.spans, self.counters = [], defaultdict(float)
        return spans, counters


# ---------------------------------------------------------------------------
# observers: counts read from arguments and return values
# ---------------------------------------------------------------------------


def _nbytes(obj) -> int:
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v) for v in obj)
    return 0


def _observe_integrate_states(tracer, args, kwargs, result, exc):
    if result is None:
        return
    m = int(result["m"])
    halfsteps = len(result["times_fine"]) - 1
    tracer.count("engine.integrate_states.sample_halfsteps", m * halfsteps)
    tracer.count("engine.bytes_stored", _nbytes(result))
    if "K" in result:
        tracer.count("engine.renorm_checks", halfsteps // 2)
        tracer.count("engine.renorm_fired", int(result.get("renorm_events", 0)))


def _observe_boundary_solve(tracer, args, kwargs, result, exc):
    names = ("K_fine", "step", "anchor_c", "zero_c", "out_lo", "out_hi")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    K = bound["K_fine"]
    anchor, zero = int(bound["anchor_c"]), int(bound["zero_c"])
    target = int(bound["out_lo"]) if anchor > zero else int(bound["out_hi"])
    tracer.count("engine.boundary_solve.sample_steps", K.shape[1] * abs(anchor - target))
    tracer.count(f"engine.boundary_solve.anchor.{anchor}")
    if result is not None:
        tracer.count("engine.bytes_stored", _nbytes(result))


def _observe_conservation_scan(tracer, args, kwargs, result, exc):
    import numpy as np

    m = np.atleast_1d(args[1]).shape[0]
    coarse = int(round(abs(kwargs["t_end"]) / kwargs["step"]))
    tracer.count("engine.conservation_scan.sample_halfsteps", m * 2 * coarse)


def _observe_green_stable(tracer, args, kwargs, result, exc):
    sol = result if result is not None else getattr(exc, "last_solution", None)
    if sol is not None:
        tracer.count("jacobi.green_stable.rungs", len(sol.meta["r_ladder"]))


def _observe_write(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.count("reports.bytes_written", result.stat().st_size)


OBSERVERS = {
    "engine.integrate_states": _observe_integrate_states,
    "engine.boundary_solve": _observe_boundary_solve,
    "engine.conservation_scan": _observe_conservation_scan,
    "jacobi.green_stable": _observe_green_stable,
    "reports.write_csv": _observe_write,
    "reports.write_json": _observe_write,
}


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover.

    Children may run on other threads; where they overlap each other the
    covered time counts once, so a parent waiting on two parallel workers
    has no self time while either is busy.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.sid, ())]
        covered = union_length([iv for iv in clipped if iv[1] > iv[0]])
        out[s.sid] = (s.end - s.start) - covered
    return out


def busy_times(spans) -> dict:
    """Name -> summed duration of its outermost spans, over all threads.

    A span nested in another span of the same name is not counted twice.
    Parallel spans add up, so busy time may exceed wall time.
    """
    by_id = {s.sid: s for s in spans}
    out = defaultdict(float)
    for s in spans:
        p = s.parent
        nested = False
        while p is not None and p in by_id:
            if by_id[p].name == s.name:
                nested = True
                break
            p = by_id[p].parent
        if not nested:
            out[s.name] += s.end - s.start
    return out


def self_by_name(spans) -> dict:
    selfs = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s.name] += selfs[s.sid]
    return out


def call_counts(spans) -> dict:
    out = defaultdict(int)
    for s in spans:
        out[s.name] += 1
    return out


def coverage(spans, wall_s: float) -> float:
    """Share of the measured wall time covered by layer spans below the entry point."""
    if wall_s <= 0.0:
        return 0.0
    inner = [(s.start, s.end) for s in spans if s.name != ENTRY]
    return union_length(inner) / wall_s


def layer_metrics(spans, counters: dict, wall_s: float) -> dict:
    """Per-layer metric values of one traced round (see perfbench/README.md)."""
    busy = busy_times(spans)
    own = self_by_name(spans)
    calls = call_counts(spans)
    c = defaultdict(float, counters)

    def per(num_s, den):
        return num_s * 1e9 / den if den else 0.0

    anchors = [k for k in counters if k.startswith("engine.boundary_solve.anchor.")]
    run_check = busy["criterion.run_anosov_check"]
    engine_busy = sum(busy[name] for name in ENGINE_KERNELS)
    out = {
        "engine.integrate_states.calls": calls["engine.integrate_states"],
        "engine.integrate_states.busy_s": busy["engine.integrate_states"],
        "engine.integrate_states.self_s": own["engine.integrate_states"],
        "engine.integrate_states.sample_halfsteps": c["engine.integrate_states.sample_halfsteps"],
        "engine.integrate_states.ns_per_sample_halfstep": per(
            busy["engine.integrate_states"], c["engine.integrate_states.sample_halfsteps"]),
        "engine.renorm_checks": c["engine.renorm_checks"],
        "engine.renorm_fired": c["engine.renorm_fired"],
        "engine.renorm_fired_ratio": (
            c["engine.renorm_fired"] / c["engine.renorm_checks"] if c["engine.renorm_checks"] else 0.0),
        "engine.boundary_solve.calls": calls["engine.boundary_solve"],
        "engine.boundary_solve.busy_s": busy["engine.boundary_solve"],
        "engine.boundary_solve.sample_steps": c["engine.boundary_solve.sample_steps"],
        "engine.boundary_solve.ns_per_sample_step": per(
            busy["engine.boundary_solve"], c["engine.boundary_solve.sample_steps"]),
        "engine.conservation_scan.busy_s": busy["engine.conservation_scan"],
        "engine.conservation_scan.sample_halfsteps": c["engine.conservation_scan.sample_halfsteps"],
        "engine.conservation_scan.ns_per_sample_halfstep": per(
            busy["engine.conservation_scan"], c["engine.conservation_scan.sample_halfsteps"]),
        "engine.bytes_stored": c["engine.bytes_stored"],
        "warp.log_derivatives.calls": c["warp.log_derivatives.calls"],
        "warp.log_derivatives.points": c["warp.log_derivatives.points"],
        "geometry.curvature_matrix_frame.calls": calls["geometry.curvature_matrix_frame"],
        "geometry.curvature_matrix_frame.busy_s": busy["geometry.curvature_matrix_frame"],
        "geodesics.integrate_geodesic.busy_s": busy["geodesics.integrate_geodesic"],
        "geodesics.extend_path.calls": calls["geodesics.extend_path"],
        "jacobi.green_stable.busy_s": busy["jacobi.green_stable"],
        "jacobi.green_stable.self_s": own["jacobi.green_stable"],
        "jacobi.green_stable.rungs": c["jacobi.green_stable.rungs"],
        "jacobi.riccati_along.busy_s": busy["jacobi.riccati_along"],
        "jacobi.dphi_norm_series.busy_s": busy["jacobi.dphi_norm_series"],
        "criterion.run_anosov_check.busy_s": run_check,
        "criterion.run_anosov_check.self_s": own["criterion.run_anosov_check"],
        "criterion.dominance_check.busy_s": busy["criterion.dominance_check"],
        "criterion.averaged_curvature.busy_s": busy["criterion.averaged_curvature"],
        "criterion.rungs_used": len(anchors),
        "criterion.parallel_overlap": engine_busy / run_check if run_check else 0.0,
        "reports.busy_s": busy["reports.write_csv"] + busy["reports.write_json"],
        "reports.bytes_written": c["reports.bytes_written"],
        "scenarios.build_scenario.busy_s": busy["scenarios.build_scenario"],
        "scenarios.scenario_bounds.busy_s": busy["scenarios.scenario_bounds"],
        "config.build_config.busy_s": busy["config.build_config"],
        "cli.main.self_s": own["cli.main"],
        "trace.coverage": coverage(spans, wall_s),
        "trace.spans": len(spans),
        "trace.observer_errors": c["trace.observer_errors"],
    }
    return {k: float(v) for k, v in out.items()}


def spans_as_rows(spans) -> list:
    """Spans as JSON-ready rows, times in seconds from the earliest start."""
    t0 = min((s.start for s in spans), default=0.0)
    return [
        {"id": s.sid, "name": s.name, "start": s.start - t0, "end": s.end - t0,
         "parent": s.parent, "thread": s.thread}
        for s in spans
    ]
