"""In-memory span tracer that wraps replica_lab's public functions from outside.

The traced run replaces each public function listed in ``TRACED`` with a
wrapper that records a span (name, layer, start, end, parent, attributes) and
restores the originals afterwards.  The package imports many of these names
into other modules (``cli`` imports ``run_ensemble`` from ``simulate``, for
example), so every module attribute bound to the same function object is
replaced; calls that resolve through a module global are then seen too.

Pool workers run in forked children.  Their spans stay in the children and
are lost, so the parent sees a pooled ``run_*`` call as one span; the work
inside the workers shows only as children CPU time (``getrusage``).
"""

from __future__ import annotations

import functools
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from replica_lab import cli, model, replica, simulate, stats

_MODULES = (cli, model, replica, simulate, stats)

# (module, public function name); the module name is the span's layer.
TRACED = [
    (simulate, "run_ensemble"),
    (simulate, "run_paired_ensemble"),
    (replica, "build_generator"),
    (replica, "evolve"),
    (replica, "finite_time_moment"),
    (replica, "infinite_time_moment"),
    (replica, "mixed_initial_moment"),
    (replica, "moment_decay_rates"),
    (replica, "permutation_symmetry_defect"),
    (stats, "moments"),
    (stats, "cross_moment"),
    (stats, "histogram"),
    (stats, "ks_uniform"),
    (model, "closed_form_p_ll"),
    (model, "closed_form_offdiag"),
    (model, "beta_cross_moment"),
    (model, "stationary_time"),
    (model, "relaxation_times"),
    (cli, "main"),
]

_RUN_FUNCS = ("simulate.run_ensemble", "simulate.run_paired_ensemble")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = math.nan
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _call_attrs(name: str, args: tuple, kwargs: dict) -> dict:
    """Sizes that let per-layer metrics be bucketed, read from the call's arguments."""
    if name in _RUN_FUNCS:
        cfg = args[0]
        members = 2 if name.endswith("paired_ensemble") else 1
        workers = simulate.resolve_workers(kwargs.get("workers"))
        tasks = math.ceil(cfg.n_trajectories / simulate.BLOCK_TRAJECTORIES)
        return {
            "traj_steps": cfg.n_trajectories * cfg.n_steps * members,
            "pool_workers": min(workers, tasks) if workers > 1 and tasks > 1 else 0,
            "tasks": tasks,
            "children_cpu0": _children_cpu(),
        }
    if name in ("replica.finite_time_moment", "replica.infinite_time_moment",
                "replica.moment_decay_rates"):
        return {"order": args[0].n_pairs}
    if name == "replica.mixed_initial_moment":
        return {"order": len(args[0])}
    if name == "cli.main":
        argv = args[0] if args else kwargs.get("argv")
        return {"command": argv[0] if argv else "?"}
    return {}


class Tracer:
    """Collects spans while installed; ``install``/``uninstall`` bracket each traced round."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str, layer: str, attrs: Optional[dict] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, time.perf_counter(), parent=parent, attrs=attrs or {}))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, layer: str, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = self.open(name, layer, _call_attrs(name, args, kwargs))
            try:
                result = func(*args, **kwargs)
                if name in _RUN_FUNCS:
                    span = self.spans[idx]
                    span.attrs["children_cpu"] = _children_cpu() - span.attrs.pop("children_cpu0")
                    span.attrs["norm_drift"] = result.max_norm_drift
                return result
            finally:
                self.close(idx)

        return wrapper

    def _wrap_normals(self, func):
        @functools.wraps(func)
        def normals(stream, count):
            idx = self.open("simulate.NoiseStream.normals", "simulate", {"draws": count})
            try:
                return func(stream, count)
            finally:
                self.close(idx)

        return normals

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        for module, attr in TRACED:
            original = getattr(module, attr)
            layer = module.__name__.rsplit(".", 1)[-1]
            wrapper = self._wrap(f"{layer}.{attr}", layer, original)
            for target in _MODULES:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._saved.append((target, key, value))
                        setattr(target, key, wrapper)
        original = simulate.NoiseStream.normals
        self._saved.append((simulate.NoiseStream, "normals", original))
        simulate.NoiseStream.normals = self._wrap_normals(original)

    def uninstall(self) -> None:
        while self._saved:
            target, key, value = self._saved.pop()
            setattr(target, key, value)

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]


def _self_times(spans: list[Span], lo: int, hi: int) -> np.ndarray:
    """Duration of each span in [lo, hi) minus the time its direct children cover."""
    own = np.array([spans[i].duration for i in range(lo, hi)])
    for i in range(lo, hi):
        parent = spans[i].parent
        if parent >= lo:
            own[parent - lo] -= spans[i].duration
    return own


def _p50(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0


REPLICA_ORDERS = {
    "infinite_time_moment": (1, 2, 3, 4, 5, 6),
    "finite_time_moment": (1, 2, 3, 4),
    "mixed_initial_moment": (2, 4, 5),
}
CLI_COMMANDS = ("decay", "dist", "sense", "pulse", "moments")
LAYERS = ("bench", "cli", "simulate", "replica", "stats", "model")


def round_metrics(spans: list[Span], lo: int, hi: int) -> dict:
    """Per-layer totals of one traced round, whose root span is ``spans[lo]``."""
    own = _self_times(spans, lo, hi)
    out = {
        "simulate.noise.draws": 0.0,
        "simulate.noise.busy_s": 0.0,
        "simulate.kernel.self_s": 0.0,
        "simulate.run.busy_s": 0.0,
        "simulate.run.traj_steps": 0.0,
        "simulate.pool.tasks": 0.0,
        "simulate.pool.children_cpu_s": 0.0,
        "simulate.pool.capacity_s": 0.0,
        "simulate.max_norm_drift": 0.0,
        "replica.build_generator.busy_s": 0.0,
        "replica.evolve.busy_s": 0.0,
        "replica.self_s": 0.0,
        "stats.busy_s": 0.0,
        "stats.ks_uniform.busy_s": 0.0,
        "model.busy_s": 0.0,
        "cli.self_s": 0.0,
        "bench.self_s": float(own[0]),
        "trace.wall_s": spans[lo].duration,
    }
    for cmd in CLI_COMMANDS:
        out[f"cli.main.{cmd}.busy_s"] = 0.0
    for layer in LAYERS:
        out[f"self.{layer}"] = float(sum(own[i - lo] for i in range(lo, hi) if spans[i].layer == layer))
    for i in range(lo + 1, hi):
        span = spans[i]
        parent_layer = spans[span.parent].layer if span.parent >= 0 else ""
        outermost = parent_layer != span.layer
        if span.name == "simulate.NoiseStream.normals":
            out["simulate.noise.draws"] += span.attrs["draws"]
            out["simulate.noise.busy_s"] += span.duration
        elif span.name in _RUN_FUNCS:
            out["simulate.kernel.self_s"] += own[i - lo]
            out["simulate.run.busy_s"] += span.duration
            out["simulate.run.traj_steps"] += span.attrs["traj_steps"]
            out["simulate.max_norm_drift"] = max(
                out["simulate.max_norm_drift"], span.attrs.get("norm_drift", 0.0)
            )
            if span.attrs["pool_workers"]:
                out["simulate.pool.tasks"] += span.attrs["tasks"]
                out["simulate.pool.children_cpu_s"] += span.attrs.get("children_cpu", 0.0)
                out["simulate.pool.capacity_s"] += span.attrs["pool_workers"] * span.duration
        elif span.layer == "replica":
            if span.name == "replica.build_generator":
                out["replica.build_generator.busy_s"] += span.duration
            elif span.name == "replica.evolve":
                out["replica.evolve.busy_s"] += span.duration
            else:
                out["replica.self_s"] += own[i - lo]
        elif span.layer == "stats" and outermost:
            out["stats.busy_s"] += span.duration
            if span.name == "stats.ks_uniform":
                out["stats.ks_uniform.busy_s"] += span.duration
        elif span.layer == "model" and outermost:
            out["model.busy_s"] += span.duration
        elif span.name == "cli.main":
            out["cli.self_s"] += own[i - lo]
            key = f"cli.main.{span.attrs['command']}.busy_s"
            if key in out:
                out[key] += span.duration
    return out


def replica_latencies(spans: list[Span]) -> dict[str, list[float]]:
    """Durations of replica public calls, bucketed by replica order."""
    buckets: dict[str, list[float]] = {}
    for span in spans:
        if span.layer != "replica":
            continue
        func = span.name.partition(".")[2]
        if func == "moment_decay_rates":
            key = f"replica.{func}.p50_s"
        elif func in REPLICA_ORDERS:
            key = f"replica.{func}.n{span.attrs['order']}.p50_s"
        else:
            continue
        buckets.setdefault(key, []).append(span.duration)
    return buckets


def per_layer(spans: list[Span], roots: list[int]) -> dict[str, float]:
    """Median over traced rounds of each per-layer total, plus derived rates and p50s."""
    bounds = roots + [len(spans)]
    per_round = [round_metrics(spans, bounds[k], bounds[k + 1]) for k in range(len(roots))]
    merged = {key: _p50([r[key] for r in per_round]) for key in per_round[0]}
    draws, noise_busy = merged["simulate.noise.draws"], merged["simulate.noise.busy_s"]
    merged["simulate.noise.draws_per_s"] = draws / noise_busy if noise_busy > 0 else 0.0
    kernel = merged["simulate.kernel.self_s"]
    steps = merged["simulate.run.traj_steps"]
    merged["simulate.kernel.traj_steps_per_s"] = steps / kernel if kernel > 0 else 0.0
    run_busy = merged.pop("simulate.run.busy_s")
    merged["simulate.traj_steps_per_s"] = steps / run_busy if run_busy > 0 else 0.0
    capacity = merged.pop("simulate.pool.capacity_s")
    cpu = merged["simulate.pool.children_cpu_s"]
    merged["simulate.pool.utilization"] = cpu / capacity if capacity > 0 else 0.0
    latencies = replica_latencies(spans)
    for func, orders in REPLICA_ORDERS.items():
        for n in orders:
            key = f"replica.{func}.n{n}.p50_s"
            merged[key] = _p50(latencies.get(key, []))
    key = "replica.moment_decay_rates.p50_s"
    merged[key] = _p50(latencies.get(key, []))
    return merged
