"""Span recorder and layer hooks for the benchmark's traced runs.

The benchmark measures the program from outside: every hook here wraps a
public function or method of one ``repro`` layer at run time, from the
benchmark's own code, so nothing under ``src/`` changes.  A hook records
a *span* (layer name, start, end, parent span) around each call; a few
hooks also log timestamped *counts* (simulated events, cache hits, model
states) read from the call's result.  Spans stay in memory and are saved
once, when the process ends or drains (:meth:`Tracer.save`).

Self time is derived afterwards from the parent links: a span's duration
minus the durations of its direct children (:func:`summarize`).  Parents
are tracked in a :class:`contextvars.ContextVar`, so concurrent asyncio
requests in the server nest correctly, and a worker thread starts with
no parent.

Importing this module imports no ``repro`` code; :func:`install` does,
when it patches the layers.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import sys
import threading
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

NO_SPAN = -1


class Tracer:
    """In-memory span and counter log for one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count_name = array("i")
        self.count_t = array("d")
        self.count_value = array("d")
        self.current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=NO_SPAN)
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, parent: int) -> int:
        with self._lock:
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.end.append(float("nan"))
            self.start.append(time.perf_counter())
        return sid

    def count(self, name: str, value: float = 1.0) -> None:
        """Log ``value`` under ``name`` at the current time."""
        nid = self.name_id(name)
        with self._lock:
            self.count_name.append(nid)
            self.count_t.append(time.perf_counter())
            self.count_value.append(value)

    def within(self, name: str) -> bool:
        """True when a span called ``name`` encloses the current call."""
        nid = self._ids.get(name)
        sid = self.current.get()
        while sid != NO_SPAN:
            if self.name[sid] == nid:
                return True
            sid = self.parent[sid]
        return False

    def span(self, name: str, fn: Callable,
             on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        """Wrap ``fn`` so every call records a ``name`` span.

        A call made from inside a span of the same name (an override
        calling ``super()``) is passed through, so each logical call is
        counted once.  ``on_result`` sees the return value.
        """
        nid = self.name_id(name)
        current = self.current
        names = self.name
        ends = self.end
        clock = time.perf_counter
        opener = self._open

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent = current.get()
                if parent != NO_SPAN and names[parent] == nid:
                    return await fn(*args, **kwargs)
                sid = opener(nid, parent)
                token = current.set(sid)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    current.reset(token)
                    ends[sid] = clock()
                if on_result is not None:
                    on_result(result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = current.get()
            if parent != NO_SPAN and names[parent] == nid:
                return fn(*args, **kwargs)
            sid = opener(nid, parent)
            token = current.set(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                current.reset(token)
                ends[sid] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    @property
    def n_spans(self) -> int:
        return len(self.start)

    def arrays(self) -> Dict[str, np.ndarray]:
        with self._lock:
            return {
                "names": np.array(self.names or [""], dtype=str),
                "name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "count_name": np.frombuffer(self.count_name,
                                            dtype=np.int32).copy(),
                "count_t": np.frombuffer(self.count_t, dtype=np.float64).copy(),
                "count_value": np.frombuffer(self.count_value,
                                             dtype=np.float64).copy(),
            }

    def save(self, path) -> None:
        """Write every span and count as one ``.npz`` file."""
        np.savez(path, **self.arrays())


def load(path) -> Dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def summarize(spans: Dict[str, np.ndarray], t0: float = -np.inf,
              t1: float = np.inf) -> Dict[str, Dict[str, float]]:
    """Per-name calls, inclusive and self seconds, and counter totals.

    Only spans that start and end inside ``[t0, t1]`` and counts logged
    inside it are kept; a span's self time is its duration minus its
    direct children's.  ``analysis.*.check`` spans under a self-test
    are reported as ``analysis.selftest.check`` so grid checks stand
    alone.
    """
    names = [str(n) for n in spans["names"]]
    start, end = spans["start"], spans["end"]
    parent, name = spans["parent"], spans["name"].copy()
    dur = end - start
    keep = np.isfinite(dur) & (start >= t0) & (end <= t1)
    dur = np.where(keep, dur, 0.0)
    child = np.zeros(len(dur))
    has_parent = keep & (parent >= 0)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child

    if "analysis.selftest" in names:
        selftest = names.index("analysis.selftest")
        if (name == selftest).any():
            checks = [i for i, n in enumerate(names)
                      if n.startswith("analysis.") and n.endswith(".check")]
            moved = np.array(_under(parent, name, selftest)) & np.isin(
                name, checks)
            names.append("analysis.selftest.check")
            name[moved] = len(names) - 1
    n = len(names)
    calls = np.bincount(name[keep], minlength=n)
    incl = np.bincount(name[keep], weights=dur[keep], minlength=n)
    own = np.bincount(name[keep], weights=self_s[keep], minlength=n)
    out: Dict[str, Dict[str, float]] = {
        names[i]: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                   "self_s": float(own[i]), "value": 0.0}
        for i in np.flatnonzero(calls).tolist()}
    ct = spans["count_t"]
    inside = (ct >= t0) & (ct <= t1)
    for nid, value in zip(spans["count_name"][inside].tolist(),
                          spans["count_value"][inside].tolist()):
        row = out.setdefault(names[nid], {"calls": 0, "incl_s": 0.0,
                                          "self_s": 0.0, "value": 0.0})
        row["value"] += value
    return out


def _under(parent: np.ndarray, name: np.ndarray, target: int) -> List[bool]:
    """For each span, whether an ancestor is named ``target``."""
    flags: List[bool] = [False] * len(parent)
    for i, p in enumerate(parent.tolist()):
        # Parents are opened before their children, so ``p < i`` and the
        # parent's flag is already final.
        flags[i] = p >= 0 and (flags[p] or int(name[p]) == target)
    return flags


# ------------------------------------------------------------------ hooks


def _rebind(old: Callable, new: Callable) -> None:
    """Point every ``repro`` module binding of ``old`` at ``new``.

    ``from x import f`` copies the function into the importing module,
    so patching only its home module would miss those callers.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _wrap_function(tracer: Tracer, module: str, attr: str, name: str,
                   on_result=None) -> None:
    import importlib

    old = getattr(importlib.import_module(module), attr)
    _rebind(old, tracer.span(name, old, on_result))


def _wrap_methods(tracer: Tracer, classes: Iterable[type],
                  methods: Iterable[str], name: str, on_result=None) -> None:
    for cls in classes:
        for method in methods:
            fn = cls.__dict__.get(method)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            setattr(cls, method, tracer.span(name, fn, on_result))


def _subclasses(root: type) -> List[type]:
    seen: List[type] = []
    todo = [root]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def count_engine_results(tracer: Tracer) -> None:
    """Count simulations, simulated events and batched/fallback epochs.

    Wraps ``Engine.finish``, which ``Engine.run``, the executor's
    lockstep loop and ``repro.sim.gang.run_gang`` all call once per
    simulation.  This is the
    only hook the untraced runs install: it costs one call per
    simulation, not per event.
    """
    from repro.sim.engine import Engine

    finish = Engine.finish

    @functools.wraps(finish)
    def counted(self):
        result = finish(self)
        tracer.count("sim.simulations")
        tracer.count("sim.events", result.reads + result.writes)
        tracer.count("sim.epochs_batched", getattr(self, "batched_epochs", 0))
        tracer.count("sim.epochs_fallback",
                     getattr(self, "fallback_epochs", 0))
        return result

    Engine.finish = counted


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured ``repro`` layer."""
    import repro.analysis.modelcheck  # noqa: F401  (bind names to rebind)
    import repro.analysis.modelcheck_tardis  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.serve  # noqa: F401
    from repro.coherence.api import CoherenceScheme
    from repro.coherence.batch import _BatchKernel
    from repro.runtime import ArtifactCache, Job, ParallelExecutor
    from repro.serve.service import SimulationService
    from repro.sim.engine import Engine

    count_engine_results(tracer)

    def hits(result) -> None:
        tracer.count("runtime.cache_hits", result is not None)

    def preapplied(result) -> None:
        tracer.count("batch.preapply_ok", bool(result))

    def generated(result) -> None:
        tracer.count("trace.events", result.n_events)

    def checked(protocol: str):
        def note(result) -> None:
            where = ("analysis.selftest.states"
                     if tracer.within("analysis.selftest")
                     else f"analysis.{protocol}.states")
            tracer.count(where, result.states)
        return note

    _wrap_function(tracer, "repro.workloads.registry", "build_workload",
                   "workloads.build")
    _wrap_function(tracer, "repro.compiler.marking", "mark_program",
                   "compiler.mark")
    _wrap_function(tracer, "repro.trace.generate", "generate_columnar",
                   "trace.generate", generated)
    _wrap_function(tracer, "repro.sim.gang", "prime_group", "gang.prime")
    _wrap_function(tracer, "repro.sim.gang", "run_gang", "gang.run")
    _wrap_function(tracer, "repro.serve.payloads", "simulate_payload",
                   "serve.payload")
    _wrap_function(tracer, "repro.serve.payloads", "json_bytes",
                   "serve.payload")
    _wrap_function(tracer, "repro.analysis.modelcheck", "check_config",
                   "analysis.tpi.check", checked("tpi"))
    _wrap_function(tracer, "repro.analysis.modelcheck_tardis",
                   "tardis_check_config", "analysis.tardis.check",
                   checked("tardis"))
    for module, attr in (("repro.analysis.modelcheck", "protocol_self_test"),
                         ("repro.analysis.modelcheck_tardis",
                          "tardis_self_test")):
        _wrap_function(tracer, module, attr, "analysis.selftest")
    for module, attr in (("repro.analysis.modelcheck",
                          "replay_counterexample"),
                         ("repro.analysis.modelcheck_tardis",
                          "replay_tardis_counterexample")):
        _wrap_function(tracer, module, attr, "analysis.replay")

    # ``step`` rather than ``run``: the executor and ``run_gang`` drive
    # engines epoch by epoch and never call ``run``.
    _wrap_methods(tracer, [Engine], ["step"], "sim.simulate")
    _wrap_methods(tracer, _subclasses(CoherenceScheme), ["read", "write"],
                  "coherence.exact")
    kernels = _subclasses(_BatchKernel)
    _wrap_methods(tracer, kernels, ["span"], "batch.span")
    _wrap_methods(tracer, kernels, ["boundary"], "batch.boundary")
    _wrap_methods(tracer, kernels, ["preapply"], "batch.preapply", preapplied)
    _wrap_methods(tracer, [Job], ["fingerprint"], "runtime.fingerprint")
    caches = _subclasses(ArtifactCache)
    _wrap_methods(tracer, caches, ["load"], "runtime.cache_load", hits)
    _wrap_methods(tracer, caches, ["store"], "runtime.cache_store")
    _wrap_methods(tracer, [ParallelExecutor], ["run"], "runtime.executor")
    _wrap_methods(tracer, [SimulationService], ["answer"], "serve.answer")
    _wrap_methods(tracer, [SimulationService], ["parse_simulate"],
                  "serve.parse")


# --------------------------------------------------------- layer metrics

# The ids of ``repro.experiments.EXPERIMENTS``, in its order (the suite
# order of ``repro experiment all``), listed here so the orchestrator
# can name the metrics without importing ``repro``.
EXPERIMENT_IDS: Tuple[str, ...] = (
    "fig5_storage", "fig8_params", "tab_marking", "fig11_miss_rates",
    "fig12_classification", "fig13_traffic", "tab_latency", "fig14_exectime",
    "fig15_timetag", "fig16_linesize", "fig17_wbuffer", "fig18_migration",
    "fig19_consistency", "fig20_update", "fig21_cache", "fig22_breakdown",
    "fig23_scaling", "fig23_scaling_x", "fig24_timeline",
    "fig25_taggranularity", "cmp_coherence",
)

# (metric, span or counter name, field): "calls" counts spans, "self_s"
# sums self time, "incl_s" inclusive time, "value" sums logged counts.
LAYER_FIELDS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.build_calls", "workloads.build", "calls"),
    ("workloads.build_s", "workloads.build", "self_s"),
    ("compiler.mark_calls", "compiler.mark", "calls"),
    ("compiler.mark_s", "compiler.mark", "self_s"),
    ("trace.generate_calls", "trace.generate", "calls"),
    ("trace.generate_s", "trace.generate", "self_s"),
    ("trace.events", "trace.events", "value"),
    ("gang.prime_calls", "gang.prime", "calls"),
    ("gang.prime_s", "gang.prime", "self_s"),
    ("gang.run_s", "gang.run", "self_s"),
    ("sim.simulate_calls", "sim.simulations", "value"),
    ("sim.simulate_s", "sim.simulate", "self_s"),
    ("sim.epochs_batched", "sim.epochs_batched", "value"),
    ("sim.epochs_fallback", "sim.epochs_fallback", "value"),
    ("sim.events", "sim.events", "value"),
    ("coherence.exact_calls", "coherence.exact", "calls"),
    ("coherence.exact_s", "coherence.exact", "self_s"),
    ("batch.span_calls", "batch.span", "calls"),
    ("batch.span_s", "batch.span", "self_s"),
    ("batch.boundary_calls", "batch.boundary", "calls"),
    ("batch.boundary_s", "batch.boundary", "self_s"),
    ("batch.preapply_calls", "batch.preapply", "calls"),
    ("batch.preapply_s", "batch.preapply", "self_s"),
    ("runtime.fingerprint_calls", "runtime.fingerprint", "calls"),
    ("runtime.fingerprint_s", "runtime.fingerprint", "self_s"),
    ("runtime.cache_loads", "runtime.cache_load", "calls"),
    ("runtime.cache_load_s", "runtime.cache_load", "self_s"),
    ("runtime.cache_stores", "runtime.cache_store", "calls"),
    ("runtime.cache_store_s", "runtime.cache_store", "self_s"),
    ("runtime.executor_s", "runtime.executor", "self_s"),
    ("serve.requests", "serve.answer", "calls"),
    ("serve.answer_s", "serve.answer", "self_s"),
    ("serve.parse_s", "serve.parse", "self_s"),
    ("serve.payload_s", "serve.payload", "self_s"),
    ("analysis.tpi.states", "analysis.tpi.states", "value"),
    ("analysis.tpi.check_s", "analysis.tpi.check", "self_s"),
    ("analysis.tardis.states", "analysis.tardis.states", "value"),
    ("analysis.tardis.check_s", "analysis.tardis.check", "self_s"),
    ("analysis.selftest_s", "analysis.selftest", "incl_s"),
    ("analysis.replay_calls", "analysis.replay", "calls"),
    ("analysis.replay_s", "analysis.replay", "incl_s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Map a :func:`summarize` result onto the per-layer metric names.

    Seconds are totals over the traced work; layers the workload never
    reaches read 0.  ``analysis.selftest_s`` and ``analysis.replay_s``
    are inclusive: the mutant checks and replays run inside the
    self-tests.
    """
    def get(name: str, field: str) -> float:
        return float(summary.get(name, {}).get(field, 0.0))

    out = {metric: get(name, field) for metric, name, field in LAYER_FIELDS}
    batched, fallback = out["sim.epochs_batched"], out["sim.epochs_fallback"]
    out["sim.batched_frac"] = _ratio(batched, batched + fallback)
    out["batch.preapply_ok_frac"] = _ratio(get("batch.preapply_ok", "value"),
                                           out["batch.preapply_calls"])
    out["runtime.cache_hit_frac"] = _ratio(get("runtime.cache_hits", "value"),
                                           out["runtime.cache_loads"])
    for exp in EXPERIMENT_IDS:
        out[f"experiments.{exp}.wall_s"] = get(f"experiments.{exp}", "incl_s")
    return out
