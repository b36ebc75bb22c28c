"""Layer tracer: times and counts calls into the repro modules from outside.

Nothing in ``src/`` knows about this module.  :func:`install` replaces each
layer's public functions and methods with a wrapper that records the call
count, the inclusive time and the *self* time (inclusive time minus the time
spent in other wrapped calls underneath it) and then puts the originals back
on :meth:`Tracer.uninstall`.  Module-level functions are rebound in every
loaded ``repro`` module that imported them by name (``runner.generate_trace``
is such a binding), so callers see the wrapper wherever they look it up.

The benchmark's untraced runs never import this module's wrappers: wrapping
the simulator's per-uop methods costs about a microsecond per call, which is
reported as the tracing overhead of the traced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Cache lookups whose non-None result counts as a hit.
CACHE_GETS = ("repro.experiments.cache:ResultCache.get",
              "repro.experiments.cache:ResultCache.get_smt",
              "repro.experiments.cache:ReportCache.get")

#: Layer name -> wrapped targets, each ``"module:Attr.path"``.  A
#: ``module:DICT[]`` target wraps every value of a registry dictionary.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "workloads.generate_trace": ("repro.workloads.generator:generate_trace",),
    "analysis.inspect_trace": ("repro.analysis.load_inspector:inspect_trace",),
    "orchestrator.plan": (
        "repro.experiments.orchestrator:SweepOrchestrator.execute",
        "repro.experiments.orchestrator:SweepOrchestrator._merge_plans",
        "repro.experiments.runner:ExperimentRunner.plan_jobs",
        "repro.experiments.runner:ExperimentRunner.plan_smt_jobs",
    ),
    "parallel.wave": (
        "repro.experiments.parallel:ParallelExperimentRunner._supervise",),
    "parallel.worker_job": ("repro.experiments.parallel:run_supervised",),
    "pipeline.build": ("repro.pipeline.cpu:OutOfOrderCore.__init__",),
    "pipeline.simulate": ("repro.pipeline.cpu:OutOfOrderCore.run",),
    "pipeline.stages": (
        "repro.pipeline.cpu:OutOfOrderCore._run_event_engine",
        "repro.pipeline.cpu:OutOfOrderCore._run_cycle_engine",
    ),
    "memory.load_access": ("repro.memory.hierarchy:MemoryHierarchy.load_access",),
    "memory.store_access": ("repro.memory.hierarchy:MemoryHierarchy.store_access",),
    "memory.prefetcher": (
        "repro.memory.prefetcher:StridePrefetcher.observe",
        "repro.memory.prefetcher:StreamPrefetcher.observe",
    ),
    "frontend.branch": (
        "repro.frontend.branch_predictor:BranchPredictor.predict_taken",
        "repro.frontend.branch_predictor:BranchPredictor.resolve_at_writeback",
    ),
    "core.constable": tuple(
        f"repro.core.constable:ConstableEngine.{name}" for name in (
            "on_load_rename", "on_register_write", "on_load_writeback",
            "on_store_address", "on_snoop", "on_l1_eviction",
            "on_ordering_violation", "release_xprf", "begin_cycle")),
    "lvp.eves": (
        "repro.lvp.eves:EvesPredictor.predict",
        "repro.lvp.eves:EvesPredictor.train",
        "repro.lvp.eves:EvesPredictor.record_outcome",
    ),
    "rename.classify": ("repro.rename.optimizations:RenameOptimizer.classify",),
    "cache.get": CACHE_GETS,
    "cache.put": (
        "repro.experiments.cache:ResultCache.put",
        "repro.experiments.cache:ResultCache.put_smt",
        "repro.experiments.cache:ReportCache.put",
    ),
    "warehouse.append": ("repro.experiments.warehouse:WarehouseWriter.append",),
    "figures.harness": ("repro.experiments.figures:FIGURE_HARNESSES[]",),
}

#: Additive counters: simulator statistics summed over every
#: ``OutOfOrderCore.run`` call, plus cache lookups that hit.
COUNTERS = ("instructions", "uops_renamed", "rs_issues", "loads_executed",
                "flushes", "stepped_cycles", "skipped_cycles",
                "loads_eliminated", "constable_loads_seen", "l1d_hits",
                "l1d_accesses", "dram_accesses", "cache_hits")


def _simulation_counters(core, result) -> Dict[str, int]:
    stats = result.stats
    constable = result.constable_stats or {}
    l1d = result.memory_stats.get("l1d", {})
    return {
        "instructions": result.instructions,
        "uops_renamed": stats.uops_renamed,
        "rs_issues": stats.rs_issues,
        "loads_executed": stats.loads_executed,
        "flushes": stats.flushes,
        "stepped_cycles": core.stepped_cycles,
        "skipped_cycles": core.skipped_idle_cycles,
        "loads_eliminated": int(constable.get("loads_eliminated", 0)),
        "constable_loads_seen": int(constable.get("loads_seen", 0)),
        "l1d_hits": int(l1d.get("hits", 0)),
        "l1d_accesses": int(l1d.get("accesses", 0)),
        "dram_accesses": int(result.memory_stats.get("dram_accesses", 0)),
    }


def _resolve(target: str):
    """``(owner, attribute name, current value)`` for one layer target."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name, getattr(owner, name)


class Tracer:
    """Per-layer call records for one process, plus simulator counters."""

    def __init__(self, dump_dir: Optional[str] = None):
        #: layer -> [calls, inclusive seconds, self seconds]
        self.layers: Dict[str, List[float]] = {name: [0, 0.0, 0.0]
                                               for name in LAYERS}
        #: Inclusive milliseconds of every ``OutOfOrderCore.run`` call.
        self.job_ms: List[float] = []
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.dedup: Dict[str, int] = {}
        self.runners: List[object] = []
        #: Seconds ``import repro.cli`` took before the wrappers went in.
        self.import_s = 0.0
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self._stack: List[float] = []
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------- wrapping

    def _wrapper(self, fn: Callable, layer: str,
                 after: Optional[Callable] = None) -> Callable:
        record = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result, elapsed)
            return result

        return traced

    def _after_simulate(self, args, result, elapsed: float) -> None:
        self.job_ms.append(elapsed * 1000.0)
        for key, value in _simulation_counters(args[0], result).items():
            self.counters[key] += value

    def _after_cache_get(self, args, result, elapsed: float) -> None:
        if result is not None:
            self.counters["cache_hits"] += 1

    def _after_wave(self, args, stats, elapsed: float) -> None:
        for key in ("planned", "unique", "cache_warm", "executed"):
            self.dedup[key] = self.dedup.get(key, 0) + getattr(stats, key)

    def _after_plan(self, args, jobs, elapsed: float) -> None:
        # Remember each runner, to read its supervision counters at the end.
        if not any(runner is args[0] for runner in self.runners):
            self.runners.append(args[0])

    def _before_worker_job(self, fn: Callable) -> Callable:
        # A forked pool worker inherits the parent's records; drop them on
        # its first job so each process reports only its own calls, and
        # dump after every job because pool workers exit without atexit.
        @functools.wraps(fn)
        def job(*args, **kwargs):
            if os.getpid() != self.pid:
                self.reset()
            try:
                return fn(*args, **kwargs)
            finally:
                self.dump()

        return job

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        """Wrap every layer target; returns ``self``."""
        extra_after = dict.fromkeys(CACHE_GETS, self._after_cache_get)
        extra_after.update({
            "repro.pipeline.cpu:OutOfOrderCore.run": self._after_simulate,
            "repro.experiments.orchestrator:SweepOrchestrator.execute":
                self._after_wave,
            "repro.experiments.runner:ExperimentRunner.plan_jobs":
                self._after_plan,
        })
        for layer, targets in LAYERS.items():
            for target in targets:
                if target.endswith("[]"):
                    owner, name, registry = _resolve(target[:-2])
                    for key, fn in list(registry.items()):
                        self._restore.append((registry, key, fn))
                        registry[key] = self._wrapper(fn, layer)
                    continue
                owner, name, fn = _resolve(target)
                wrapped = self._wrapper(fn, layer, extra_after.get(target))
                if layer == "parallel.worker_job":
                    wrapped = self._before_worker_job(wrapped)
                if isinstance(owner, type):
                    self._set(owner, name, wrapped)
                else:
                    self._rebind(fn, wrapped)
        return self

    def _rebind(self, fn: Callable, wrapped: Callable) -> None:
        """Replace ``fn`` in every loaded repro module that binds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every original function and method."""
        while self._restore:
            owner, name, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    # ------------------------------------------------------------ recording

    def reset(self) -> None:
        """Forget every record (a forked worker starts from zero)."""
        for record in self.layers.values():
            record[:] = [0, 0.0, 0.0]
        self.job_ms.clear()
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.dedup.clear()
        self.runners.clear()
        self.import_s = 0.0
        self.pid = os.getpid()

    def snapshot(self) -> Dict[str, object]:
        """This process's records as plain JSON data."""
        health: Dict[str, int] = {}
        for runner in self.runners:
            for key, value in runner.health.counters().items():
                health[key] = health.get(key, 0) + value
        return {"layers": {name: list(record)
                           for name, record in self.layers.items()},
                "job_ms": list(self.job_ms), "counters": dict(self.counters),
                "dedup": dict(self.dedup), "health": health,
                "import_s": self.import_s}

    def dump(self) -> None:
        """Write :meth:`snapshot` to ``<dump_dir>/<pid>.json`` atomically."""
        if self.dump_dir is None:
            return
        path = Path(self.dump_dir) / f"{os.getpid()}.json"
        temporary = path.with_suffix(".tmp")
        temporary.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        os.replace(temporary, path)


def merge(snapshots: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum several processes' snapshots into one."""
    merged = Tracer().snapshot()
    for snapshot in snapshots:
        for name, record in snapshot["layers"].items():
            merged["layers"][name] = [a + b for a, b in
                                      zip(merged["layers"][name], record)]
        merged["job_ms"].extend(snapshot["job_ms"])
        merged["import_s"] += snapshot["import_s"]
        for field in ("counters", "dedup", "health"):
            for key, value in snapshot[field].items():
                merged[field][key] = merged[field].get(key, 0) + value
    return merged


def load_dumps(dump_dir: str) -> Dict[str, object]:
    """Merge every per-process dump under ``dump_dir``."""
    return merge([json.loads(path.read_text(encoding="utf-8"))
                  for path in sorted(Path(dump_dir).glob("*.json"))])
