"""Parallel, sharded experiment execution over a process pool.

:class:`ParallelExperimentRunner` reuses the whole planning/aggregation core of
:class:`~repro.experiments.runner.ExperimentRunner` and overrides only its
two hooks:

* ``_execute_wave`` — every outstanding simulation of a wave is sharded
  across ``max_workers`` OS processes; workers regenerate the traces, each
  thread at its own base PC,
* ``_generate_workloads`` — cold-start trace synthesis plus Load Inspector
  analysis of every workload whose report is not cached shards across the
  pool too, so even the first run of a sweep scales with the core count;
  only the reports travel back to the parent.

Determinism guarantees (enforced by ``tests/test_parallel_determinism.py``):

* **Per-spec seeding.**  Trace generation is a pure function of the
  :class:`WorkloadSpec` (whose embedded seed drives every RNG in the pipeline),
  the instruction budget, the register count and the base PC.  A workload's
  trace is therefore bit-identical in every worker and to the serial
  runner's, regardless of worker count or how jobs land on shards.
* **Order-independent merge.**  Results are merged into dictionaries keyed by
  ``(config, workload)`` (a pair's workload is ``a+b``) as futures complete;
  since each key appears in at most one job per wave, completion order cannot
  change the merged value, and downstream aggregation (speedups, geomeans)
  iterates over the runner's workload order, never shard order.
* **Deterministic sharding.**  Jobs are submitted in sorted key order so a
  fixed worker count also yields a reproducible shard assignment.

Worker processes memoise regenerated traces keyed by (workload, instruction
budget, register count, base PC), so a sweep running many configurations over
the same workloads pays trace regeneration once per worker, not once per job —
and a worker that generated a trace during the cold start reuses it for every
simulation job it later receives.

**Failure semantics** (see docs/ARCHITECTURE.md): every payload runs through
:func:`run_supervised`, which turns an exception into a pickle-safe
:class:`JobExecutionError` naming the job's ``sim:<config>/<workload>`` (or
``gen:<workload>``) label and carrying the worker's traceback text.  The
simulator is deterministic, so a failed job is never retried: it is
dead-lettered at once while the rest of the wave runs on, and a worker that
dies dead-letters every job still in flight and drops the broken pool (the
next wave starts a fresh one).  Dead letters raise
:class:`~repro.experiments.runner.SweepExecutionError` carrying the wave's
successes, which the commit layer journals to the on-disk cache, so a rerun
executes only the missing jobs.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.load_inspector import GlobalStableReport, inspect_trace
from repro.experiments.cache import ReportCache, ResultCache
from repro.experiments.runner import (
    DeadLetter,
    ExperimentRunner,
    JobOutcome,
    SimulationJob,
    SweepExecutionError,
    WorkloadRun,
)
from repro.pipeline.config import CoreConfig
from repro.pipeline.cpu import OutOfOrderCore
from repro.workloads.generator import DEFAULT_BASE_PC, THREAD_BASE_PCS, generate_trace
from repro.workloads.suites import SUITE_NAMES, WorkloadSpec
from repro.workloads.trace import Trace

# Everything a worker runs loads with this module, before the pool forks, so
# no worker compiles it again: the timing model above, and the kernel library
# and VM that the generator would otherwise import with its first trace.
import repro.workloads.kernels  # noqa: E402,F401
import repro.workloads.vm  # noqa: E402,F401

#: The pool's process context: fork (cheap, shares the imported simulator)
#: where the platform has it, else the platform's default.
_POOL_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)

#: Per-worker memo of regenerated traces:
#: (workload, instructions, registers, base_pc) -> Trace.
_WORKER_TRACES: Dict[Tuple[str, int, int, int], Trace] = {}


def _regenerate_trace(spec_dict: Dict[str, object], instructions: int,
                      num_registers: int,
                      base_pc: int = DEFAULT_BASE_PC) -> Trace:
    """Deterministically rebuild (and memoise) a workload trace in this worker."""
    key = (str(spec_dict["name"]), instructions, num_registers, base_pc)
    trace = _WORKER_TRACES.get(key)
    if trace is None:
        spec = WorkloadSpec.from_dict(spec_dict)
        trace = generate_trace(spec, num_instructions=instructions,
                               num_registers=num_registers, base_pc=base_pc)
        _WORKER_TRACES[key] = trace
    return trace


def simulate_keyed_job_payload(
        payload: Tuple[str, Tuple[Dict[str, object], ...], int, int, CoreConfig]
) -> Tuple[Tuple[str, str], JobOutcome]:
    """Worker entry point for one job of a wave.

    Regenerates each thread's trace at its base PC (memoised under that PC),
    simulates, and returns the result with the run's capacity witness beside
    it, keyed by ``(config_name, workload)``, so one wave may carry jobs for
    many configurations without the merged keys colliding.  Module-level
    (not a closure) so it pickles under every start method.
    """
    config_name, spec_dicts, instructions, num_registers, config = payload
    traces = [_regenerate_trace(spec_dict, instructions, num_registers, base_pc)
              for spec_dict, base_pc in zip(spec_dicts, THREAD_BASE_PCS)]
    core = OutOfOrderCore(config, traces, name=config_name)
    workload = "+".join(str(spec_dict["name"]) for spec_dict in spec_dicts)
    return (config_name, workload), JobOutcome(core.run(), core.capacity_witness())


def generate_workload_payload(payload: Tuple[Dict[str, object], int, int]
                              ) -> Tuple[str, GlobalStableReport]:
    """Worker entry point for cold-start generation: inspect a workload's trace.

    Only the report travels back to the parent.  The generated trace lands in
    the worker's memo, so simulation jobs later dispatched to this worker
    reuse it.
    """
    spec_dict, instructions, num_registers = payload
    trace = _regenerate_trace(spec_dict, instructions, num_registers)
    return str(spec_dict["name"]), inspect_trace(trace)


# ------------------------------------------------------------------ supervision

#: A pool task: the payload function, its argument and the job's label.
Task = Tuple[Callable[[object], object], object, str]


class JobExecutionError(RuntimeError):
    """A payload failed in a worker; names the job and carries its traceback.

    Raised worker-side by :func:`run_supervised` so that by the time the
    failure crosses the process boundary it already says *which* job died
    (``label`` is ``sim:<config>/<workload>`` etc.) and *why*
    (``remote_traceback`` is the fully formatted worker-side traceback —
    exception objects lose their traceback in pickling, text does not).
    """

    def __init__(self, label: str, remote_traceback: str):
        last_line = remote_traceback.strip().splitlines()[-1] \
            if remote_traceback.strip() else "unknown error"
        super().__init__(f"job {label} failed: {last_line}")
        self.label = label
        self.remote_traceback = remote_traceback

    def __reduce__(self):
        # Multi-argument exception __init__ breaks default unpickling; spell
        # the reconstruction out so the error survives the trip home.
        return (JobExecutionError, (self.label, self.remote_traceback))


def run_supervised(fn: Callable[[object], object], payload: object,
                   label: str) -> object:
    """Worker-side wrapper around every payload execution.

    Converts every payload exception into a :class:`JobExecutionError`
    naming the job, so no failure reaches the parent anonymously.
    """
    try:
        return fn(payload)
    except Exception:
        raise JobExecutionError(label, traceback.format_exc()) from None


class ParallelExperimentRunner(ExperimentRunner):
    """Shards trace generation and simulation jobs across worker processes.

    Everything else — planning, result caching, speedup/geomean aggregation,
    the on-disk :class:`ResultCache`/:class:`ReportCache` protocols — is
    inherited from the serial runner, so the two are drop-in interchangeable
    anywhere an :class:`ExperimentRunner` is accepted (figure harnesses,
    the CLI, examples).  In particular every cache write stays
    parent-side: workers return results over the pool and the wave's commit
    calls ``cache.put`` here, which is also what
    appends each entry's warehouse row — N workers never contend on
    the warehouse, and its rows stay in lockstep with the resume journal.
    """

    def __init__(self, per_suite: Optional[int] = 2, instructions: int = 6000,
                 num_registers: int = 16,
                 suites: Sequence[str] = SUITE_NAMES,
                 cache: Optional[ResultCache] = None,
                 report_cache: Optional[ReportCache] = None,
                 max_workers: Optional[int] = None):
        super().__init__(per_suite=per_suite, instructions=instructions,
                         num_registers=num_registers, suites=suites,
                         cache=cache, report_cache=report_cache)
        if max_workers is None:
            max_workers = min(4, os.cpu_count() or 1)
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None

    # ----------------------------------------------------------------- executor

    def _executor(self) -> ProcessPoolExecutor:
        """The lazily created, reused worker pool (keeps worker trace memos warm)."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers,
                                             mp_context=_POOL_CONTEXT)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down; the runner may be reused (pool respawns).

        Also flushes cache counters to the counters table (the parent owns
        all cache I/O — workers only simulate — so the parent-side flush
        captures the whole run).
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        super().close()

    # --------------------------------------------------------------- supervisor

    def _supervise(self, tasks: Sequence[Task]) -> List[object]:
        """Submit every task to the pool, then collect every outcome.

        A task that raises is dead-lettered with its label and the worker's
        traceback while the other tasks run on.  A worker that dies breaks
        the pool: every task still in flight is dead-lettered and the broken
        pool is dropped, so the next wave starts a fresh one.  Raises
        :class:`SweepExecutionError` (successes attached) if any task
        dead-lettered; otherwise returns every task's result.
        """
        if not tasks:
            return []
        pool = self._executor()
        submitted: List[Tuple[str, Future]] = []
        for fn, payload, label in tasks:
            try:
                future = pool.submit(run_supervised, fn, payload, label)
            except BrokenExecutor as error:  # a worker died mid-submission
                future = Future()
                future.set_exception(error)
            submitted.append((label, future))
        results: List[object] = []
        dead: List[DeadLetter] = []
        broken = False
        for label, future in submitted:
            try:
                results.append(future.result())
            except JobExecutionError as error:
                dead.append(DeadLetter(label, error.remote_traceback))
            except BrokenExecutor:
                broken = True
                dead.append(DeadLetter(label, f"a worker process died while "
                                              f"{label} was in flight"))
        if broken:
            self._pool = None
            pool.shutdown(wait=True)
        if dead:
            self.health.dead_letters.extend(dead)
            error = SweepExecutionError(dead)
            error.results = results
            raise error
        return results

    # ---------------------------------------------------------------- execution

    def _execute_wave(self, jobs: Sequence[SimulationJob]
                      ) -> Dict[Tuple[str, str], JobOutcome]:
        """Feed a multi-configuration batch into one pool submission.

        Every job, across every configuration in the batch, is submitted up
        front, so the pool stays continuously fed for the whole wave instead
        of draining at each per-configuration barrier.  Submission order is
        sorted by :attr:`SimulationJob.key` for a reproducible shard
        assignment; outcomes merge keyed by those same tuples, so completion
        order never affects the merged value.
        """
        if not jobs or self.max_workers == 1:
            return super()._execute_wave(jobs)
        self.health.jobs += len(jobs)
        tasks = [(simulate_keyed_job_payload,
                  (job.config_name, tuple(run.spec.to_dict() for run in job.runs),
                   self.instructions, self.num_registers, job.config),
                  job.label)
                 for job in sorted(jobs, key=lambda job: job.key)]
        try:
            return dict(self._supervise(tasks))
        except SweepExecutionError as error:
            error.partial = dict(error.results)
            raise

    # --------------------------------------------------------------- generation

    def _generate_workloads(self, specs: Sequence[WorkloadSpec]) -> Dict[str, WorkloadRun]:
        """Shard the inspection of every uncached workload across the pool.

        Load Inspector reports are looked up in the on-disk report cache from
        the parent first, so a ``gen:<workload>`` task is dispatched only for
        a workload whose report is genuinely missing, and a fully warm run
        dispatches none.  Fresh reports are published back to the cache as
        shards complete — including the completed shards of a *failed*
        generation pass, so even a cold start that dead-letters leaves its
        finished inspection work journalled.
        """
        if not specs or self.max_workers == 1:
            return super()._generate_workloads(specs)
        specs_by_name = {spec.name: spec for spec in specs}
        reports: Dict[str, GlobalStableReport] = {}
        for spec in specs:
            report = self._cached_report(spec)
            if report is not None:
                reports[spec.name] = report
        tasks = [(generate_workload_payload,
                  (spec.to_dict(), self.instructions, self.num_registers),
                  f"gen:{spec.name}")
                 for spec in sorted(specs, key=lambda spec: spec.name)
                 if spec.name not in reports]

        def publish(fresh: Sequence[Tuple[str, GlobalStableReport]]) -> None:
            for name, report in fresh:
                self._publish_report(specs_by_name[name], report)
                reports[name] = report

        try:
            publish(self._supervise(tasks))
        except SweepExecutionError as error:
            publish(error.results)
            raise
        return {spec.name: WorkloadRun(spec=spec, report=reports[spec.name])
                for spec in specs}
