"""Parallel, sharded experiment execution over a supervised process pool.

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

**Failure semantics** (the supervision layer; see docs/ARCHITECTURE.md):
every payload runs through :func:`run_supervised`, which names failures with
the job's ``sim:<config>/<workload>`` label and ships the remote traceback
text home inside a pickle-safe :class:`JobExecutionError`.  The parent-side
supervisor (:meth:`ParallelExperimentRunner._supervise`) gives each job a
retry budget (``1 + max_retries`` pool attempts with exponential backoff), an
optional per-attempt wall timeout (``job_timeout``; both are constructor
arguments only, checked by :func:`check_supervision`), rebuilds the pool
when a dying worker breaks it (``BrokenProcessPool``), validates every
returned value (corrupted results are retried, never merged) and, once the
pool budget is exhausted, degrades the job to one in-process serial attempt
before dead-lettering it.
A model error (:class:`~repro.pipeline.cpu.GoldenCheckError`) is
deterministic, so it is dead-lettered on its first attempt instead.
Dead letters raise :class:`~repro.experiments.runner.SweepExecutionError`
carrying the wave's successes, which the commit layer journals to the on-disk
cache so a rerun executes only the missing jobs.  Simulation payloads are pure
functions of their job, so retries cannot change results — a sweep that limps
home through retries is bit-identical to one that never faulted.  The
:data:`~repro.experiments.faults.FAULT_PLAN_ENV` chaos harness injects
worker-side crashes/hangs/corruption to prove all of this deterministically.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.load_inspector import GlobalStableReport, inspect_trace
from repro.experiments.cache import ReportCache, ResultCache
from repro.experiments.faults import active_fault_plan, corrupt_result, maybe_inject
from repro.experiments.runner import (
    DeadLetter,
    ExperimentRunner,
    SimulationJob,
    SweepExecutionError,
    WorkloadRun,
)
from repro.pipeline.config import CoreConfig
from repro.pipeline.cpu import GoldenCheckError, OutOfOrderCore
from repro.pipeline.stats import SimulationResult
from repro.workloads.generator import DEFAULT_BASE_PC, THREAD_BASE_PCS, generate_trace
from repro.workloads.suites import SUITE_NAMES, WorkloadSpec
from repro.workloads.trace import Trace

#: Pool retry budget unless ``max_retries`` says otherwise.
DEFAULT_MAX_RETRIES = 2

#: Delay before a failed job's first retry; it doubles on each later retry.
RETRY_BACKOFF_SECONDS = 0.05

#: How long the supervisor's wait() poll lasts between bookkeeping passes.
_SUPERVISOR_POLL_SECONDS = 0.05

#: The pool's process context: fork (cheap, shares the imported simulator)
#: where the platform has it, else the platform's default.
_POOL_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)

#: Per-worker memo of regenerated traces:
#: (workload, instructions, registers, base_pc) -> Trace.
_WORKER_TRACES: Dict[Tuple[str, int, int, int], Trace] = {}


def check_supervision(max_retries: int, job_timeout: Optional[float]) -> None:
    """Reject a negative retry budget or a timeout that is not a positive
    number of seconds (None means no timeout)."""
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if job_timeout is not None and (not math.isfinite(job_timeout)
                                    or job_timeout <= 0):
        raise ValueError("job_timeout must be a positive number of seconds")


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
) -> Tuple[Tuple[str, str], SimulationResult]:
    """Worker entry point for one job of a wave.

    Regenerates each thread's trace at its base PC (memoised under that PC),
    simulates, and returns the result keyed by ``(config_name, workload)``, so
    one wave may carry jobs for many configurations without the merged keys
    colliding.  Module-level (not a closure) so it pickles under every start
    method.
    """
    config_name, spec_dicts, instructions, num_registers, config = payload
    traces = [_regenerate_trace(spec_dict, instructions, num_registers, base_pc)
              for spec_dict, base_pc in zip(spec_dicts, THREAD_BASE_PCS)]
    core = OutOfOrderCore(config, traces, name=config_name)
    workload = "+".join(str(spec_dict["name"]) for spec_dict in spec_dicts)
    return (config_name, workload), core.run()


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

class JobExecutionError(RuntimeError):
    """A payload failed in a worker; names the job and carries its traceback.

    Raised worker-side by :func:`run_supervised` so that by the time the
    failure crosses the process boundary it already says *which* job died
    (``label`` is ``sim:<config>/<workload>`` etc.) and *why*
    (``remote_traceback`` is the fully formatted worker-side traceback —
    exception objects lose their traceback in pickling, text does not).
    ``retryable`` is False for a deterministic model error, which another
    attempt would only repeat.
    """

    def __init__(self, label: str, attempt: int, remote_traceback: str,
                 retryable: bool = True):
        last_line = remote_traceback.strip().splitlines()[-1] \
            if remote_traceback.strip() else "unknown error"
        super().__init__(f"job {label} failed on attempt {attempt}: {last_line}")
        self.label = label
        self.attempt = attempt
        self.remote_traceback = remote_traceback
        self.retryable = retryable

    def __reduce__(self):
        # Multi-argument exception __init__ breaks default unpickling; spell
        # the reconstruction out so the error survives the trip home.
        return (JobExecutionError, (self.label, self.attempt,
                                    self.remote_traceback, self.retryable))


def run_supervised(fn: Callable[[object], object], payload: object,
                   label: str, attempt: int) -> object:
    """Worker-side wrapper around every payload execution.

    Consults the chaos :class:`~repro.experiments.faults.FaultPlan` (if any)
    before and after the payload, and converts every payload exception into a
    :class:`JobExecutionError` naming the job — satellite of the supervision
    contract: no failure may reach the parent anonymously.  A
    :class:`~repro.pipeline.cpu.GoldenCheckError` is marked not retryable.
    """
    maybe_inject(label, attempt)
    try:
        result = fn(payload)
    except Exception as exc:
        raise JobExecutionError(label, attempt, traceback.format_exc(),
                                retryable=not isinstance(exc, GoldenCheckError)
                                ) from None
    return corrupt_result(label, attempt, result)


@dataclass
class _SupervisedTask:
    """Parent-side bookkeeping for one job travelling through the supervisor."""

    fn: Callable[[object], object]
    payload: object
    label: str
    validate: Callable[[object], bool]
    attempts: int = 0
    not_before: float = 0.0
    deadline: float = math.inf
    last_error: str = ""


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

    ``max_retries`` bounds how many times a failed job is resubmitted to the
    pool (default 2); ``job_timeout`` abandons any single attempt running
    longer than that many wall seconds (default none).  Both are supervision
    knobs: they change how a sweep executes, never what is simulated, and
    therefore never enter cache keys (enforced by lint rule RL002).
    """

    def __init__(self, per_suite: Optional[int] = 2, instructions: int = 6000,
                 num_registers: int = 16,
                 suites: Sequence[str] = SUITE_NAMES,
                 cache: Optional[ResultCache] = None,
                 report_cache: Optional[ReportCache] = None,
                 max_workers: Optional[int] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 job_timeout: Optional[float] = None):
        super().__init__(per_suite=per_suite, instructions=instructions,
                         num_registers=num_registers, suites=suites,
                         cache=cache, report_cache=report_cache)
        if max_workers is None:
            max_workers = min(4, os.cpu_count() or 1)
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        check_supervision(max_retries, job_timeout)
        self.max_workers = max_workers
        self.max_retries = max_retries
        self.job_timeout = job_timeout
        self._pool: Optional[ProcessPoolExecutor] = None
        # Validate any chaos plan eagerly: a typo'd REPRO_FAULT_PLAN must die
        # here, loudly, not silently inject nothing inside the workers.
        active_fault_plan()

    # ----------------------------------------------------------------- executor

    def _executor(self) -> ProcessPoolExecutor:
        """The lazily created, reused worker pool (keeps worker trace memos warm).

        A pool whose worker died (OOM kill, injected crash) is permanently
        broken — every later submit raises ``BrokenProcessPool`` — so a broken
        cached pool is discarded and respawned here instead of poisoning every
        subsequent call until ``close()``.
        """
        if self._pool is not None and getattr(self._pool, "_broken", False):
            self._discard_pool()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers,
                                             mp_context=_POOL_CONTEXT)
        return self._pool

    def _discard_pool(self, terminate: bool = False) -> None:
        """Drop the cached pool (counted as a rebuild); optionally kill workers.

        ``terminate=True`` is the hung-job escape hatch: a worker stuck in a
        payload would keep ``shutdown(wait=False)`` from ever reaping it, so
        the supervisor terminates the worker processes outright before
        shutting the executor machinery down.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self.health.pool_rebuilds += 1
        if terminate:
            processes = getattr(pool, "_processes", None)
            if isinstance(processes, dict):
                for process in list(processes.values()):
                    try:
                        process.terminate()
                    except (OSError, ValueError):
                        pass  # already dead or already closed: goal achieved
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except (OSError, RuntimeError):
            pass  # broken executors may refuse shutdown; pool is dropped anyway

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

    def _fallback_in_process(self, task: _SupervisedTask,
                             results: List[object],
                             dead: List[DeadLetter]) -> None:
        """The last rung: run an exhausted job serially in the parent.

        A job that failed every pool attempt may be the victim of pool-level
        trouble (a neighbour crashing the worker, a resource-starved host)
        rather than broken in itself, so it gets exactly one in-process try
        before being dead-lettered.  The attempt still runs through
        :func:`run_supervised`: worker-scoped faults no-op in the parent, but
        ``"scope": "anywhere"`` rules reach this rung too — that is how tests
        force the dead-letter path deterministically.
        """
        try:
            value = run_supervised(task.fn, task.payload, task.label,
                                   task.attempts + 1)
        except Exception:
            dead.append(DeadLetter(task.label, task.attempts, task.last_error,
                                   fallback_error=traceback.format_exc()))
            return
        if task.validate(value):
            self.health.degraded += 1
            results.append(value)
        else:
            dead.append(DeadLetter(
                task.label, task.attempts, task.last_error,
                fallback_error="in-process result failed validation"))

    def _supervise(self, tasks: Sequence[_SupervisedTask]) -> List[object]:
        """Run every task to completion with retries, timeouts and rebuilds.

        The loop submits ready tasks (backoff-gated), polls the pending
        futures, and classifies every completion:

        * a validated result is accepted;
        * a model error (a :class:`JobExecutionError` that is not
          ``retryable``) dead-letters at once;
        * an invalid result (corruption) or any other failure consumes one
          attempt — the task retries with exponential backoff while its
          budget (``1 + max_retries`` pool attempts) lasts, then degrades to
          one in-process attempt, then dead-letters;
        * a cancelled future never ran (pool rebuild collateral), so its
          attempt is refunded and the task requeues immediately;
        * an attempt exceeding ``job_timeout`` is abandoned — and if it cannot
          be cancelled (already running, possibly hung), the pool is torn down
          with its workers terminated so one stuck payload cannot wedge the
          sweep.

        Raises :class:`SweepExecutionError` (successes attached) if any task
        dead-lettered; otherwise returns every task's validated result.
        """
        health = self.health
        health.jobs += len(tasks)
        budget = 1 + self.max_retries
        results: List[object] = []
        dead: List[DeadLetter] = []
        ready: List[_SupervisedTask] = list(tasks)
        pending: Dict[Future, _SupervisedTask] = {}

        def fail(task: _SupervisedTask, error_text: str,
                 timed_out: bool = False) -> None:
            task.last_error = error_text
            if timed_out:
                health.timeouts += 1
            if task.attempts < budget:
                health.retries += 1
                task.not_before = (time.monotonic() + RETRY_BACKOFF_SECONDS
                                   * (2 ** (task.attempts - 1)))
                ready.append(task)
            else:
                self._fallback_in_process(task, results, dead)

        while ready or pending:
            now = time.monotonic()
            held: List[_SupervisedTask] = []
            for task in ready:
                if task.not_before > now:
                    held.append(task)
                    continue
                task.attempts += 1
                health.attempts += 1
                future = self._executor().submit(
                    run_supervised, task.fn, task.payload, task.label,
                    task.attempts)
                task.deadline = (now + self.job_timeout
                                 if self.job_timeout is not None else math.inf)
                pending[future] = task
            ready = held
            if not pending:
                # Everything left is backing off; sleep until the earliest
                # retry becomes ready instead of spinning.
                wake = min(task.not_before for task in ready)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue
            done, _ = wait(list(pending), timeout=_SUPERVISOR_POLL_SECONDS,
                           return_when=FIRST_COMPLETED)
            for future in done:
                task = pending.pop(future)
                try:
                    value = future.result()
                except CancelledError:
                    # Never ran (rebuild collateral): refund the attempt.
                    task.attempts -= 1
                    health.attempts -= 1
                    ready.append(task)
                    continue
                except JobExecutionError as error:
                    if error.retryable:
                        fail(task, error.remote_traceback)
                    else:
                        dead.append(DeadLetter(task.label, task.attempts,
                                               error.remote_traceback))
                    continue
                except BrokenExecutor:
                    fail(task, f"worker process died while {task.label} was "
                               f"in flight (BrokenProcessPool; the pool is "
                               f"respawned on the next submission)")
                    continue
                except Exception:
                    fail(task, traceback.format_exc())
                    continue
                if task.validate(value):
                    results.append(value)
                else:
                    fail(task, f"corrupted result for {task.label}: the "
                               f"worker returned {type(value).__name__!r} "
                               f"that failed validation")
            if self.job_timeout is not None and pending:
                now = time.monotonic()
                expired = [future for future, task in pending.items()
                           if task.deadline <= now and not future.done()]
                for future in expired:
                    task = pending.pop(future)
                    if future.cancel():
                        # Never started (queued behind slower jobs).  The
                        # wall budget is per-*attempt*, so an attempt that
                        # never ran is refunded and requeued, not counted
                        # against the retry budget as a timeout.
                        task.attempts -= 1
                        health.attempts -= 1
                        ready.append(task)
                        continue
                    if future.done():
                        # Completed in the race window; let the normal
                        # completion handling classify it next poll.
                        pending[future] = task
                        continue
                    # Running in a worker that may be hung; kill the pool so
                    # the stuck payload cannot wedge the sweep.  Sibling
                    # futures die as rebuild collateral and are
                    # refunded/retried through the paths above.
                    self._discard_pool(terminate=True)
                    fail(task, f"attempt {task.attempts} of {task.label} "
                               f"exceeded the {self.job_timeout:g}s wall "
                               f"timeout", timed_out=True)
        if dead:
            health.dead_letters.extend(dead)
            error = SweepExecutionError(dead, health)
            error.results = results
            raise error
        return results

    # ---------------------------------------------------------------- execution

    def _execute_wave(self, jobs: Sequence[SimulationJob]
                      ) -> Dict[Tuple[str, str], SimulationResult]:
        """Feed a multi-configuration batch into one pool submission.

        Every job, across every configuration in the batch, is submitted up
        front and supervised together, so the pool stays continuously fed for
        the whole wave instead of draining at each per-configuration barrier.
        Submission order is sorted by :attr:`SimulationJob.key` for a
        reproducible shard assignment; results merge keyed by those same
        tuples, so completion order never affects the merged value.  Even a
        one-job wave goes through the pool, so its job gets the same timeout,
        retries and fault injection as any other.
        """
        if not jobs or self.max_workers == 1:
            return super()._execute_wave(jobs)
        tasks = []
        for job in sorted(jobs, key=lambda job: job.key):
            payload = (job.config_name,
                       tuple(run.spec.to_dict() for run in job.runs),
                       self.instructions, self.num_registers, job.config)
            tasks.append(_SupervisedTask(
                fn=simulate_keyed_job_payload, payload=payload,
                label=job.label, validate=self._wave_validator(job.key)))
        try:
            raw = self._supervise(tasks)
        except SweepExecutionError as error:
            error.partial = dict(error.results)
            raise
        return dict(raw)

    @staticmethod
    def _wave_validator(key: Tuple[str, str]) -> Callable[[object], bool]:
        def validate(value: object) -> bool:
            return (isinstance(value, tuple) and len(value) == 2
                    and value[0] == key
                    and isinstance(value[1], SimulationResult))
        return validate

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
        tasks = [_SupervisedTask(
                     fn=generate_workload_payload,
                     payload=(spec.to_dict(), self.instructions, self.num_registers),
                     label=f"gen:{spec.name}",
                     validate=self._gen_validator(spec.name))
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

    @staticmethod
    def _gen_validator(name: str) -> Callable[[object], bool]:
        def validate(value: object) -> bool:
            return (isinstance(value, tuple) and len(value) == 2
                    and value[0] == name
                    and isinstance(value[1], GlobalStableReport))
        return validate
