"""Experiment runner: generates workloads once and runs named configurations over them.

The runner caches Load Inspector reports, simulation results and every trace
it had to generate, so a figure harness that shares configurations with
another figure does not pay for the simulation twice.  Workload count and
trace length are parameters: the CLI and the tests use a reduced set (a few
workloads per suite, a few thousand instructions) so every figure finishes
within minutes, while the full 90-workload sweep of the paper is available by
passing ``per_suite=None``.

Every simulation runs through one pipeline — plan, stage from the on-disk
cache, execute, journal a failed batch's successes, commit — driven by
:class:`~repro.experiments.orchestrator.SweepOrchestrator`.  The runner
supplies the pieces, with every expensive phase behind an overridable hook:

* :meth:`ExperimentRunner.plan_jobs` / :meth:`ExperimentRunner.plan_smt_jobs`
  materialise one :class:`SimulationJob` per outstanding workload or SMT2
  pair: a job is a config over one or two workload threads;
* :meth:`ExperimentRunner._execute_wave` executes a batch of jobs (the one
  execution hook) and returns each job's :class:`JobOutcome`: its result and
  the capacity witness the orchestrator serves dominated grid points from.
  The orchestrator commits the results *atomically* — either every planned
  job gets a result or none does, so a config factory raising mid-sweep can
  never leave a partially populated :class:`WorkloadRun` that later
  aggregation misreads as complete;
* :meth:`ExperimentRunner.workloads` gathers every workload's Load Inspector
  report through the :meth:`ExperimentRunner._generate_workloads` hook, so
  cold starts can shard trace synthesis too.  Reports are served from the
  optional on-disk :class:`~repro.experiments.cache.ReportCache` when one is
  attached; a trace is generated only when a report is missing or a job
  simulates it (:meth:`ExperimentRunner.trace`), always from the spec's
  seed, which keeps it bit-identical at any worker count.

:meth:`ExperimentRunner.run_config` and :meth:`ExperimentRunner.run_smt_config`
are one-plan waves through that pipeline; the figure harnesses run their
whole plan as one wave and read the committed results back with
:meth:`ExperimentRunner.results` / :meth:`ExperimentRunner.smt_results`.

The base class runs both hooks serially in-process;
:class:`~repro.experiments.parallel.ParallelExperimentRunner` overrides just
the hooks to shard work over a process pool.  All hook results merge into
dictionaries keyed by workload name or ``(config, workload)``, where a pair's
workload is ``a+b``, so shard completion order never affects an aggregate.

A :class:`Shard` (``K/N``) restricts a wave to a deterministic slice of the
workloads and pairs — the distribution primitive behind ``repro figures
--shard K/N``, applied by the orchestrator's wave alone: N hosts pointed at
one shared cache directory cover the full suite disjointly, and any
subsequent unsharded run folds the per-shard cache entries into results
bit-identical to a serial unsharded run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple, TypeVar, Union)

from repro.analysis.load_inspector import GlobalStableReport, inspect_trace
from repro.analysis.stats_utils import filtered_geomean
from repro.experiments.cache import (ReportCache, ResultCache,
                                     config_fingerprint, key_for_fingerprint,
                                     persist_health_stats)
from repro.pipeline.config import CoreConfig
from repro.pipeline.stats import SimulationResult
from repro.workloads.generator import DEFAULT_BASE_PC, THREAD_BASE_PCS, generate_trace
from repro.workloads.suites import (
    SUITE_NAMES,
    WorkloadSpec,
    round_robin_specs,
    workload_specs_for_suite,
)
from repro.workloads.trace import Trace

if TYPE_CHECKING:
    from repro.pipeline.cpu import CapacityWitness

#: A configuration is a CoreConfig or a builder taking the workload's Load
#: Inspector report, which oracle-based configurations need.
ConfigLike = Union[CoreConfig, Callable[[GlobalStableReport], CoreConfig]]

_Item = TypeVar("_Item")


@dataclass(frozen=True)
class Shard:
    """One slice (``index`` of ``count``, 1-based) of a distributed sweep.

    Membership is decided by an item's ordinal in the *sorted canonical item
    list* (all workload names, or all SMT pairs), never by its position in the
    residual job list — so every host computes the same partition regardless
    of what its local cache already holds, and N shards sharing one cache
    directory cover the full suite disjointly.
    """

    index: int
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("shard count must be at least 1")
        if not 1 <= self.index <= self.count:
            raise ValueError(
                f"shard index must be in 1..{self.count}, got {self.index}")

    @classmethod
    def parse(cls, text: str) -> "Shard":
        """Parse the CLI spelling ``K/N`` (1-based shard K of N)."""
        head, sep, tail = text.partition("/")
        try:
            if not sep:
                raise ValueError(text)
            return cls(index=int(head), count=int(tail))
        except ValueError:
            raise ValueError(
                f"shard must look like K/N with 1 <= K <= N, got {text!r}") from None

    def select(self, items: Sequence[_Item]) -> List[_Item]:
        """The members of ``items`` this shard owns, in sorted canonical order."""
        ordered = sorted(items)
        return [item for ordinal, item in enumerate(ordered)
                if ordinal % self.count == self.index - 1]


@dataclass
class WorkloadRun:
    """Everything kept for one workload: its report and committed results.

    The trace is not kept here: :meth:`ExperimentRunner.trace` generates it
    from ``spec`` when something reads it.
    """

    spec: WorkloadSpec
    report: GlobalStableReport
    results: Dict[str, SimulationResult] = field(default_factory=dict)


@dataclass
class SimulationJob:
    """One planned simulation: a configuration over one or two workload threads.

    ``runs`` holds one :class:`WorkloadRun` per hardware thread; two make an
    SMT2 pair.  The configuration is fully materialised (oracles built, the
    first thread's stats-oracle PCs attached), so executing a job needs
    nothing beyond the job itself; the jobs a runner plans from one content
    over one thread set share one config object.  Thread ``i`` runs at
    ``THREAD_BASE_PCS[i]``: executors regenerate traces deterministically from
    each run's spec instead of shipping them across a process boundary.
    ``cache_key`` is the job's content identity
    (:meth:`~repro.experiments.cache.ResultCache.key_for`).
    """

    config_name: str
    runs: Tuple[WorkloadRun, ...]
    config: CoreConfig
    cache_key: str

    @property
    def names(self) -> Tuple[str, ...]:
        """Each thread's workload name (a pair's key in the SMT2 results)."""
        return tuple(run.spec.name for run in self.runs)

    @property
    def workload(self) -> str:
        """The workload the job simulates; a pair's is ``a+b``."""
        return "+".join(self.names)

    @property
    def key(self) -> Tuple[str, str]:
        """The job's key in a wave's result dictionary."""
        return self.config_name, self.workload

    @property
    def label(self) -> str:
        """The job's label in dead letters and logs, ``sim:<config>/<workload>``."""
        return f"sim:{self.config_name}/{self.workload}"


class JobOutcome(NamedTuple):
    """What executing one job returns: its result and, for a single-thread
    job, the capacity witness of its run (None for an SMT2 pair).

    The witness lives only in memory, for the wave that produced it: it is
    in no result payload, cache entry, warehouse row or cache key.
    """

    result: SimulationResult
    witness: Optional["CapacityWitness"]


@dataclass
class DeadLetter:
    """One job of a wave that failed.

    ``error`` is the failure's traceback text (pool workers format it before
    the exception crosses the process boundary, so the text survives
    pickling).
    """

    label: str
    error: str


@dataclass
class SweepHealthReport:
    """Accounting for every simulation job a runner executed.

    Counters accumulate across the runner's lifetime (every wave, including
    the one-plan waves of ``run_config`` / ``run_smt_config``) and are
    flushed to the cache directory's counters table on close, so ``repro
    cache stats`` surfaces job and dead-letter counts across every process
    sharing a sweep directory.
    """

    jobs: int = 0
    dead_letters: List[DeadLetter] = field(default_factory=list)

    @property
    def dead_lettered(self) -> int:
        """How many jobs failed."""
        return len(self.dead_letters)

    def counters(self) -> Dict[str, int]:
        """The integer counters (ledger form; dead letters reduce to a count)."""
        return {"jobs": self.jobs, "dead_lettered": self.dead_lettered}


class SweepExecutionError(RuntimeError):
    """One or more jobs of a wave dead-lettered.

    Raised once the whole wave has run, so every other job finished first.
    Subclasses :class:`RuntimeError` and embeds the last failure's traceback
    text in its message, so callers matching on the underlying error's text
    (and the atomic-commit tests doing exactly that) keep working.  Carries
    the wave's successes so the partial-commit layer can journal them to the
    on-disk cache before the error propagates — which is what makes the cache
    a resume journal: rerunning the same command re-executes only the jobs
    that are genuinely missing.

    ``partial`` is set by ``_execute_wave`` to the outcomes completed so
    far, keyed exactly as its return value, and ``stats`` by the
    orchestrator to the failed wave's
    :class:`~repro.experiments.orchestrator.DedupStats`, so a failed
    ``repro figures`` run still records its wave.
    """

    def __init__(self, dead_letters: Sequence[DeadLetter]):
        labels = ", ".join(letter.label for letter in dead_letters[:5])
        if len(dead_letters) > 5:
            labels += f", ... ({len(dead_letters) - 5} more)"
        detail = dead_letters[-1].error if dead_letters else ""
        super().__init__(
            f"{len(dead_letters)} job(s) dead-lettered: "
            f"{labels}\nlast failure:\n{detail}")
        self.dead_letters = list(dead_letters)
        #: Raw pool successes (executor-internal shape); the hooks
        #: reduce these into ``partial``.
        self.results: List[object] = []
        self.partial: Optional[object] = None
        self.stats: Optional[object] = None


class ExperimentRunner:
    """Runs named configurations over a (possibly reduced) workload set.

    When a :class:`~repro.experiments.cache.ResultCache` is attached, every
    planned job consults the on-disk store before simulating and publishes its
    result afterwards, so reruns and figure harnesses sharing a cache directory
    skip simulation entirely on warm entries.
    """

    def __init__(self, per_suite: Optional[int] = 2, instructions: int = 6000,
                 num_registers: int = 16,
                 suites: Sequence[str] = SUITE_NAMES,
                 cache: Optional[ResultCache] = None,
                 report_cache: Optional[ReportCache] = None):
        if instructions <= 0:
            raise ValueError("instructions must be positive")
        if per_suite is not None and per_suite < 1:
            raise ValueError(
                f"per_suite must be at least 1 (None = the full suite), got {per_suite}")
        if not suites:
            raise ValueError("suites must name at least one suite")
        self.per_suite = per_suite
        self.instructions = instructions
        self.num_registers = num_registers
        self.suites = list(suites)
        self.cache = cache
        self.report_cache = report_cache
        #: Job and dead-letter accounting across this runner's lifetime.
        self.health = SweepHealthReport()
        self._flushed_health: Dict[str, int] = {}
        self._workloads: Optional[Dict[str, WorkloadRun]] = None
        #: Traces generated so far, by (workload, base PC).
        self._traces: Dict[Tuple[str, int], Trace] = {}
        #: Committed SMT2 results: pair -> config name -> result.
        self._pair_results: Dict[Tuple[str, ...], Dict[str, SimulationResult]] = {}
        #: Every job planned so far, by content: (canonical JSON text of the
        #: config's fingerprint before the stats-oracle PCs are attached,
        #: each thread's workload name) -> (cache key, materialised config).
        self._planned: Dict[Tuple[str, Tuple[str, ...]],
                            Tuple[str, CoreConfig]] = {}

    # ---------------------------------------------------------------- workloads

    def specs(self) -> List[WorkloadSpec]:
        """The workload specs covered by this runner."""
        specs: List[WorkloadSpec] = []
        for suite in self.suites:
            suite_specs = workload_specs_for_suite(suite)
            if self.per_suite is not None:
                suite_specs = suite_specs[:self.per_suite]
            specs.extend(suite_specs)
        return specs

    def workloads(self) -> Dict[str, WorkloadRun]:
        """Every workload with its Load Inspector report, gathered once.

        Generation happens through the overridable :meth:`_generate_workloads`
        hook; the returned dictionary always follows spec order, never the
        hook's completion order.
        """
        if self._workloads is None:
            specs = self.specs()
            generated = self._generate_workloads(specs)
            missing = [spec.name for spec in specs if spec.name not in generated]
            if missing:
                raise RuntimeError(
                    f"workload generator returned no run for {missing!r}")
            self._workloads = {spec.name: generated[spec.name] for spec in specs}
        return self._workloads

    def _cached_report(self, spec: WorkloadSpec) -> Optional[GlobalStableReport]:
        """``spec``'s report from the on-disk report cache, or None."""
        if self.report_cache is None:
            return None
        return self.report_cache.get(ReportCache.key_for(
            spec, self.instructions, self.num_registers))

    def _publish_report(self, spec: WorkloadSpec, report: GlobalStableReport) -> None:
        """Store a freshly inspected report in the on-disk report cache, if any."""
        if self.report_cache is not None:
            self.report_cache.put(ReportCache.key_for(
                spec, self.instructions, self.num_registers), report)

    def trace(self, spec: WorkloadSpec, base_pc: int = DEFAULT_BASE_PC) -> Trace:
        """``spec``'s trace at ``base_pc``, generated on first use and kept."""
        key = (spec.name, base_pc)
        trace = self._traces.get(key)
        if trace is None:
            trace = generate_trace(spec, num_instructions=self.instructions,
                                   num_registers=self.num_registers,
                                   base_pc=base_pc)
            self._traces[key] = trace
        return trace

    def _generate_workloads(self, specs: Sequence[WorkloadSpec]) -> Dict[str, WorkloadRun]:
        """Gather every workload's report serially; subclasses shard.

        A report missing from the report cache is inspected from a freshly
        generated trace.  Returns runs keyed by workload name, so merging is
        independent of generation order.  A workload whose generation or
        inspection raises is dead-lettered as ``gen:<workload>`` while the
        rest are still inspected and published, and
        :class:`SweepExecutionError` is raised after the loop, exactly as
        the pool does it.
        """
        runs: Dict[str, WorkloadRun] = {}
        dead: List[DeadLetter] = []
        for spec in specs:
            report = self._cached_report(spec)
            if report is None:
                try:
                    report = inspect_trace(self.trace(spec))
                except Exception:
                    import traceback  # only a failure formats one
                    dead.append(DeadLetter(f"gen:{spec.name}",
                                           traceback.format_exc()))
                    continue
                self._publish_report(spec, report)
            runs[spec.name] = WorkloadRun(spec=spec, report=report)
        if dead:
            self.health.dead_letters.extend(dead)
            raise SweepExecutionError(dead)
        return runs

    # ------------------------------------------------------------------ running

    def _materialise_config(self, config: CoreConfig,
                            fingerprint: Dict[str, object],
                            runs: Sequence[WorkloadRun]) -> Tuple[str, CoreConfig]:
        """The cache key and the materialised config of ``config`` over
        ``runs``: the first thread's stats-oracle PCs attached, unless
        ``config`` carries its own.

        The key's fingerprint is derived from ``fingerprint``, ``config``'s
        own, not recomputed: ``canonical_value`` makes a set of PCs its
        sorted list.
        """
        if config.stats_oracle_pcs is None:
            pcs = runs[0].report.global_stable_pcs()
            config = config.copy(stats_oracle_pcs=pcs)
            fingerprint = dict(fingerprint, stats_oracle_pcs=sorted(pcs))
        return key_for_fingerprint(fingerprint, [run.spec for run in runs],
                                   self.instructions, self.num_registers), config

    def _committed(self, runs: Sequence[WorkloadRun]) -> Dict[str, SimulationResult]:
        """The committed results, by config name, of the job over ``runs``:
        the workload's own store for one thread, the pair's for two."""
        if len(runs) == 1:
            return runs[0].results
        return self._pair_results.setdefault(
            tuple(run.spec.name for run in runs), {})

    def _plan(self, name: str, config: ConfigLike,
              threads: Sequence[Sequence[WorkloadRun]]) -> List[SimulationJob]:
        """Materialise one :class:`SimulationJob` per thread set still missing
        ``name``.

        Planning materialises every configuration *before* anything executes,
        so a factory raising mid-sweep aborts the whole sweep with the in-memory
        result store untouched.  Every job carries its cache key, with or
        without an attached cache: the key is the job's content identity.

        Planning pays once per distinct job, not once per demand.  A
        :class:`CoreConfig` is canonicalised once per call (a builder's
        config once per thread set, since it depends on the report), and
        :attr:`_planned` hands every later demand for the same content over
        the same workloads, under any name, the first demand's key and
        materialised config.  Aliases thus share one config object, which is
        safe because a run never mutates its config.
        """
        jobs: List[SimulationJob] = []
        plain = isinstance(config, CoreConfig)
        text: Optional[str] = None
        for runs in threads:
            if name in self._committed(runs):
                continue
            built = config if plain else config(runs[0].report)
            if text is None or not plain:
                fingerprint = config_fingerprint(built)
                text = json.dumps(fingerprint, sort_keys=True)
            memo = (text, tuple(run.spec.name for run in runs))
            planned = self._planned.get(memo)
            if planned is None:
                planned = self._planned[memo] = self._materialise_config(
                    built, fingerprint, runs)
            cache_key, core_config = planned
            jobs.append(SimulationJob(config_name=name, runs=tuple(runs),
                                      config=core_config, cache_key=cache_key))
        return jobs

    def plan_jobs(self, name: str, config: ConfigLike,
                  workload_names: Optional[Sequence[str]] = None) -> List[SimulationJob]:
        """Plan config ``name`` over every workload (or ``workload_names``)."""
        return self._plan(name, config, [
            (run,) for workload_name, run in self.workloads().items()
            if workload_names is None or workload_name in workload_names])

    def _simulate_job(self, job: SimulationJob) -> JobOutcome:
        """Simulate one planned job in-process.

        Each thread runs its workload's trace at its own base PC, so a pair's
        threads do not alias in the PC-indexed predictors.
        """
        # Imported here, not at module level: a run that simulates nothing
        # (a warm sweep) never loads the timing model.
        from repro.pipeline.cpu import OutOfOrderCore

        traces = [self.trace(run.spec, base_pc)
                  for run, base_pc in zip(job.runs, THREAD_BASE_PCS)]
        core = OutOfOrderCore(job.config, traces, name=job.config_name)
        return JobOutcome(core.run(), core.capacity_witness())

    def _execute_wave(self, jobs: Sequence[SimulationJob]
                      ) -> Dict[Tuple[str, str], JobOutcome]:
        """Execute a multi-configuration batch as one wave.

        The one execution hook: every simulation, from a single
        ``run_config`` call to a whole ``repro figures all`` sweep, reaches
        the simulator through here.  A wave may carry jobs for *many*
        configurations at once, so outcomes are keyed by
        :attr:`SimulationJob.key`, ``(config_name, workload)``.  The serial
        implementation just loops; the parallel runner overrides this to
        feed every job into one process pool submission, so the pool never
        drains between configurations or figure harnesses.

        A job that raises is dead-lettered and the loop runs on; once every
        job has run, a failure raises :class:`SweepExecutionError` whose
        ``partial`` carries the wave's successes, so the orchestrator can
        journal them to the on-disk cache before the error propagates.
        """
        results: Dict[Tuple[str, str], JobOutcome] = {}
        dead: List[DeadLetter] = []
        self.health.jobs += len(jobs)
        for job in jobs:
            try:
                results[job.key] = self._simulate_job(job)
            except Exception:
                import traceback  # only a failure formats one
                dead.append(DeadLetter(job.label, traceback.format_exc()))
        if dead:
            self.health.dead_letters.extend(dead)
            error = SweepExecutionError(dead)
            error.partial = results
            raise error
        return results

    def _run_wave(self, name: str, **demand) -> None:
        """Run config ``name``'s ``FigurePlan`` demand as a one-plan wave."""
        # Imported here because the orchestrator module builds on this one.
        from repro.experiments.orchestrator import FigurePlan, SweepOrchestrator
        SweepOrchestrator(self).execute([FigurePlan(name, **demand)])

    def run_config(self, name: str, config: ConfigLike) -> Dict[str, SimulationResult]:
        """Run ``config`` over the workload set; results are cached by ``name``.

        A one-plan wave through
        :meth:`~repro.experiments.orchestrator.SweepOrchestrator.execute`:
        plan → stage from the on-disk cache → execute → commit.

        Results are committed atomically: if planning, simulation or cache
        lookup raises for any workload, no workload's result store is touched.
        A cache entry simulated under another name is returned relabelled as
        ``name``, exactly as if it had been simulated under that name.
        """
        self._run_wave(name, configs={name: config})
        return self.results(name)

    def results(self, name: str) -> Dict[str, SimulationResult]:
        """The committed results of config ``name`` by workload, in spec order."""
        return {workload_name: run.results[name]
                for workload_name, run in self.workloads().items()
                if name in run.results}

    # ---------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release executor resources and flush counters to the counters table.

        The flush is what makes ``repro cache stats`` see this process's
        hit/miss counters after the run is gone; it writes only deltas, so
        closing a runner repeatedly (context manager plus explicit call)
        never double-counts.  The job and dead-letter counters flush the same
        way (class ``SweepSupervisor``), so they are visible cross-process
        too.
        """
        if self.cache is not None:
            counters = self.health.counters()
            delta = {name: value - self._flushed_health.get(name, 0)
                     for name, value in counters.items()}
            if any(delta.values()):
                persist_health_stats(self.cache.directory, delta)
                self._flushed_health = counters
        for cache in (self.cache, self.report_cache):
            if cache is not None:
                cache.persist_stats()

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ---------------------------------------------------------------- reporting

    def speedups(self, config_name: str, baseline_name: str = "baseline") -> Dict[str, float]:
        """Per-workload speedup of ``config_name`` over ``baseline_name``.

        Workloads where either run retired in zero cycles (degenerate
        tiny-trace configurations) are skipped: they have no meaningful ratio
        and would otherwise crash the geomean aggregations downstream.
        """
        speedups: Dict[str, float] = {}
        for workload_name, run in self.workloads().items():
            if config_name in run.results and baseline_name in run.results:
                baseline_cycles = run.results[baseline_name].cycles
                config_cycles = run.results[config_name].cycles
                if baseline_cycles > 0 and config_cycles > 0:
                    speedups[workload_name] = baseline_cycles / config_cycles
        return speedups

    def geomean_speedup(self, config_name: str, baseline_name: str = "baseline") -> float:
        """Geomean of :meth:`speedups` over every workload with both results."""
        return filtered_geomean(self.speedups(config_name, baseline_name).values())

    def speedups_by_suite(self, config_name: str,
                          baseline_name: str = "baseline") -> Dict[str, float]:
        """Geomean speedup per suite plus the overall geomean (key ``GEOMEAN``)."""
        by_suite: Dict[str, List[float]] = {suite: [] for suite in self.suites}
        for workload_name, value in self.speedups(config_name, baseline_name).items():
            suite = self.workloads()[workload_name].spec.suite
            by_suite[suite].append(value)
        summary = {suite: filtered_geomean(values)
                   for suite, values in by_suite.items()}
        all_values = [v for values in by_suite.values() for v in values]
        summary["GEOMEAN"] = filtered_geomean(all_values)
        return summary

    def metric_ratio(self, config_name: str, metric: Callable[[SimulationResult], float],
                     baseline_name: str = "baseline") -> Dict[str, float]:
        """Per-workload ratio of an arbitrary metric against the baseline."""
        ratios: Dict[str, float] = {}
        for workload_name, run in self.workloads().items():
            if config_name in run.results and baseline_name in run.results:
                base_value = metric(run.results[baseline_name])
                new_value = metric(run.results[config_name])
                if base_value:
                    ratios[workload_name] = new_value / base_value
        return ratios

    # --------------------------------------------------------------------- SMT

    def smt_pairs(self, max_pairs: Optional[int] = None) -> List[Tuple[str, str]]:
        """Deterministic cross-suite workload pairings for SMT2 experiments.

        Specs are interleaved round-robin across suites (every suite's first
        workload, then every suite's second, ...) and consecutive entries are
        paired, so adjacent pair members come from different suites wherever
        suite sizes allow.  The order is a pure function of the spec list:
        ``max_pairs`` only truncates, and growing ``per_suite`` only appends
        pairs — the existing prefix never reshuffles (regression-pinned in
        ``tests/test_experiments.py``).
        """
        names = [spec.name for spec in round_robin_specs(self.specs())]
        pairs = [(names[index], names[index + 1])
                 for index in range(0, len(names) - 1, 2)]
        if max_pairs is not None:
            pairs = pairs[:max_pairs]
        return pairs

    def plan_smt_jobs(self, name: str, config: ConfigLike,
                      max_pairs: Optional[int] = None) -> List[SimulationJob]:
        """Plan config ``name`` over the first ``max_pairs`` SMT2 pairs."""
        workloads = self.workloads()
        return self._plan(name, config, [
            (workloads[first], workloads[second])
            for first, second in self.smt_pairs(max_pairs)])

    def run_smt_config(self, name: str, config: ConfigLike,
                       max_pairs: Optional[int] = None
                       ) -> Dict[Tuple[str, str], SimulationResult]:
        """Run an SMT2 configuration over the cross-suite pairs.

        The SMT counterpart of :meth:`run_config`, and the same one-plan wave:
        per-pair results are memoised under ``name``, warm cache entries skip
        simulation entirely, and the commit is atomic — a failure anywhere in
        the sweep leaves the in-memory store untouched.
        """
        self._run_wave(name, smt_configs={name: config}, smt_max_pairs=max_pairs)
        return self.smt_results(name, max_pairs)

    def smt_results(self, name: str, max_pairs: Optional[int] = None
                    ) -> Dict[Tuple[str, str], SimulationResult]:
        """The committed SMT2 results of config ``name``, in pairing order,
        over the first ``max_pairs`` pairs (all of them when None)."""
        return {pair: self._pair_results[pair][name]
                for pair in self.smt_pairs(max_pairs)
                if name in self._pair_results.get(pair, {})}
