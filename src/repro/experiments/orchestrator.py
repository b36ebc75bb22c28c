"""The wave: plan, dedup, execute and commit simulations as one batch.

Every simulation runs through :meth:`SweepOrchestrator.execute`: a
``run_config`` call is a one-plan wave, a figure harness is a wave over its own
:class:`FigurePlan`, and ``repro figures all`` is one wave over every figure's
plan.  The paper's evaluation is ~20 figures whose configuration sweeps
overlap heavily: figs. 11, 12, 14, 16 and 17 all re-simulate the same
baseline/constable configurations, fig. 20's ``baseline_w3``/``baseline_d1.0``
grid points are content-identical to the plain baseline, and fig. 13's
``all_loads`` is the plain Constable configuration under another name.  One
wave over many plans pays for each shared simulation once and keeps the
worker pool fed instead of draining it between harnesses:

1. **Collect** — each figure declares its configuration demand once, as the
   :class:`FigurePlan` beside its harness in :mod:`repro.experiments.figures`
   (registered in :data:`~repro.experiments.figures.FIGURE_PLANS`).  The
   orchestrator plans each plan's jobs through the runner's planning hooks
   (:meth:`~repro.experiments.runner.ExperimentRunner.plan_jobs` /
   :meth:`~repro.experiments.runner.ExperimentRunner.plan_smt_jobs`), each
   at its own SMT pair budget; a ``(config name, workload)`` key that two
   plans demand with two contents raises before anything executes.
2. **Dedup** — planned jobs are grouped by cache key, which the planner
   computes for every job whether or not a cache is attached (it hashes the
   fully materialised :class:`~repro.pipeline.config.CoreConfig`, the
   workload specs and the trace parameters), so two figures demanding the
   same simulation under different names share one job.  Each group
   consults the on-disk cache once.
3. **Execute** — every outstanding representative job goes through the
   runner's
   :meth:`~repro.experiments.runner.ExperimentRunner._execute_wave` hook as
   **one** batch: the parallel runner submits them all to one process pool
   up front and awaits once.  A failed batch journals its successes to the
   on-disk cache before the error propagates.
4. **Commit** — each group's single result is committed under *every*
   ``(config name, workload)`` alias that demanded it, into the runner's
   in-memory stores (a pair's workload is ``a+b``).  A figure harness run
   afterwards executes its own plan's wave, finds everything committed and
   performs **zero** simulations, so its output is bit-identical to running
   that figure alone on a fresh runner (pinned differentially at 1/2/4
   workers in ``tests/test_orchestrator.py``).

Results are pure functions of ``(config, trace)``, which is what makes the
aliasing sound: committing one result object under several names is
observationally identical to simulating the same inputs once per name.

The :class:`DedupStats` record (``planned`` figure demand, ``unique`` after
dedup, ``cache_warm`` served from disk, ``executed`` actually simulated) is
printed by ``repro figures``, which also streams it into the cache
directory's counters table.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.runner import (
    ConfigLike,
    ExperimentRunner,
    Shard,
    SimulationJob,
    SweepExecutionError,
)
from repro.pipeline.stats import SimulationResult


@dataclass(frozen=True)
class FigurePlan:
    """One figure harness's declared configuration demand.

    ``configs`` maps the configuration names the harness reads results under
    to their :data:`ConfigLike` values; ``smt_configs`` does the same for SMT2
    pair sweeps, with ``smt_max_pairs`` as the pair budget (None = the full
    pair list).  A harness that only consumes Load Inspector reports (fig. 3)
    declares an empty plan — the orchestrator still gathers its workloads.
    """

    figure: str
    configs: Mapping[str, ConfigLike] = field(default_factory=dict)
    smt_configs: Mapping[str, ConfigLike] = field(default_factory=dict)
    smt_max_pairs: Optional[int] = None


@dataclass
class DedupStats:
    """Cross-figure job-dedup accounting for one orchestrated wave.

    ``planned`` counts figure demand before any sharing — what serial
    per-figure execution with per-figure runners and a cold cache would
    simulate.  ``unique`` is the job count after merging identical names and
    grouping by cache key; ``cache_warm`` of those came from the
    on-disk cache and ``executed`` were actually simulated in the wave.
    ``cold_jobs`` names each executed job by its label
    (``sim:<config>/<workload>``) so an ``--expect-warm`` violation can say
    exactly *which* jobs ran cold instead of just how many.
    """

    figures: List[str] = field(default_factory=list)
    planned: int = 0
    unique: int = 0
    cache_warm: int = 0
    executed: int = 0
    cold_jobs: List[str] = field(default_factory=list)

    @property
    def deduped(self) -> int:
        """How many planned jobs were satisfied by sharing another job's result."""
        return self.planned - self.unique

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable form (streamed into the counters table)."""
        return {
            "figures": list(self.figures),
            "planned": self.planned,
            "unique": self.unique,
            "deduped": self.deduped,
            "cache_warm": self.cache_warm,
            "executed": self.executed,
            "cold_jobs": list(self.cold_jobs),
        }


def _relabelled(result: SimulationResult, config_name: str) -> SimulationResult:
    """The result as ``config_name`` sees it.

    A deduped group commits one simulation under several alias names; shallow
    relabelling keeps each alias's ``result.config_name`` (and ``summary()``)
    telling the truth, exactly as if it had been simulated under that name.
    Everything else is shared — results are immutable downstream.
    """
    if result.config_name == config_name:
        return result
    return dataclasses.replace(result, config_name=config_name)


class SweepOrchestrator:
    """Plans, dedups and executes any number of plans' sweeps as one wave.

    The orchestrator owns no execution machinery of its own: planning goes
    through the runner's ``plan_jobs``/``plan_smt_jobs`` planners, execution
    through its ``_execute_wave`` hook and commits into the runner's
    in-memory stores, so serial and parallel runners (and any future runner
    subclass) run waves without modification.
    """

    def __init__(self, runner: ExperimentRunner):
        self.runner = runner
        #: Stats of the most recent :meth:`execute` call.
        self.stats: Optional[DedupStats] = None

    # ---------------------------------------------------------------- planning

    def _merge_plans(self, plans: Sequence[FigurePlan], shard: Optional[Shard]
                     ) -> Tuple[Dict[str, List[SimulationJob]], DedupStats]:
        """Plan every plan's jobs and group them by content.

        Each plan is planned on its own, its SMT configs at its own pair
        budget, over the workloads and pairs ``shard`` owns (all of them
        without one).  A ``(config name, workload)`` key that several plans
        demand is one job, so its contents must agree — otherwise committing
        the shared result under that name would silently hand one figure
        another figure's data — and a key planned with two contents raises
        before anything executes.  The jobs are then grouped by cache key,
        so content-identical jobs under different names share one execution.
        """
        runner = self.runner
        stats = DedupStats(figures=[plan.figure for plan in plans])
        workloads = list(runner.workloads())
        selected = None if shard is None else shard.select(workloads)
        owned_pairs = None if shard is None else set(shard.select(runner.smt_pairs()))
        demand: List[Tuple[str, SimulationJob]] = []
        for plan in plans:
            stats.planned += len(plan.configs) * len(
                workloads if selected is None else selected)
            for name, config in plan.configs.items():
                demand.extend((plan.figure, job) for job in runner.plan_jobs(
                    name, config, workload_names=selected))
        for plan in plans:
            if not plan.smt_configs:
                continue
            pairs = set(runner.smt_pairs(plan.smt_max_pairs))
            if owned_pairs is not None:
                pairs &= owned_pairs
            stats.planned += len(plan.smt_configs) * len(pairs)
            for name, config in plan.smt_configs.items():
                demand.extend((plan.figure, job) for job in runner.plan_smt_jobs(
                    name, config, plan.smt_max_pairs) if job.names in pairs)

        cache_keys: Dict[Tuple[str, str], str] = {}
        groups: Dict[str, List[SimulationJob]] = {}
        for figure, job in demand:
            known = cache_keys.get(job.key)
            if known is None:
                cache_keys[job.key] = job.cache_key
                groups.setdefault(job.cache_key, []).append(job)
            elif known != job.cache_key:
                raise ValueError(
                    f"figure plans disagree on the contents of config "
                    f"{job.config_name!r} over {job.workload} (while merging "
                    f"{figure!r}); rename one of them — a shared name must "
                    f"mean one configuration")
        stats.unique = len(groups)
        return groups, stats

    # --------------------------------------------------------------- execution

    def _journal_partial_wave(self, error: SweepExecutionError,
                              outstanding: Sequence[SimulationJob]) -> None:
        """Best-effort cache journal of a failed wave's completed jobs.

        Runs on the error path, so cache I/O failures are absorbed — a full
        disk must never mask the execution error being propagated.  The
        in-memory stores are deliberately untouched: partial results are a
        *journal* for resume, not a committed sweep.  The puts below also
        append each journaled entry's warehouse row (inside ``cache.put``),
        so after a dead-lettered wave the warehouse lists exactly the
        journaled jobs — which is what lets ``repro warehouse verify``
        assert journal agreement before and after the rerun.
        """
        runner = self.runner
        if runner.cache is None or not isinstance(error.partial, dict):
            return
        for job in outstanding:
            result = error.partial.get(job.key)
            if result is not None:
                try:
                    runner.cache.put(job.cache_key, result)
                except OSError:
                    pass

    def execute(self, plans: Sequence[FigurePlan],
                shard: Optional[Shard] = None) -> DedupStats:
        """Run every plan's outstanding jobs as one deduped wave and commit.

        After this returns, every ``(config name, workload)`` and
        ``(config name, pair)`` the plans demanded is committed in the
        runner's stores, so running the corresponding figure harnesses
        performs zero simulations.  The commit is atomic: a failure anywhere
        in the wave leaves every in-memory store untouched (the failed wave's
        successes are journaled to the on-disk cache only).

        With a :class:`Shard`, only the workloads and SMT pairs that shard
        owns are planned, executed and committed.  Membership is an item's
        ordinal in the canonical workload or pair list, never the residual
        plan, so N hosts sharing one cache directory cover the wave
        disjointly and a later unsharded wave folds their entries warm.

        The caller decides whether the returned stats belong in the cache
        directory's counters table (``persist_dedup_stats``); the CLI records
        one entry per ``repro figures`` wave.
        """
        runner = self.runner
        groups, stats = self._merge_plans(plans, shard)

        # Stage each group's representative from the on-disk cache once.
        staged: Dict[str, SimulationResult] = {}
        outstanding: List[SimulationJob] = []
        for cache_key, group in groups.items():
            cached = (runner.cache.get(cache_key)
                      if runner.cache is not None else None)
            if cached is not None:
                staged[cache_key] = cached
            else:
                outstanding.append(group[0])
        stats.cache_warm = len(staged)
        stats.executed = len(outstanding)
        stats.cold_jobs = [job.label for job in outstanding]

        # One continuously fed wave over every outstanding representative.
        try:
            results = runner._execute_wave(outstanding)
        except SweepExecutionError as error:
            # Partial-wave commit: journal the failed wave's successes to the
            # on-disk cache (never the in-memory stores — the atomic-commit
            # contract of `execute` holds), so the content-addressed cache
            # doubles as the resume journal and rerunning the same command
            # stages them warm and executes only the missing jobs.
            self._journal_partial_wave(error, outstanding)
            raise
        missing = [job.label for job in outstanding if job.key not in results]
        if missing:
            raise RuntimeError(
                f"wave executor returned no result for jobs {missing!r}")
        for job in outstanding:
            staged[job.cache_key] = results[job.key]

        # Commit every alias only after the whole wave succeeded — and before
        # the disk-store writes, so a cache I/O failure (disk full,
        # permissions) cannot discard the finished wave.  The disk puts also
        # append each entry's warehouse row, which keeps the
        # warehouse in lockstep with the journal.
        for cache_key, group in groups.items():
            for job in group:
                runner._committed(job.runs)[job.config_name] = \
                    _relabelled(staged[cache_key], job.config_name)
        if runner.cache is not None:
            for job in outstanding:
                runner.cache.put(job.cache_key, staged[job.cache_key])
        self.stats = stats
        return stats
