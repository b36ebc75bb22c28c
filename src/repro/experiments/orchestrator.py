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
   :meth:`~repro.experiments.runner.ExperimentRunner._execute_wave` hook in
   at most two batches; the parallel runner submits each batch to one
   process pool up front and awaits once.  Single-thread jobs over one
   workload whose configs differ only in the capacities the figures sweep
   (:data:`~repro.pipeline.cpu.WITNESSED_FIELDS`: load ports, ROB, RS, load
   and store buffers) form a *family*.  The first batch runs every SMT2
   pair and every job that no other member of its family dominates in
   every capacity.  Each of those runs returns a
   :class:`~repro.pipeline.cpu.CapacityWitness`, and a member whose
   differing capacities all sit at or above a witness's floors is that run
   step for step, so it takes the run's result, relabelled, without
   simulating (fig. 20's load-width and depth grid points and fig. 7's
   ``2x_load_width`` mostly).  The second batch runs the members no witness
   covered, so a member whose representative dead-lettered simulates
   itself.  Witnesses are never persisted: reuse happens within one wave.
   A failed batch does not stop the other; one
   :class:`~repro.experiments.runner.SweepExecutionError` then carries every
   dead letter, after every success is journaled to the on-disk cache.
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
dedup, ``cache_warm`` served from disk, ``executed`` not served from disk,
``witnessed`` of those served by a capacity witness) is printed by ``repro
figures``, which also streams it into the cache directory's counters table,
failed waves included.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.cache import config_fingerprint
from repro.experiments.runner import (
    ConfigLike,
    DeadLetter,
    ExperimentRunner,
    JobOutcome,
    Shard,
    SimulationJob,
    SweepExecutionError,
)
from repro.pipeline.stats import SimulationResult

#: A wave's outcomes, by :attr:`SimulationJob.key`.
Outcomes = Dict[Tuple[str, str], JobOutcome]

#: A job that waits for a witness: the job, its effective capacities and
#: its family's first-batch members.
Waiting = Tuple[SimulationJob, Tuple[int, ...], List[SimulationJob]]


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
    on-disk cache and ``executed`` did not; of those, ``witnessed`` took a
    wider run's result through its capacity witness instead of being
    simulated.  ``cold_jobs`` names each executed job by its label
    (``sim:<config>/<workload>``) so an ``--expect-warm`` violation can say
    exactly *which* jobs ran cold instead of just how many.  ``witnessed``
    stays out of :meth:`to_dict`, the counters table's record.
    """

    figures: List[str] = field(default_factory=list)
    planned: int = 0
    unique: int = 0
    cache_warm: int = 0
    executed: int = 0
    cold_jobs: List[str] = field(default_factory=list)
    witnessed: int = 0

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


def _dominates(capacities: Tuple[int, ...], other: Tuple[int, ...]) -> bool:
    """True if ``capacities`` is at least ``other`` everywhere and differs."""
    return capacities != other and all(
        mine >= theirs for mine, theirs in zip(capacities, other))


def _witness_phases(jobs: Sequence[SimulationJob]
                    ) -> Tuple[List[SimulationJob], List[Waiting]]:
    """Split outstanding jobs into the batch that runs first and the jobs
    that wait for its witnesses, both in ``jobs`` order.

    Single-thread jobs group into families: the same workload, and configs
    whose fingerprints agree once the witnessed fields are dropped.  A job
    that another member of its family dominates in every capacity waits;
    the rest, and every SMT2 pair, run first.
    """
    # Imported here: only a wave with outstanding jobs needs the core's
    # capacity rules, and such a wave loads the simulator anyway.
    from repro.pipeline.cpu import WITNESSED_FIELDS, effective_capacities

    families: Dict[Tuple[str, str], List[Tuple[SimulationJob, Tuple[int, ...]]]] = {}
    for job in jobs:
        if len(job.runs) != 1:
            continue
        fingerprint = config_fingerprint(job.config)
        for group, name in WITNESSED_FIELDS:
            del fingerprint[group][name]
        family = (job.workload, json.dumps(fingerprint, sort_keys=True))
        families.setdefault(family, []).append(
            (job, effective_capacities(job.config)))
    waiting: Dict[Tuple[str, str], Waiting] = {}
    for members in families.values():
        tops = [job for job, capacities in members
                if not any(_dominates(other, capacities) for _, other in members)]
        for job, capacities in members:
            if job not in tops:
                waiting[job.key] = (job, capacities, tops)
    return ([job for job in jobs if job.key not in waiting],
            [waiting[job.key] for job in jobs if job.key in waiting])


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

    def _journal_partial_wave(self, outcomes: Outcomes,
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
        if runner.cache is None:
            return
        for job in outstanding:
            outcome = outcomes.get(job.key)
            if outcome is not None:
                try:
                    runner.cache.put(job.cache_key, outcome.result)
                except OSError:
                    pass

    def _execute_batch(self, jobs: Sequence[SimulationJob]
                       ) -> Tuple[Outcomes, List[DeadLetter]]:
        """One ``_execute_wave`` call: its outcomes and its dead letters."""
        try:
            return self.runner._execute_wave(jobs), []
        except SweepExecutionError as error:
            return dict(error.partial or {}), list(error.dead_letters)

    def _execute_outstanding(self, jobs: Sequence[SimulationJob],
                             stats: DedupStats
                             ) -> Tuple[Outcomes, List[DeadLetter]]:
        """Execute ``jobs`` in at most two batches, serving every job a
        capacity witness of the first batch covers with that run's result,
        relabelled.  Returns every success and every dead letter; the second
        batch runs even when the first dead-lettered."""
        if not jobs:  # a warm wave: nothing to run, no simulator to load
            return {}, []
        first, waiting = _witness_phases(jobs)
        outcomes, dead = self._execute_batch(first)
        rest: List[SimulationJob] = []
        for job, capacities, tops in waiting:
            served = next((outcomes[top.key].result for top in tops
                           if top.key in outcomes
                           and outcomes[top.key].witness.covers(capacities)),
                          None)
            if served is None:
                rest.append(job)
            else:
                outcomes[job.key] = JobOutcome(
                    _relabelled(served, job.config_name), None)
                stats.witnessed += 1
        if rest:
            more, more_dead = self._execute_batch(rest)
            outcomes.update(more)
            dead += more_dead
        return outcomes, dead

    def execute(self, plans: Sequence[FigurePlan],
                shard: Optional[Shard] = None) -> DedupStats:
        """Run every plan's outstanding jobs as one deduped wave and commit.

        After this returns, every ``(config name, workload)`` and
        ``(config name, pair)`` the plans demanded is committed in the
        runner's stores, so running the corresponding figure harnesses
        performs zero simulations.  The commit is atomic: a failure anywhere
        in the wave leaves every in-memory store untouched (the failed wave's
        successes are journaled to the on-disk cache only, and the raised
        :class:`SweepExecutionError` carries the wave's stats).

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

        outcomes, dead = self._execute_outstanding(outstanding, stats)
        if dead:
            # Partial-wave commit: journal the failed wave's successes to the
            # on-disk cache (never the in-memory stores — the atomic-commit
            # contract of `execute` holds), so the content-addressed cache
            # doubles as the resume journal and rerunning the same command
            # stages them warm and executes only the missing jobs.
            self._journal_partial_wave(outcomes, outstanding)
            error = SweepExecutionError(dead)
            error.partial = outcomes
            error.stats = stats
            raise error
        missing = [job.label for job in outstanding if job.key not in outcomes]
        if missing:
            raise RuntimeError(
                f"wave executor returned no result for jobs {missing!r}")
        for job in outstanding:
            staged[job.cache_key] = outcomes[job.key].result

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
