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
   orchestrator merges the plans and materialises jobs through the runner's
   planning hooks
   (:meth:`~repro.experiments.runner.ExperimentRunner.plan_jobs` /
   :meth:`~repro.experiments.runner.ExperimentRunner.plan_smt_jobs`).
2. **Dedup** — planned jobs are grouped by *content* fingerprint (the same
   material the on-disk cache keys hash: the fully materialised
   :class:`~repro.pipeline.config.CoreConfig`, the workload spec and the trace
   parameters), so two figures demanding the same simulation under different
   names share one job.  Each group consults the on-disk cache once.
3. **Execute** — every outstanding representative job, single-thread and SMT
   alike, goes through the runner's
   :meth:`~repro.experiments.runner.ExperimentRunner._execute_wave` hook as
   **one** batch: the parallel runner submits them all to one process pool
   up front and awaits once.  A failed batch journals its successes to the
   on-disk cache before the error propagates.
4. **Commit** — each group's single result is committed under *every*
   ``(config name, workload)`` alias that demanded it, into the runner's
   in-memory stores.  A figure harness run afterwards executes its own plan's
   wave, finds everything committed and performs **zero** simulations, so its
   output is bit-identical to running that figure alone on a fresh runner
   (pinned differentially at 1/2/4 workers in ``tests/test_orchestrator.py``).

Results are pure functions of ``(config, trace)``, which is what makes the
aliasing sound: committing one result object under several names is
observationally identical to simulating the same inputs once per name.

The :class:`DedupStats` record (``planned`` figure demand, ``unique`` after
dedup, ``cache_warm`` served from disk, ``executed`` actually simulated) is
printed by ``repro figures``/``repro sweep``, which also stream it into the
cache directory's counters table.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.cache import config_fingerprint
from repro.experiments.runner import (
    ConfigLike,
    ExperimentRunner,
    Shard,
    SimulationJob,
    SmtJob,
    SweepExecutionError,
)
from repro.pipeline.smt import SmtResult
from repro.pipeline.stats import SimulationResult


@dataclass(frozen=True)
class FigurePlan:
    """One figure harness's declared configuration demand.

    ``configs`` maps the configuration names the harness reads results under
    to their :data:`ConfigLike` values; ``smt_configs`` does the same for SMT2
    pair sweeps, with ``smt_max_pairs`` as the pair budget (None = the full
    pair list).  A harness that only consumes workload traces and Load
    Inspector reports (fig. 3) declares an empty plan — the orchestrator still
    generates its workloads.
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
    grouping by content fingerprint; ``cache_warm`` of those came from the
    on-disk cache and ``executed`` were actually simulated in the wave.
    ``cold_jobs`` names each executed job (``config/workload`` or
    ``smt:config/first+second``) so an ``--expect-warm`` violation can say
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
    telling the truth, exactly as if it had been simulated under that name.  Everything else is shared — results are immutable downstream.
    """
    if result.config_name == config_name:
        return result
    return dataclasses.replace(result, config_name=config_name)


def _relabelled_smt(result: SmtResult, config_name: str) -> SmtResult:
    """SMT counterpart of :func:`_relabelled` (the label lives one level down)."""
    if result.result.config_name == config_name:
        return result
    return dataclasses.replace(
        result, result=_relabelled(result.result, config_name))


def _fingerprint_text(job_config) -> str:
    """A deterministic text form of a materialised config's fingerprint."""
    return json.dumps(config_fingerprint(job_config), sort_keys=True,
                      separators=(",", ":"))


def _sim_identity(job: SimulationJob) -> str:
    """The content identity of a single-thread job (cache key when available).

    Falls back to the same material the cache key hashes — the materialised
    config fingerprint plus the workload — so dedup behaves identically with
    and without an attached on-disk cache.
    """
    if job.cache_key is not None:
        return job.cache_key
    return f"sim:{job.workload}:{_fingerprint_text(job.config)}"


def _smt_identity(job: SmtJob) -> str:
    """The content identity of an SMT2 job (cache key when available)."""
    if job.cache_key is not None:
        return f"smt:{job.cache_key}"
    return (f"smt:{job.pair[0]}+{job.pair[1]}@{job.second_base_pc}:"
            f"{_fingerprint_text(job.config)}")


class SweepOrchestrator:
    """Plans, dedups and executes any number of plans' sweeps as one wave.

    The orchestrator owns no execution machinery of its own: planning goes
    through the runner's ``plan_jobs``/``plan_smt_jobs`` hooks, execution
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
                     ) -> Tuple[Dict[str, ConfigLike],
                                Dict[str, Tuple[ConfigLike, Optional[int], bool]],
                                DedupStats]:
        """Merge per-figure demand into unique config names + demand stats.

        SMT budgets merge to the *loosest* request per config name: ``None``
        (the full pair list) beats any bound, otherwise the maximum bound
        wins, so every figure finds at least the pairs it asked for.

        Two plans reusing one config *name* must mean the same config
        *content* — otherwise committing a shared result under the merged
        name would silently hand one figure another figure's data — so every
        collision is checked by content fingerprint and a mismatch raises.
        """
        runner = self.runner
        stats = DedupStats(figures=[plan.figure for plan in plans])
        workload_names = list(runner.workloads())
        if shard is not None:
            workload_names = shard.select(workload_names)
        fingerprints: Dict[str, str] = {}

        def _content(config: ConfigLike) -> str:
            # Materialise against *every* workload: builder configs may
            # coincide on one trace yet diverge on another, and a collision
            # must mean identity everywhere for the merge to be sound.
            return "\n".join(
                _fingerprint_text(runner._materialise_config(config, run))
                for run in runner.workloads().values())

        def _check_collision(kind: str, name: str, existing: ConfigLike,
                             config: ConfigLike, figure: str) -> None:
            key = f"{kind}:{name}"
            if key not in fingerprints:
                fingerprints[key] = _content(existing)
            if _content(config) != fingerprints[key]:
                raise ValueError(
                    f"figure plans disagree on the contents of {kind} config "
                    f"{name!r} (while merging {figure!r}); rename one of "
                    f"them — a shared name must mean one configuration")

        merged: Dict[str, ConfigLike] = {}
        merged_smt: Dict[str, Tuple[ConfigLike, Optional[int], bool]] = {}
        for plan in plans:
            stats.planned += len(plan.configs) * len(workload_names)
            for name, config in plan.configs.items():
                if name in merged:
                    _check_collision("single-thread", name, merged[name],
                                     config, plan.figure)
                else:
                    merged[name] = config
            if plan.smt_configs:
                pairs = runner.smt_pairs(plan.smt_max_pairs)
                if shard is not None:
                    owned = set(shard.select(pairs))
                    pairs = [pair for pair in pairs if pair in owned]
                stats.planned += len(plan.smt_configs) * len(pairs)
                for name, config in plan.smt_configs.items():
                    previous = merged_smt.get(name)
                    if previous is None:
                        merged_smt[name] = (config, plan.smt_max_pairs,
                                            plan.smt_max_pairs is None)
                    else:
                        _check_collision("SMT", name, previous[0], config,
                                         plan.figure)
                        _, bound, unbounded = previous
                        unbounded = unbounded or plan.smt_max_pairs is None
                        if not unbounded:
                            bound = max(bound, plan.smt_max_pairs)
                        merged_smt[name] = (previous[0], bound, unbounded)
        return merged, merged_smt, stats

    # --------------------------------------------------------------- execution

    def _journal_partial_wave(self, error: SweepExecutionError,
                              outstanding_sim: Sequence[Tuple[str, SimulationJob]],
                              outstanding_smt: Sequence[Tuple[str, SmtJob]]
                              ) -> None:
        """Best-effort cache journal of a failed wave's completed jobs.

        Runs on the error path, so cache I/O failures are absorbed — a full
        disk must never mask the execution error being propagated.  The
        in-memory stores are deliberately untouched: partial results are a
        *journal* for resume, not a committed sweep.  The puts below also
        append each journaled entry's columnar warehouse
        row (inside ``cache.put``/``put_smt``), so after a chaos-faulted wave
        the warehouse lists exactly the journaled jobs — which is what lets
        ``repro warehouse verify`` assert journal agreement before and after
        a ``--resume``.
        """
        runner = self.runner
        if runner.cache is None or not isinstance(error.partial, tuple):
            return
        partial_sim, partial_smt = error.partial
        for _, job in outstanding_sim:
            result = partial_sim.get((job.config_name, job.workload))
            if result is not None and job.cache_key is not None:
                try:
                    runner.cache.put(job.cache_key, result)
                except OSError:
                    pass
        for _, job in outstanding_smt:
            result = partial_smt.get((job.config_name, job.pair))
            if result is not None and job.cache_key is not None:
                try:
                    runner.cache.put_smt(job.cache_key, result)
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
        successes are journaled to the on-disk cache only).  The caller
        decides whether the returned stats belong in the cache directory's
        counters table (``persist_dedup_stats``); the CLI records one entry per
        ``repro figures``/``repro sweep`` wave.
        """
        runner = self.runner
        merged, merged_smt, stats = self._merge_plans(plans, shard)
        selected: Optional[List[str]] = None
        if shard is not None:
            selected = shard.select(list(runner.workloads()))

        # Plan per unique config name, then group planned jobs by content.
        sim_groups: Dict[str, List[SimulationJob]] = {}
        for name, config in merged.items():
            for job in runner.plan_jobs(name, config, workload_names=selected):
                sim_groups.setdefault(_sim_identity(job), []).append(job)
        smt_groups: Dict[str, List[SmtJob]] = {}
        for name, (config, bound, unbounded) in merged_smt.items():
            max_pairs = None if unbounded else bound
            pairs = runner.smt_pairs(max_pairs)
            if shard is not None:
                owned = set(shard.select(pairs))
                pairs = [pair for pair in pairs if pair in owned]
            owned_pairs = set(pairs)
            for job in runner.plan_smt_jobs(name, config, max_pairs):
                if job.pair not in owned_pairs:
                    continue
                smt_groups.setdefault(_smt_identity(job), []).append(job)
        stats.unique = len(sim_groups) + len(smt_groups)

        # Stage each group's representative from the on-disk cache once.
        staged_sim: Dict[str, SimulationResult] = {}
        outstanding_sim: List[Tuple[str, SimulationJob]] = []
        for identity, group in sim_groups.items():
            representative = group[0]
            cached = (runner.cache.get(representative.cache_key)
                      if representative.cache_key is not None else None)
            if cached is not None:
                staged_sim[identity] = cached
            else:
                outstanding_sim.append((identity, representative))
        staged_smt: Dict[str, SmtResult] = {}
        outstanding_smt: List[Tuple[str, SmtJob]] = []
        for identity, group in smt_groups.items():
            representative = group[0]
            cached = (runner.cache.get_smt(representative.cache_key)
                      if representative.cache_key is not None else None)
            if cached is not None:
                staged_smt[identity] = cached
            else:
                outstanding_smt.append((identity, representative))
        stats.cache_warm = len(staged_sim) + len(staged_smt)
        stats.executed = len(outstanding_sim) + len(outstanding_smt)
        stats.cold_jobs = (
            [f"{job.config_name}/{job.workload}" for _, job in outstanding_sim]
            + [f"smt:{job.config_name}/{'+'.join(job.pair)}"
               for _, job in outstanding_smt])

        # One continuously fed wave over every outstanding representative.
        try:
            sim_results, smt_results = runner._execute_wave(
                [job for _, job in outstanding_sim],
                [job for _, job in outstanding_smt])
        except SweepExecutionError as error:
            # Partial-wave commit: journal the failed wave's successes to the
            # on-disk cache (never the in-memory stores — the atomic-commit
            # contract of `execute` holds), so the content-addressed cache
            # doubles as the resume journal and a rerun (`repro sweep
            # --resume`) stages them warm and executes only the missing jobs.
            self._journal_partial_wave(error, outstanding_sim, outstanding_smt)
            raise
        missing: List[str] = []
        for identity, job in outstanding_sim:
            result = sim_results.get((job.config_name, job.workload))
            if result is None:
                missing.append(f"{job.config_name}/{job.workload}")
            else:
                staged_sim[identity] = result
        for identity, job in outstanding_smt:
            result = smt_results.get((job.config_name, job.pair))
            if result is None:
                missing.append(f"smt:{job.config_name}/{'+'.join(job.pair)}")
            else:
                staged_smt[identity] = result
        if missing:
            raise RuntimeError(
                f"wave executor returned no result for jobs {missing!r}")

        # Commit every alias only after the whole wave succeeded — and before
        # the disk-store writes, so a cache I/O failure (disk full,
        # permissions) cannot discard the finished wave.  The disk puts also
        # append each entry's columnar warehouse row, which keeps the
        # warehouse in lockstep with the journal.
        workloads = runner.workloads()
        for identity, group in sim_groups.items():
            result = staged_sim[identity]
            for job in group:
                workloads[job.workload].results[job.config_name] = \
                    _relabelled(result, job.config_name)
        for identity, group in smt_groups.items():
            result = staged_smt[identity]
            for job in group:
                runner._smt_results.setdefault(job.config_name, {})[job.pair] = \
                    _relabelled_smt(result, job.config_name)
        if runner.cache is not None:
            for identity, job in outstanding_sim:
                if job.cache_key is not None:
                    runner.cache.put(job.cache_key, staged_sim[identity])
            for identity, job in outstanding_smt:
                if job.cache_key is not None:
                    runner.cache.put_smt(job.cache_key, staged_smt[identity])
        self.stats = stats
        return stats
