"""Differential and contract tests for the cross-figure sweep orchestrator.

The three load-bearing guarantees:

* **Bit-identity** — figure payloads from one shared wave equal the
  per-figure path (fresh runner per figure, one wave each) exactly, at 1, 2
  and 4 workers.
* **At-most-once execution** — each unique ``(config, workload)`` simulation
  runs at most once across all requested figures; content-identical jobs
  demanded under different names (fig. 13's ``all_loads`` vs ``constable``)
  share one execution.
* **Plans cover their harnesses** — every figure harness runs with *zero*
  simulations after the shared wave over :data:`FIGURE_PLANS`.  Each harness
  runs the plan declared beside it, so the two cannot drift apart.
"""

from __future__ import annotations

import pytest

from repro.experiments.cache import ReportCache, ResultCache
from repro.experiments.configs import baseline_config, constable_config
from repro.experiments.figures import (
    FIGURE_HARNESSES,
    FIGURE_PLANS,
    orchestrate_figures,
)
from repro.experiments.orchestrator import FigurePlan, SweepOrchestrator
from repro.experiments.parallel import ParallelExperimentRunner
from repro.experiments.runner import ExperimentRunner, Shard

SUITES = ("Client", "Server")
INSTRUCTIONS = 600
#: Overlap-heavy subset used by the differential tests; fig14 adds SMT jobs.
FIGURES = ("fig11", "fig13", "fig14", "fig16", "fig17")


def _make_runner(workers: int = 1, cache_dir=None) -> ExperimentRunner:
    kwargs = dict(per_suite=1, instructions=INSTRUCTIONS, suites=SUITES)
    if cache_dir is not None:
        kwargs.update(cache=ResultCache(cache_dir),
                      report_cache=ReportCache(cache_dir))
    if workers > 1:
        return ParallelExperimentRunner(**kwargs, max_workers=workers)
    return ExperimentRunner(**kwargs)


@pytest.fixture(scope="module")
def serial_reference():
    """Per-figure reference payloads: a fresh runner (and wave) per figure."""
    reference = {}
    for name in FIGURES:
        with _make_runner() as runner:
            reference[name] = FIGURE_HARNESSES[name](runner)
    return reference


# ------------------------------------------------------------------ registry

def test_every_figure_harness_has_a_plan():
    assert set(FIGURE_PLANS) == set(FIGURE_HARNESSES)


def test_plans_carry_their_own_figure_name():
    for name, factory in FIGURE_PLANS.items():
        assert factory().figure == name


# -------------------------------------------------------------- bit-identity

@pytest.mark.parametrize("workers", [1, 2, 4])
def test_orchestrated_figures_bit_identical_to_serial(workers, serial_reference):
    with _make_runner(workers) as runner:
        results, stats = orchestrate_figures(runner, list(FIGURES))
    for name in FIGURES:
        assert results[name] == serial_reference[name], name
    assert stats.planned > stats.unique, "overlapping figures must dedup"
    assert stats.executed == stats.unique  # cold runner, no cache


# ------------------------------------------------------------- at-most-once

def test_each_unique_simulation_runs_at_most_once(simulation_counter):
    with _make_runner() as runner:
        _, stats = orchestrate_figures(runner, list(FIGURES))
    assert simulation_counter["count"] == stats.executed
    # fig13's all_loads is content-identical to constable, and baseline is
    # demanded by several figures: far fewer executions than figure demand.
    assert stats.executed < stats.planned


def test_harnesses_after_wave_simulate_nothing(simulation_counter):
    """Every harness's plan is covered by the shared wave over all plans."""
    with _make_runner() as runner:
        orchestrate_figures(runner, list(FIGURE_PLANS))
        during_wave = simulation_counter["count"]
        for name in FIGURE_PLANS:
            FIGURE_HARNESSES[name](runner)
        assert simulation_counter["count"] == during_wave, (
            "a figure harness demanded a job its plan did not declare")


def test_second_orchestration_is_a_no_op(simulation_counter):
    with _make_runner() as runner:
        orchestrate_figures(runner, ["fig11"])
        before = simulation_counter["count"]
        _, stats = orchestrate_figures(runner, ["fig11", "fig12"])
        # fig12's configs are a subset of fig11's: everything is committed.
        assert simulation_counter["count"] == before
        assert stats.executed == stats.unique == 0


# ------------------------------------------------------------------- caching

def test_warm_cache_wave_executes_nothing(tmp_path, simulation_counter,
                                          serial_reference):
    with _make_runner(cache_dir=tmp_path) as cold:
        _, cold_stats = orchestrate_figures(cold, list(FIGURES))
    executed_cold = simulation_counter["count"]
    assert executed_cold == cold_stats.executed
    with _make_runner(cache_dir=tmp_path) as warm:
        warm_results, warm_stats = orchestrate_figures(warm, list(FIGURES))
    assert simulation_counter["count"] == executed_cold, "warm wave simulated"
    assert warm_stats.executed == 0
    assert warm_stats.cache_warm == warm_stats.unique == cold_stats.unique
    assert len(cold_stats.cold_jobs) == cold_stats.executed, \
        "every executed job must be named for --expect-warm diagnostics"
    assert warm_stats.cold_jobs == [], "a warm wave has no cold jobs to name"
    for name in FIGURES:
        assert warm_results[name] == serial_reference[name], name


def test_aliased_results_share_one_cache_entry(tmp_path):
    """Content-identical jobs under different names store one entry."""
    with _make_runner(cache_dir=tmp_path) as runner:
        plan = FigurePlan("alias", configs={
            "constable": constable_config(),
            "all_loads": constable_config(),
        })
        stats = SweepOrchestrator(runner).execute([plan])
        workload_count = len(runner.workloads())
    assert stats.planned == 2 * workload_count
    assert stats.unique == stats.executed == workload_count


# ------------------------------------------------------------------ sharding

def test_sharded_orchestration_merges_bit_identical(tmp_path, simulation_counter):
    plan_factory = lambda: FigurePlan("sweep", configs={  # noqa: E731
        "baseline": baseline_config(),
        "constable": constable_config(),
    }, smt_configs={"baseline": baseline_config()}, smt_max_pairs=1)

    with _make_runner() as serial:
        SweepOrchestrator(serial).execute([plan_factory()])
        expected = {name: run.results["constable"].cycles
                    for name, run in serial.workloads().items()}
        expected_smt = {pair: result.cycles for pair, result in
                        serial.run_smt_config("baseline", baseline_config(),
                                              max_pairs=1).items()}

    for index in (1, 2):
        with _make_runner(cache_dir=tmp_path) as host:
            SweepOrchestrator(host).execute([plan_factory()],
                                            shard=Shard(index, 2))
    before = simulation_counter["count"]
    with _make_runner(cache_dir=tmp_path) as merged:
        stats = SweepOrchestrator(merged).execute([plan_factory()])
        assert stats.executed == 0, "merge must fold warm shard entries"
        got = {name: run.results["constable"].cycles
               for name, run in merged.workloads().items()}
        got_smt = {pair: result.cycles for pair, result in
                   merged.run_smt_config("baseline", baseline_config(),
                                         max_pairs=1).items()}
    assert simulation_counter["count"] == before
    assert got == expected
    assert got_smt == expected_smt


def test_shards_partition_the_wave_disjointly(tmp_path):
    plan = FigurePlan("sweep", configs={"baseline": baseline_config()})
    executed = []
    for index in (1, 2):
        with _make_runner(cache_dir=tmp_path) as host:
            stats = SweepOrchestrator(host).execute([plan], shard=Shard(index, 2))
            executed.append(stats.executed)
    assert sum(executed) == 2  # two workloads, one each


# --------------------------------------------------------------- plan merging

def test_colliding_config_names_with_different_contents_are_rejected():
    """One name meaning two configs would hand a figure another's data."""
    with _make_runner() as runner:
        conflicting = [
            FigurePlan("a", configs={"baseline": baseline_config()}),
            FigurePlan("b", configs={"baseline": constable_config()}),
        ]
        with pytest.raises(ValueError, match="disagree.*baseline"):
            SweepOrchestrator(runner).execute(conflicting)
        smt_conflicting = [
            FigurePlan("a", smt_configs={"baseline": baseline_config()},
                       smt_max_pairs=1),
            FigurePlan("b", smt_configs={"baseline": constable_config()},
                       smt_max_pairs=1),
        ]
        with pytest.raises(ValueError, match="disagree.*baseline"):
            SweepOrchestrator(runner).execute(smt_conflicting)
        # Same name, same content (fresh factory calls) merges fine.
        agreeing = [
            FigurePlan("a", configs={"baseline": baseline_config()}),
            FigurePlan("b", configs={"baseline": baseline_config()}),
        ]
        stats = SweepOrchestrator(runner).execute(agreeing)
        assert stats.unique == len(runner.workloads())


def test_smt_pair_budgets_merge_to_the_loosest_request(simulation_counter):
    """Each plan is planned at its own pair budget: plans asking for one SMT
    config at budgets 1 and 2 commit the looser request's two pairs, and the
    pair both budgets cover executes once."""
    with ExperimentRunner(per_suite=2, instructions=INSTRUCTIONS,
                          suites=SUITES) as runner:
        pairs = runner.smt_pairs(2)
        assert len(pairs) == 2
        plans = [FigurePlan(figure, smt_configs={"baseline": baseline_config()},
                            smt_max_pairs=budget)
                 for figure, budget in (("a", 1), ("b", 2))]
        stats = SweepOrchestrator(runner).execute(plans)
        assert list(runner.smt_results("baseline", max_pairs=2)) == pairs
    assert (stats.planned, stats.unique, stats.executed) == (3, 2, 2)
    assert simulation_counter["count"] == 2


def test_dedup_stats_serialise_round_trip():
    with _make_runner() as runner:
        _, stats = orchestrate_figures(runner, ["fig11", "fig13"])
    payload = stats.to_dict()
    assert payload["planned"] == stats.planned
    assert payload["deduped"] == stats.planned - stats.unique
    assert payload["executed"] + payload["cache_warm"] == payload["unique"]
    assert payload["figures"] == ["fig11", "fig13"]
