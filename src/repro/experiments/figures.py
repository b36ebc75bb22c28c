"""Per-figure experiment harnesses and the plans they run.

Every ``fig*``/``table*`` function regenerates one table or figure of the
paper and returns a plain dictionary with the numbers (plus, in most cases, a
``text`` entry with a formatted table).  The functions accept an
:class:`ExperimentRunner`; when none is given they build a small default
runner so that each harness stays runnable on a laptop in seconds-to-minutes.

Each runner-based harness declares its configurations exactly once, in the
``plan_fig*`` factory beside it: the harness runs that :class:`FigurePlan` as
one wave and reads the committed results back by name.  The same factories
feed :data:`FIGURE_PLANS`: ``repro figures`` runs the requested figures'
plans as one deduplicated wave.

The absolute values will not match the paper (synthetic workloads, simplified
core); the claims table in ``tests/test_paper_claims.py`` records, per figure,
which qualitative property is expected to hold.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats_utils import box_whisker_summary, filtered_geomean
from repro.core.config import ConstableConfig
from repro.core.storage import storage_overhead_report
from repro.experiments.configs import (
    baseline_config,
    constable_config,
    constable_engine_config,
    elar_config,
    elar_constable_config,
    eves_config,
    eves_constable_config,
    rfp_config,
    rfp_constable_config,
)
from repro.experiments.cache import ReportCache, ResultCache
from repro.experiments.orchestrator import DedupStats, FigurePlan, SweepOrchestrator
from repro.experiments.reporting import format_table, per_suite_table
from repro.experiments.runner import ConfigLike, ExperimentRunner
from repro.isa.instruction import AddressingMode
from repro.pipeline.config import CoreConfig, IdealMode, IdealOracle
from repro.power.cacti import constable_structure_estimates
from repro.power.power_model import CorePowerModel
from repro.workloads.suites import SUITE_NAMES


def default_runner(per_suite: Optional[int] = 2, instructions: int = 6000,
                   workers: Optional[int] = None,
                   cache_dir: Optional[str] = None,
                   suites: Sequence[str] = SUITE_NAMES) -> ExperimentRunner:
    """The reduced workload set the CLI and the paper-claims tests run.

    Every figure harness accepts either runner flavour: pass ``workers > 1``
    for a :class:`~repro.experiments.parallel.ParallelExperimentRunner` that
    shards Load Inspector passes and simulations (single-thread and SMT) over
    a process pool, and/or ``cache_dir`` to share an on-disk cache directory
    with other harnesses and reruns.  The directory holds both the result
    cache (single-thread + SMT entries) and the Load Inspector report cache,
    so a warm rerun of any figure harness performs zero simulations and zero
    inspection passes.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    report_cache = ReportCache(cache_dir) if cache_dir is not None else None
    if workers is not None and workers > 1:
        # The pool, and the simulator it loads before forking, are imported
        # only by a run that asks for workers.
        from repro.experiments.parallel import ParallelExperimentRunner
        return ParallelExperimentRunner(per_suite=per_suite, instructions=instructions,
                                        suites=suites, cache=cache,
                                        report_cache=report_cache,
                                        max_workers=workers)
    return ExperimentRunner(per_suite=per_suite, instructions=instructions,
                            suites=suites, cache=cache, report_cache=report_cache)


#: Fig. 14's SMT2 pair budget.
FIG14_MAX_PAIRS = 4

#: Fig. 20's load-width and pipeline-depth sensitivity grids.
FIG20_LOAD_WIDTHS = (3, 4, 5, 6)
FIG20_DEPTH_SCALES = (1.0, 2.0, 4.0)


def _ideal_builder(mode: IdealMode, lvp: Optional[str] = None):
    """Config builder for the oracle-driven ideal mechanisms (needs the report)."""
    def build(report):
        oracle = IdealOracle(stable_pcs=frozenset(report.global_stable_pcs()),
                             mode=mode)
        return CoreConfig(ideal_oracle=oracle, lvp=lvp)
    return build


def _run_plan(plan: FigurePlan,
              runner: Optional[ExperimentRunner]) -> ExperimentRunner:
    """The harness's runner (a default one when none is given), after one
    wave over ``plan`` has committed every result the harness reads."""
    runner = runner or default_runner()
    SweepOrchestrator(runner).execute([plan])
    return runner


# ======================================================================== Fig 3

def plan_fig3() -> FigurePlan:
    """Fig. 3 consumes only Load Inspector reports."""
    return FigurePlan("fig3")


def fig3_global_stable_characterisation(runner: Optional[ExperimentRunner] = None) -> Dict[str, object]:
    """Fig. 3: fraction, addressing modes and reuse distances of global-stable loads."""
    runner = _run_plan(plan_fig3(), runner)
    per_suite_fraction: Dict[str, List[float]] = {suite: [] for suite in runner.suites}
    mode_breakdown: Dict[str, Dict[str, List[float]]] = {}
    distance: Dict[str, List[float]] = {}
    distance_by_mode: Dict[str, Dict[str, List[float]]] = {}
    for run in runner.workloads().values():
        report = run.report
        per_suite_fraction[run.spec.suite].append(report.global_stable_dynamic_fraction())
        for mode, value in report.addressing_mode_breakdown().items():
            mode_breakdown.setdefault(run.spec.suite, {}).setdefault(mode, []).append(value)
        for bucket, value in report.distance_distribution().items():
            distance.setdefault(bucket, []).append(value)
        for mode, buckets in report.distance_distribution_by_mode().items():
            for bucket, value in buckets.items():
                distance_by_mode.setdefault(mode, {}).setdefault(bucket, []).append(value)

    def _avg(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    fraction_by_suite = {suite: _avg(values) for suite, values in per_suite_fraction.items()}
    all_fractions = [v for values in per_suite_fraction.values() for v in values]
    result = {
        "global_stable_fraction_by_suite": fraction_by_suite,
        "global_stable_fraction_avg": _avg(all_fractions),
        "addressing_mode_breakdown": {
            suite: {mode: _avg(values) for mode, values in modes.items()}
            for suite, modes in mode_breakdown.items()},
        "distance_distribution": {bucket: _avg(values) for bucket, values in distance.items()},
        "distance_distribution_by_mode": {
            mode: {bucket: _avg(values) for bucket, values in buckets.items()}
            for mode, buckets in distance_by_mode.items()},
    }
    rows = [(suite, f"{fraction * 100:.1f}%") for suite, fraction in fraction_by_suite.items()]
    rows.append(("AVG", f"{result['global_stable_fraction_avg'] * 100:.1f}%"))
    result["text"] = format_table(["suite", "global-stable loads"], rows,
                                  title="Fig. 3(a): fraction of dynamic loads that are global-stable")
    return result


# ======================================================================== Fig 6

def plan_fig6() -> FigurePlan:
    """Fig. 6: load-port utilisation under baseline + EVES."""
    return FigurePlan("fig6", configs={"baseline+eves": eves_config()})


def fig6_load_port_utilisation(runner: Optional[ExperimentRunner] = None) -> Dict[str, object]:
    """Fig. 6: load-port-utilised cycles and how often stable loads hold the port."""
    runner = _run_plan(plan_fig6(), runner)
    results = runner.results("baseline+eves")
    utilised_fractions = []
    blocking_fractions = []
    for result in results.values():
        cycles = max(1, result.cycles)
        utilised = result.stats.load_utilized_cycles
        utilised_fractions.append(utilised / cycles)
        if utilised:
            blocking_fractions.append(result.stats.load_utilized_cycles_stable_blocking / utilised)
    summary = {
        "load_utilised_cycle_fraction": sum(utilised_fractions) / len(utilised_fractions),
        "stable_blocking_fraction_of_utilised": (
            sum(blocking_fractions) / len(blocking_fractions) if blocking_fractions else 0.0),
    }
    summary["text"] = format_table(
        ["metric", "value"],
        [("cycles with >=1 load port busy", f"{summary['load_utilised_cycle_fraction'] * 100:.1f}%"),
         ("of those, stable load holds port while non-stable waits",
          f"{summary['stable_blocking_fraction_of_utilised'] * 100:.1f}%")],
        title="Fig. 6: load port utilisation (baseline + EVES)")
    return summary


# ======================================================================== Fig 7

def plan_fig7() -> FigurePlan:
    """Fig. 7: ideal-mechanism headroom sweeps."""
    return FigurePlan("fig7", configs={
        "baseline": baseline_config(),
        "ideal_stable_lvp": _ideal_builder(IdealMode.STABLE_LVP),
        "ideal_stable_lvp_fetch_elim":
            _ideal_builder(IdealMode.STABLE_LVP_FETCH_ELIM),
        "2x_load_width": baseline_config().with_load_width(6),
        "ideal_constable": _ideal_builder(IdealMode.CONSTABLE),
    })


def fig7_headroom(runner: Optional[ExperimentRunner] = None) -> Dict[str, object]:
    """Fig. 7: Ideal Constable vs Ideal Stable LVP vs 2x load width."""
    plan = plan_fig7()
    runner = _run_plan(plan, runner)
    configs = [name for name in plan.configs if name != "baseline"]
    per_suite = {}
    for config in configs:
        for suite, value in runner.speedups_by_suite(config).items():
            per_suite.setdefault(suite, {})[config] = value
    result = {"speedups_by_suite": per_suite,
              "geomean": {config: runner.geomean_speedup(config) for config in configs}}
    result["text"] = per_suite_table(per_suite, title="Fig. 7: headroom of ideal mechanisms")
    return result


# ======================================================================== Fig 9

def plan_fig9() -> FigurePlan:
    """Fig. 9: SLD update rate and wrong-path sensitivity."""
    return FigurePlan("fig9", configs={
        "baseline": baseline_config(),
        "constable": constable_config(),
        "constable_wrong_path": constable_config(
            constable=constable_engine_config(wrong_path_updates=True)),
    })


def fig9_sld_updates(runner: Optional[ExperimentRunner] = None) -> Dict[str, object]:
    """Fig. 9: SLD updates per cycle and the effect of wrong-path updates."""
    runner = _run_plan(plan_fig9(), runner)
    clean = runner.results("constable")
    noisy = runner.results("constable_wrong_path")
    updates = [result.stats.average_sld_updates_per_cycle() for result in clean.values()]
    deltas = []
    for name in clean:
        clean_cycles = clean[name].cycles
        noisy_cycles = noisy[name].cycles
        deltas.append(clean_cycles / noisy_cycles - 1.0)
    result = {
        "sld_updates_per_cycle": box_whisker_summary(updates),
        "wrong_path_performance_delta": box_whisker_summary(deltas),
    }
    result["text"] = format_table(
        ["metric", "mean", "median", "max"],
        [("SLD updates per cycle",
          f"{result['sld_updates_per_cycle']['mean']:.3f}",
          f"{result['sld_updates_per_cycle']['median']:.3f}",
          f"{result['sld_updates_per_cycle']['max']:.3f}"),
         ("perf delta from wrong-path updates",
          f"{result['wrong_path_performance_delta']['mean'] * 100:.2f}%",
          f"{result['wrong_path_performance_delta']['median'] * 100:.2f}%",
          f"{result['wrong_path_performance_delta']['max'] * 100:.2f}%")],
        title="Fig. 9: SLD update rate and wrong-path sensitivity")
    return result


# ======================================================================= Fig 11

def plan_fig11() -> FigurePlan:
    """Fig. 11: the headline noSMT speedup sweep."""
    return FigurePlan("fig11", configs={
        "baseline": baseline_config(),
        "eves": eves_config(),
        "constable": constable_config(),
        "eves+constable": eves_constable_config(),
        "eves+ideal_constable": _ideal_builder(IdealMode.CONSTABLE, lvp="eves"),
    })


def fig11_speedup_nosmt(runner: Optional[ExperimentRunner] = None) -> Dict[str, object]:
    """Fig. 11: noSMT speedups of EVES, Constable, EVES+Constable, EVES+Ideal Constable."""
    plan = plan_fig11()
    runner = _run_plan(plan, runner)
    configs = [name for name in plan.configs if name != "baseline"]
    per_suite = {}
    for config in configs:
        for suite, value in runner.speedups_by_suite(config).items():
            per_suite.setdefault(suite, {})[config] = value
    result = {"speedups_by_suite": per_suite,
              "geomean": {config: runner.geomean_speedup(config) for config in configs}}
    result["text"] = per_suite_table(per_suite, title="Fig. 11: speedup over baseline (noSMT)")
    return result


# ======================================================================= Fig 12

def plan_fig12() -> FigurePlan:
    """Fig. 12: per-workload speedups (subset of fig. 11's configs)."""
    return FigurePlan("fig12", configs={
        "baseline": baseline_config(),
        "eves": eves_config(),
        "constable": constable_config(),
        "eves+constable": eves_constable_config(),
    })


def fig12_per_workload(runner: Optional[ExperimentRunner] = None) -> Dict[str, object]:
    """Fig. 12: per-workload speedup line graph data (sorted by EVES speedup)."""
    runner = _run_plan(plan_fig12(), runner)
    eves = runner.speedups("eves")
    constable = runner.speedups("constable")
    combined = runner.speedups("eves+constable")
    order = sorted(eves, key=lambda name: eves[name])
    rows = [(name, f"{eves[name]:.3f}", f"{constable[name]:.3f}", f"{combined[name]:.3f}")
            for name in order]
    constable_wins = sum(1 for name in order if constable[name] > eves[name])
    result = {
        "workloads": order,
        "eves": [eves[n] for n in order],
        "constable": [constable[n] for n in order],
        "eves+constable": [combined[n] for n in order],
        "constable_wins": constable_wins,
        "total_workloads": len(order),
        "text": format_table(["workload", "eves", "constable", "eves+constable"], rows,
                             title="Fig. 12: per-workload speedups (sorted by EVES)"),
    }
    return result


# ======================================================================= Fig 13

def plan_fig13() -> FigurePlan:
    """Fig. 13: Constable restricted to single addressing-mode categories."""
    configs: Dict[str, ConfigLike] = {"baseline": baseline_config()}
    categories = {
        "pc_relative_only": frozenset({AddressingMode.PC_RELATIVE}),
        "stack_relative_only": frozenset({AddressingMode.STACK_RELATIVE}),
        "register_relative_only": frozenset({AddressingMode.REG_RELATIVE}),
    }
    for name, modes in categories.items():
        configs[name] = constable_config(
            constable=constable_engine_config(eliminate_addressing_modes=modes))
    configs["all_loads"] = constable_config()
    return FigurePlan("fig13", configs=configs)


def fig13_load_categories(runner: Optional[ExperimentRunner] = None) -> Dict[str, object]:
    """Fig. 13: Constable restricted to PC-/stack-/register-relative loads."""
    plan = plan_fig13()
    runner = _run_plan(plan, runner)
    geomeans = {name: runner.geomean_speedup(name)
                for name in plan.configs if name != "baseline"}
    rows = [(name, f"{value:.3f}") for name, value in geomeans.items()]
    return {"geomean_speedups": geomeans,
            "text": format_table(["category", "speedup"], rows,
                                 title="Fig. 13: speedup by eliminated load category")}


# ======================================================================= Fig 14

def plan_fig14(max_pairs: Optional[int] = FIG14_MAX_PAIRS) -> FigurePlan:
    """Fig. 14: the SMT2 speedup sweep over the first ``max_pairs`` pairs."""
    return FigurePlan("fig14", smt_configs={
        "baseline": baseline_config(),
        "eves": eves_config(),
        "constable": constable_config(),
        "eves+constable": eves_constable_config(),
    }, smt_max_pairs=max_pairs)


def fig14_speedup_smt2(runner: Optional[ExperimentRunner] = None,
                       max_pairs: Optional[int] = FIG14_MAX_PAIRS) -> Dict[str, object]:
    """Fig. 14: SMT2 speedups of EVES, Constable and EVES+Constable."""
    plan = plan_fig14(max_pairs)
    runner = _run_plan(plan, runner)
    baseline = runner.smt_results("baseline", max_pairs)
    geomeans: Dict[str, float] = {}
    per_pair: Dict[str, Dict[str, float]] = {}
    for name in plan.smt_configs:
        if name == "baseline":
            continue
        results = runner.smt_results(name, max_pairs)
        speedups = []
        for pair, result in results.items():
            # Degenerate tiny-trace pairs can retire in zero cycles; skip them
            # rather than dividing by zero or feeding the geomean a zero.
            if baseline[pair].cycles <= 0 or result.cycles <= 0:
                continue
            speedup = baseline[pair].cycles / result.cycles
            speedups.append(speedup)
            per_pair.setdefault("+".join(pair), {})[name] = speedup
        geomeans[name] = filtered_geomean(speedups)
    rows = [(name, f"{value:.3f}") for name, value in geomeans.items()]
    return {"geomean_speedups": geomeans, "per_pair": per_pair,
            "text": format_table(["config", "SMT2 speedup"], rows,
                                 title="Fig. 14: speedup over baseline (SMT2)")}


# ======================================================================= Fig 15

def plan_fig15() -> FigurePlan:
    """Fig. 15: prior works (ELAR, RFP) vs and with Constable."""
    return FigurePlan("fig15", configs={
        "baseline": baseline_config(),
        "elar": elar_config(),
        "rfp": rfp_config(),
        "constable": constable_config(),
        "elar+constable": elar_constable_config(),
        "rfp+constable": rfp_constable_config(),
    })


def fig15_prior_works(runner: Optional[ExperimentRunner] = None) -> Dict[str, object]:
    """Fig. 15: ELAR and RFP compared with (and combined with) Constable."""
    plan = plan_fig15()
    runner = _run_plan(plan, runner)
    geomeans = {name: runner.geomean_speedup(name)
                for name in plan.configs if name != "baseline"}
    rows = [(name, f"{value:.3f}") for name, value in geomeans.items()]
    return {"geomean_speedups": geomeans,
            "text": format_table(["config", "speedup"], rows,
                                 title="Fig. 15: Constable vs ELAR and RFP")}


# ======================================================================= Fig 16

def plan_fig16() -> FigurePlan:
    """Fig. 16: load coverage."""
    return FigurePlan("fig16", configs={
        "eves": eves_config(),
        "constable": constable_config(),
        "eves+constable": eves_constable_config(),
        "eves+ideal_constable": _ideal_builder(IdealMode.CONSTABLE, lvp="eves"),
    })


def fig16_coverage(runner: Optional[ExperimentRunner] = None) -> Dict[str, object]:
    """Fig. 16: load coverage of EVES, Constable and their combination."""
    runner = _run_plan(plan_fig16(), runner)
    eves = runner.results("eves")
    constable = runner.results("constable")
    combined = runner.results("eves+constable")
    ideal = runner.results("eves+ideal_constable")

    def _coverage(result, include_lvp: bool, include_constable: bool) -> float:
        loads = max(1, result.stats.loads_renamed)
        covered = 0
        if include_constable and result.constable_stats is not None:
            covered += result.constable_stats.get("loads_eliminated", 0)
        if include_constable and result.stats.eliminated_loads_retired and result.constable_stats is None:
            covered += result.stats.eliminated_loads_retired
        if include_lvp:
            covered += result.stats.value_predicted_loads
        return covered / loads

    coverages = {
        "eves": sum(_coverage(r, True, False) for r in eves.values()) / len(eves),
        "constable": sum(_coverage(r, False, True) for r in constable.values()) / len(constable),
        "eves+constable": sum(_coverage(r, True, True) for r in combined.values()) / len(combined),
        "eves+ideal_constable": sum(
            (r.stats.eliminated_loads_retired + r.stats.value_predicted_loads)
            / max(1, r.stats.loads_renamed) for r in ideal.values()) / len(ideal),
    }
    rows = [(name, f"{value * 100:.1f}%") for name, value in coverages.items()]
    return {"coverage": coverages,
            "text": format_table(["config", "load coverage"], rows,
                                 title="Fig. 16: fraction of loads covered")}


# ======================================================================= Fig 17

def plan_fig17() -> FigurePlan:
    """Fig. 17: runtime coverage of global-stable loads."""
    return FigurePlan("fig17", configs={"constable": constable_config()})


def fig17_stable_breakdown(runner: Optional[ExperimentRunner] = None) -> Dict[str, object]:
    """Fig. 17: how many global-stable loads Constable actually eliminates."""
    runner = _run_plan(plan_fig17(), runner)
    results = runner.results("constable")
    eliminated_stable = 0
    eliminated_other = 0
    stable_total = 0
    for name, result in results.items():
        eliminated_stable += result.stats.eliminated_oracle_stable_loads
        eliminated_other += result.stats.eliminated_non_stable_loads
        stable_total += result.stats.oracle_stable_loads_renamed
    stable_total = max(1, stable_total)
    breakdown = {
        "global_stable_and_eliminated": eliminated_stable / stable_total,
        "global_stable_not_eliminated": 1.0 - eliminated_stable / stable_total,
        "not_global_stable_but_eliminated": eliminated_other / stable_total,
    }
    rows = [(name, f"{value * 100:.1f}%") for name, value in breakdown.items()]
    return {"breakdown": breakdown,
            "text": format_table(["category", "fraction of global-stable loads"], rows,
                                 title="Fig. 17: runtime coverage of global-stable loads")}


# ======================================================================= Fig 18

def plan_fig18() -> FigurePlan:
    """Fig. 18: RS-allocation and L1-D access reduction."""
    return FigurePlan("fig18", configs={
        "baseline": baseline_config(),
        "constable": constable_config(),
    })


def fig18_resource_utilisation(runner: Optional[ExperimentRunner] = None) -> Dict[str, object]:
    """Fig. 18: reduction in RS allocations and L1-D accesses with Constable."""
    runner = _run_plan(plan_fig18(), runner)
    rs_ratio = runner.metric_ratio(
        "constable", lambda r: r.resource_stats.get("rs_allocations", 0))
    l1_ratio = runner.metric_ratio(
        "constable", lambda r: r.power_events.get("l1d_accesses", 0))
    rs_reduction = [1.0 - value for value in rs_ratio.values()]
    l1_reduction = [1.0 - value for value in l1_ratio.values()]
    result = {
        "rs_allocation_reduction": box_whisker_summary(rs_reduction),
        "l1d_access_reduction": box_whisker_summary(l1_reduction),
    }
    result["text"] = format_table(
        ["metric", "mean", "median", "max"],
        [("RS allocation reduction",
          f"{result['rs_allocation_reduction']['mean'] * 100:.1f}%",
          f"{result['rs_allocation_reduction']['median'] * 100:.1f}%",
          f"{result['rs_allocation_reduction']['max'] * 100:.1f}%"),
         ("L1-D access reduction",
          f"{result['l1d_access_reduction']['mean'] * 100:.1f}%",
          f"{result['l1d_access_reduction']['median'] * 100:.1f}%",
          f"{result['l1d_access_reduction']['max'] * 100:.1f}%")],
        title="Fig. 18: pipeline resource utilisation reduction")
    return result


# ======================================================================= Fig 19

def plan_fig19() -> FigurePlan:
    """Fig. 19: core dynamic power."""
    return FigurePlan("fig19", configs={
        "baseline": baseline_config(),
        "eves": eves_config(),
        "constable": constable_config(),
        "eves+constable": eves_constable_config(),
    })


def fig19_power(runner: Optional[ExperimentRunner] = None) -> Dict[str, object]:
    """Fig. 19: core dynamic power of EVES, Constable and EVES+Constable vs baseline."""
    plan = plan_fig19()
    runner = _run_plan(plan, runner)
    model = CorePowerModel()
    config_names = list(plan.configs)

    totals: Dict[str, float] = {name: 0.0 for name in config_names}
    sub_units: Dict[str, Dict[str, float]] = {name: {} for name in config_names}
    units: Dict[str, Dict[str, float]] = {name: {} for name in config_names}
    for run in runner.workloads().values():
        for name in config_names:
            breakdown = model.evaluate(run.results[name].power_events)
            totals[name] += breakdown.total
            for unit, value in breakdown.units.items():
                units[name][unit] = units[name].get(unit, 0.0) + value
            for unit, value in breakdown.sub_units.items():
                sub_units[name][unit] = sub_units[name].get(unit, 0.0) + value

    baseline_total = totals["baseline"] or 1.0
    relative = {name: totals[name] / baseline_total for name in config_names}
    rs_delta = {name: sub_units[name].get("RS", 0.0) / (sub_units["baseline"].get("RS", 1.0) or 1.0)
                for name in config_names}
    l1_delta = {name: sub_units[name].get("L1D", 0.0) / (sub_units["baseline"].get("L1D", 1.0) or 1.0)
                for name in config_names}
    rows = [(name, f"{relative[name]:.3f}", f"{rs_delta[name]:.3f}", f"{l1_delta[name]:.3f}")
            for name in config_names]
    return {
        "relative_core_power": relative,
        "relative_rs_power": rs_delta,
        "relative_l1d_power": l1_delta,
        "unit_breakdown": units,
        "text": format_table(["config", "core power", "RS power", "L1-D power"], rows,
                             title="Fig. 19: dynamic power relative to baseline"),
    }


# ======================================================================= Fig 20

def plan_fig20(load_widths: Sequence[int] = FIG20_LOAD_WIDTHS,
               depth_scales: Sequence[float] = FIG20_DEPTH_SCALES) -> FigurePlan:
    """Fig. 20: the load-width / pipeline-depth sensitivity grids."""
    configs: Dict[str, ConfigLike] = {"baseline": baseline_config()}
    for width in load_widths:
        configs[f"baseline_w{width}"] = baseline_config().with_load_width(width)
        configs[f"constable_w{width}"] = constable_config().with_load_width(width)
    for scale in depth_scales:
        configs[f"baseline_d{scale}"] = baseline_config().with_depth_scale(scale)
        configs[f"constable_d{scale}"] = constable_config().with_depth_scale(scale)
    return FigurePlan("fig20", configs=configs)


def fig20_sensitivity(runner: Optional[ExperimentRunner] = None,
                      load_widths: Sequence[int] = FIG20_LOAD_WIDTHS,
                      depth_scales: Sequence[float] = FIG20_DEPTH_SCALES) -> Dict[str, object]:
    """Fig. 20: sensitivity to load execution width and pipeline depth."""
    runner = _run_plan(plan_fig20(load_widths, depth_scales), runner)
    width_results = {width: {
        "baseline": runner.geomean_speedup(f"baseline_w{width}"),
        "constable": runner.geomean_speedup(f"constable_w{width}"),
    } for width in load_widths}
    depth_results = {scale: {
        "baseline": runner.geomean_speedup(f"baseline_d{scale}"),
        "constable": runner.geomean_speedup(f"constable_d{scale}"),
    } for scale in depth_scales}
    rows = [(f"load width {w}", f"{v['baseline']:.3f}", f"{v['constable']:.3f}")
            for w, v in width_results.items()]
    rows += [(f"depth x{s}", f"{v['baseline']:.3f}", f"{v['constable']:.3f}")
             for s, v in depth_results.items()]
    return {"load_width": width_results, "pipeline_depth": depth_results,
            "text": format_table(["sweep point", "baseline", "constable"], rows,
                                 title="Fig. 20: sensitivity to load width and pipeline depth")}


# ======================================================================= Fig 21

def plan_fig21() -> FigurePlan:
    """Fig. 21: memory-ordering violation cost."""
    return FigurePlan("fig21", configs={
        "baseline": baseline_config(),
        "constable": constable_config(),
    })


def fig21_ordering_violations(runner: Optional[ExperimentRunner] = None) -> Dict[str, object]:
    """Fig. 21: memory-ordering violations by eliminated loads and ROB allocation increase."""
    runner = _run_plan(plan_fig21(), runner)
    results = runner.results("constable")
    violation_fractions = []
    for result in results.values():
        eliminated = max(1, int((result.constable_stats or {}).get("loads_eliminated", 0)))
        violations = int((result.constable_stats or {}).get("ordering_violations", 0))
        violation_fractions.append(violations / eliminated)
    rob_ratio = runner.metric_ratio(
        "constable", lambda r: r.resource_stats.get("rob_allocations", 0))
    rob_increase = [value - 1.0 for value in rob_ratio.values()]
    result = {
        "violation_fraction": box_whisker_summary(violation_fractions),
        "rob_allocation_increase": box_whisker_summary(rob_increase),
    }
    result["text"] = format_table(
        ["metric", "mean", "max"],
        [("eliminated loads violating ordering",
          f"{result['violation_fraction']['mean'] * 100:.3f}%",
          f"{result['violation_fraction']['max'] * 100:.3f}%"),
         ("increase in allocated instructions",
          f"{result['rob_allocation_increase']['mean'] * 100:.2f}%",
          f"{result['rob_allocation_increase']['max'] * 100:.2f}%")],
        title="Fig. 21: cost of eliminated-load memory-ordering violations")
    return result


# ======================================================================= Fig 22

def plan_fig22() -> FigurePlan:
    """Fig. 22: CV-bit pinning vs AMT invalidation."""
    return FigurePlan("fig22", configs={
        "baseline": baseline_config(),
        "constable": constable_config(),
        "constable_amt_i": constable_config(
            constable=constable_engine_config(
                amt_invalidate_on_l1_eviction=True, pin_cv_bits=False)),
    })


def fig22_amt_invalidation(runner: Optional[ExperimentRunner] = None) -> Dict[str, object]:
    """Fig. 22: CV-bit pinning vs invalidating AMT entries on every L1 eviction."""
    runner = _run_plan(plan_fig22(), runner)
    vanilla = runner.results("constable")
    amt_i = runner.results("constable_amt_i")
    speedup_vanilla = runner.geomean_speedup("constable")
    speedup_amt_i = runner.geomean_speedup("constable_amt_i")

    def _avg_coverage(results) -> float:
        values = [(r.constable_stats or {}).get("elimination_coverage", 0.0)
                  for r in results.values()]
        return sum(values) / len(values) if values else 0.0

    result = {
        "speedup": {"constable": speedup_vanilla, "constable_amt_i": speedup_amt_i},
        "coverage": {"constable": _avg_coverage(vanilla),
                     "constable_amt_i": _avg_coverage(amt_i)},
    }
    rows = [("constable (CV-bit pinning)", f"{speedup_vanilla:.3f}",
             f"{result['coverage']['constable'] * 100:.1f}%"),
            ("constable-AMT-I (invalidate on eviction)", f"{speedup_amt_i:.3f}",
             f"{result['coverage']['constable_amt_i'] * 100:.1f}%")]
    result["text"] = format_table(["variant", "speedup", "coverage"], rows,
                                  title="Fig. 22: CV-bit pinning vs AMT invalidation")
    return result


# =================================================================== Fig 23 / 24

def fig23_fig24_apx_study(runner: Optional[ExperimentRunner] = None) -> Dict[str, object]:
    """Figs. 23-24: effect of doubling the architectural registers (APX) on
    dynamic load count, global-stable fraction and addressing-mode mix.

    ``runner``'s 16-register workloads are one side; the other is a
    32-register twin over the same budget, suites and report cache.  Only
    Load Inspector reports are compared: nothing is simulated.
    """
    runner = runner or default_runner()
    apx_runner = ExperimentRunner(per_suite=runner.per_suite,
                                  instructions=runner.instructions,
                                  num_registers=32, suites=runner.suites,
                                  report_cache=runner.report_cache)
    load_reduction = []
    fraction_16 = []
    fraction_32 = []
    modes_16: Dict[str, List[float]] = {}
    modes_32: Dict[str, List[float]] = {}
    apx_workloads = apx_runner.workloads()
    for name, run in runner.workloads().items():
        apx_run = apx_workloads[name]
        base_loads = run.report.total_dynamic_loads()
        apx_loads = apx_run.report.total_dynamic_loads()
        if base_loads:
            load_reduction.append(1.0 - apx_loads / base_loads)
        fraction_16.append(run.report.global_stable_dynamic_fraction())
        fraction_32.append(apx_run.report.global_stable_dynamic_fraction())
        for mode, value in run.report.addressing_mode_breakdown().items():
            modes_16.setdefault(mode, []).append(value)
        for mode, value in apx_run.report.addressing_mode_breakdown().items():
            modes_32.setdefault(mode, []).append(value)

    def _avg(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    result = {
        "dynamic_load_reduction_with_apx": _avg(load_reduction),
        "global_stable_fraction": {"16_registers": _avg(fraction_16),
                                   "32_registers": _avg(fraction_32)},
        "addressing_mode_breakdown": {
            "16_registers": {mode: _avg(values) for mode, values in modes_16.items()},
            "32_registers": {mode: _avg(values) for mode, values in modes_32.items()},
        },
    }
    rows = [
        ("dynamic loads removed by APX", f"{result['dynamic_load_reduction_with_apx'] * 100:.1f}%"),
        ("global-stable fraction (16 regs)",
         f"{result['global_stable_fraction']['16_registers'] * 100:.1f}%"),
        ("global-stable fraction (32 regs)",
         f"{result['global_stable_fraction']['32_registers'] * 100:.1f}%"),
        ("stack-relative share (16 regs)",
         f"{result['addressing_mode_breakdown']['16_registers'].get('stack', 0) * 100:.1f}%"),
        ("stack-relative share (32 regs)",
         f"{result['addressing_mode_breakdown']['32_registers'].get('stack', 0) * 100:.1f}%"),
    ]
    result["text"] = format_table(["metric", "value"], rows,
                                  title="Figs. 23-24: APX (32 architectural registers) study")
    return result


# ======================================================================= Tables

def table1_storage_overhead() -> Dict[str, object]:
    """Table 1: per-structure storage overhead of Constable."""
    report = storage_overhead_report(ConstableConfig())
    rows = [(name.upper(), f"{kb:.2f} KB") for name, kb in report.items()]
    return {"storage_kb": report,
            "text": format_table(["structure", "storage"], rows,
                                 title="Table 1: Constable storage overhead")}


def table3_energy_estimates() -> Dict[str, object]:
    """Table 3: access energy, leakage and area of Constable's structures."""
    estimates = constable_structure_estimates()
    rows = [(est.name, f"{est.size_kb:.1f} KB", f"{est.read_energy_pj:.2f}",
             f"{est.write_energy_pj:.2f}", f"{est.leakage_mw:.2f}", f"{est.area_mm2:.3f}")
            for est in estimates.values()]
    return {"estimates": {key: dataclasses.asdict(est)
                          for key, est in estimates.items()},
            "text": format_table(
                ["structure", "size", "read pJ", "write pJ", "leakage mW", "area mm2"], rows,
                title="Table 3: Constable structure energy/area estimates")}


# ============================================================ registries (CLI)

#: Every figure harness that consumes a shared :class:`ExperimentRunner`,
#: addressable by name from ``repro figures``; ``all`` expands to this set.
FIGURE_HARNESSES: Dict[str, Callable[..., Dict[str, object]]] = {
    "fig3": fig3_global_stable_characterisation,
    "fig6": fig6_load_port_utilisation,
    "fig7": fig7_headroom,
    "fig9": fig9_sld_updates,
    "fig11": fig11_speedup_nosmt,
    "fig12": fig12_per_workload,
    "fig13": fig13_load_categories,
    "fig14": fig14_speedup_smt2,
    "fig15": fig15_prior_works,
    "fig16": fig16_coverage,
    "fig17": fig17_stable_breakdown,
    "fig18": fig18_resource_utilisation,
    "fig19": fig19_power,
    "fig20": fig20_sensitivity,
    "fig21": fig21_ordering_violations,
    "fig22": fig22_amt_invalidation,
}

#: Harnesses that run no plan wave; they are addressable by name but excluded
#: from ``all`` and from warm-cache checks.  Each takes the CLI's runner:
#: fig. 23 for its budget, suites and report cache, the tables not at all.
STANDALONE_HARNESSES: Dict[str, Callable[[ExperimentRunner], Dict[str, object]]] = {
    "fig23": fig23_fig24_apx_study,
    "table1": lambda runner: table1_storage_overhead(),
    "table3": lambda runner: table3_energy_estimates(),
}


#: Plan factory per figure harness: the configurations each harness runs,
#: declared once beside it.  Keys match :data:`FIGURE_HARNESSES`.
FIGURE_PLANS: Dict[str, Callable[[], FigurePlan]] = {
    "fig3": plan_fig3,
    "fig6": plan_fig6,
    "fig7": plan_fig7,
    "fig9": plan_fig9,
    "fig11": plan_fig11,
    "fig12": plan_fig12,
    "fig13": plan_fig13,
    "fig14": plan_fig14,
    "fig15": plan_fig15,
    "fig16": plan_fig16,
    "fig17": plan_fig17,
    "fig18": plan_fig18,
    "fig19": plan_fig19,
    "fig20": plan_fig20,
    "fig21": plan_fig21,
    "fig22": plan_fig22,
}


def orchestrate_figures(runner: ExperimentRunner, names: Sequence[str]
                        ) -> Tuple[Dict[str, Dict[str, object]], DedupStats]:
    """Run the named figure harnesses over one shared wave.

    The named figures' plans (keys of :data:`FIGURE_PLANS`) are merged,
    deduped and executed as a single wave; the harnesses then run against
    the warmed runner in the order given, each finding its own plan already
    committed (zero simulations).  Returns ``(results by figure name, dedup
    stats)``.
    """
    stats = SweepOrchestrator(runner).execute(
        [FIGURE_PLANS[name]() for name in names])
    return {name: FIGURE_HARNESSES[name](runner) for name in names}, stats
