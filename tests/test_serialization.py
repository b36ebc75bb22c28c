"""Round-trip serialization tests for the records the result cache persists.

Every type that crosses a process or disk boundary must survive
``to_dict`` -> ``json`` -> ``from_dict`` without losing information:
:class:`PipelineStats`, :class:`SimulationResult`, :class:`GlobalStableReport`
(with its per-site statistics) and :class:`WorkloadSpec`.
"""

from __future__ import annotations

import json

from repro.analysis.load_inspector import GlobalStableReport, inspect_trace
from repro.pipeline.stats import PipelineStats, SimulationResult
from repro.workloads.suites import WorkloadSpec, all_workload_specs


def _json_round_trip(data):
    return json.loads(json.dumps(data))


# ------------------------------------------------------------------ PipelineStats

def test_pipeline_stats_round_trip_preserves_histogram():
    stats = PipelineStats(cycles=123, instructions_retired=456, loads_renamed=7)
    stats.record_sld_updates(0)
    stats.record_sld_updates(3)
    stats.record_sld_updates(3)
    rebuilt = PipelineStats.from_dict(_json_round_trip(stats.to_dict()))
    assert rebuilt == stats
    assert rebuilt.sld_update_cycles_histogram == {0: 1, 3: 2}
    assert rebuilt.average_sld_updates_per_cycle() == stats.average_sld_updates_per_cycle()


def test_pipeline_stats_from_dict_ignores_unknown_keys():
    stats = PipelineStats(cycles=5)
    data = stats.to_dict()
    data["counter_from_the_future"] = 99
    assert PipelineStats.from_dict(data) == stats


# --------------------------------------------------------------- SimulationResult

def test_simulation_result_round_trip_from_real_simulation(baseline_result):
    rebuilt = SimulationResult.from_dict(_json_round_trip(baseline_result.to_dict()))
    assert rebuilt == baseline_result
    assert rebuilt.ipc == baseline_result.ipc
    assert rebuilt.summary() == baseline_result.summary()


def test_simulation_result_round_trip_with_constable_stats(constable_result):
    rebuilt = SimulationResult.from_dict(_json_round_trip(constable_result.to_dict()))
    assert rebuilt == constable_result
    assert rebuilt.constable_stats == constable_result.constable_stats


def test_simulation_result_round_trip_preserves_none_sections():
    result = SimulationResult(trace_name="t", config_name="c", cycles=10,
                              instructions=20, stats=PipelineStats(cycles=10))
    rebuilt = SimulationResult.from_dict(_json_round_trip(result.to_dict()))
    assert rebuilt == result
    assert rebuilt.constable_stats is None and rebuilt.lvp_stats is None


def test_simulation_result_to_dict_is_a_deep_copy(baseline_result):
    data = baseline_result.to_dict()
    data["stats"]["cycles"] = -1
    data["memory_stats"]["service_levels"]["L1D"] = -1
    assert baseline_result.stats.cycles != -1
    assert baseline_result.memory_stats["service_levels"]["L1D"] != -1


def test_simulation_result_from_dict_shares_nothing_with_its_input(baseline_result):
    data = _json_round_trip(baseline_result.to_dict())
    before = json.dumps(data, sort_keys=True)
    memory_stats = SimulationResult.from_dict(data).memory_stats
    for name, value in memory_stats.items():
        if isinstance(value, dict):
            for key in value:
                value[key] = -1
        else:
            memory_stats[name] = -1
    assert json.dumps(data, sort_keys=True) == before


# ------------------------------------------------------------- GlobalStableReport

def test_global_stable_report_round_trip(client_trace):
    report = inspect_trace(client_trace)
    rebuilt = GlobalStableReport.from_dict(_json_round_trip(report.to_dict()))
    assert rebuilt.to_dict() == report.to_dict()
    assert rebuilt.summary() == report.summary()
    assert rebuilt.global_stable_pcs() == report.global_stable_pcs()
    assert rebuilt.distance_distribution_by_mode() == report.distance_distribution_by_mode()
    for pc, site in report.sites.items():
        twin = rebuilt.sites[pc]
        assert twin.is_global_stable == site.is_global_stable
        assert twin.distinct_addresses == site.distinct_addresses
        assert twin.addressing_mode is site.addressing_mode


# ----------------------------------------------------------------- WorkloadSpec

def test_workload_spec_round_trip_for_all_90_specs():
    for spec in all_workload_specs():
        rebuilt = WorkloadSpec.from_dict(_json_round_trip(spec.to_dict()))
        assert rebuilt == spec, spec.name


def test_workload_spec_round_trip_preserves_kernel_tuples(tiny_spec):
    rebuilt = WorkloadSpec.from_dict(_json_round_trip(tiny_spec.to_dict()))
    assert rebuilt == tiny_spec
    assert all(isinstance(recipe, tuple) for recipe in rebuilt.kernels)
