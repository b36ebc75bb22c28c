"""Integration tests for Constable inside the pipeline, including the golden check."""

import pytest

from repro.core.config import ConstableConfig
from repro.core.ideal import IdealMode, build_oracle_from_trace
from repro.analysis.load_inspector import inspect_trace
from repro.experiments.configs import constable_config
from repro.isa.instruction import AddressingMode
from repro.pipeline.config import CoreConfig
from repro.pipeline.cpu import GoldenCheckError, simulate_smt_pair, simulate_trace
from repro.workloads.generator import THREAD_BASE_PCS, generate_trace
from repro.workloads.suites import get_workload_spec


def test_constable_retires_all_instructions_and_passes_golden_check(client_trace, constable_result):
    # simulate_trace would have raised GoldenCheckError on any mismatch.
    assert constable_result.instructions == len(client_trace)
    assert constable_result.stats.golden_checks == len(client_trace.loads())


def test_constable_eliminates_loads(constable_result):
    assert constable_result.constable_stats is not None
    assert constable_result.constable_stats["loads_eliminated"] > 0
    assert constable_result.stats.eliminated_loads_retired > 0
    assert 0.0 < constable_result.constable_stats["elimination_coverage"] < 1.0


def test_constable_reduces_l1d_accesses_and_rs_allocations(baseline_result, constable_result):
    assert (constable_result.power_events["l1d_accesses"]
            < baseline_result.power_events["l1d_accesses"])
    assert (constable_result.resource_stats["rs_allocations"]
            <= baseline_result.resource_stats["rs_allocations"])


def test_constable_never_catastrophically_slows_down(baseline_result, constable_result):
    assert constable_result.cycles <= baseline_result.cycles * 1.05


def test_constable_on_all_suites_passes_golden_check(server_trace, ispec_trace,
                                                     constable_test_config):
    for trace in (server_trace, ispec_trace):
        result = simulate_trace(trace, CoreConfig(constable=constable_test_config))
        assert result.instructions == len(trace)


def test_constable_with_snoop_traffic(server_trace, constable_test_config):
    result = simulate_trace(server_trace, CoreConfig(constable=constable_test_config))
    # The Server suite generates external writes; elimination must stay correct.
    assert result.instructions == len(server_trace)
    assert result.constable_stats["loads_eliminated"] > 0


@pytest.mark.xfail(strict=True, raises=GoldenCheckError, reason=(
    "snoop safety bug (ROADMAP item 1): constable on enterprise_01 runs "
    "clean at 8,000 instructions, but at 10,000 an eliminated load at pc "
    "0x400094, seq 8372, retires a stale value under snoop traffic"))
def test_constable_stays_correct_under_snoops_at_10000_instructions():
    trace = generate_trace(get_workload_spec("enterprise_01"), num_instructions=10_000)
    result = simulate_trace(trace, constable_config(), name="constable")
    assert result.instructions == len(trace)


@pytest.mark.xfail(strict=True, reason=(
    "SMT2 power double count (ROADMAP item 1): OutOfOrderCore._power_events "
    "adds the core-wide loads_renamed and loads_executed once per thread's "
    "Constable engine, so constable on client_00+server_00 at 2,000 "
    "instructions reads sld_reads 2660 for 1330 renamed loads and sld_writes "
    "2224 = 2 x 1057 + 110, while one thread reads 635 for 635; the fix "
    "changes cached SMT results and waits for item 1's SCHEMA_VERSION bump"))
def test_smt2_constable_counts_each_sld_access_once():
    traces = [generate_trace(get_workload_spec(name), num_instructions=2000,
                             base_pc=base_pc)
              for name, base_pc in zip(("client_00", "server_00"),
                                       THREAD_BASE_PCS)]
    result = simulate_smt_pair(*traces, constable_config(), name="constable")
    events, stats = result.power_events, result.stats
    assert events["sld_reads"] == stats.loads_renamed
    assert events["sld_writes"] == (stats.loads_executed
                                    + result.constable_stats["sld_update_events"])


def test_constable_paper_default_threshold_is_usable(client_trace):
    result = simulate_trace(client_trace, CoreConfig(constable=ConstableConfig()))
    assert result.instructions == len(client_trace)
    # Threshold 30 on a short trace eliminates few loads, but must stay correct.
    assert result.constable_stats["loads_eliminated"] >= 0


def test_addressing_mode_restriction_reduces_coverage(client_trace, constable_test_config,
                                                      constable_result):
    pc_only = ConstableConfig(
        confidence_threshold=constable_test_config.confidence_threshold,
        eliminate_addressing_modes=frozenset({AddressingMode.PC_RELATIVE}))
    restricted = simulate_trace(client_trace, CoreConfig(constable=pc_only))
    assert (restricted.constable_stats["loads_eliminated"]
            <= constable_result.constable_stats["loads_eliminated"])


def test_amt_invalidate_variant_covers_no_more_than_vanilla(client_trace, constable_test_config,
                                                            constable_result):
    amt_i = ConstableConfig(
        confidence_threshold=constable_test_config.confidence_threshold,
        amt_invalidate_on_l1_eviction=True, pin_cv_bits=False)
    result = simulate_trace(client_trace, CoreConfig(constable=amt_i))
    assert result.instructions == len(client_trace)
    assert (result.constable_stats["loads_eliminated"]
            <= constable_result.constable_stats["loads_eliminated"] * 1.05 + 5)


def test_xprf_failure_rate_is_bounded(constable_result):
    # The synthetic traces keep far more eliminated loads in flight than the
    # paper's workloads (which see only ~0.2% xPRF-full events), so the bound
    # here is loose; it still catches an xPRF that never frees its entries.
    assert constable_result.constable_stats["xprf_failure_rate"] < 0.7


def test_ordering_violations_are_rare(constable_result):
    eliminated = max(1, constable_result.constable_stats["loads_eliminated"])
    violations = constable_result.constable_stats["ordering_violations"]
    assert violations / eliminated < 0.05


def test_sld_update_rate_is_small(constable_result):
    assert constable_result.stats.average_sld_updates_per_cycle() < 2.0


def test_ideal_constable_outperforms_or_matches_real(client_trace, baseline_result,
                                                     constable_result):
    oracle = build_oracle_from_trace(client_trace, mode=IdealMode.CONSTABLE)
    ideal = simulate_trace(client_trace, CoreConfig(ideal_oracle=oracle))
    assert ideal.instructions == len(client_trace)
    assert ideal.cycles <= constable_result.cycles * 1.02


def test_ideal_stable_lvp_runs_and_is_no_slower_than_baseline(client_trace, baseline_result):
    oracle = build_oracle_from_trace(client_trace, mode=IdealMode.STABLE_LVP)
    result = simulate_trace(client_trace, CoreConfig(ideal_oracle=oracle))
    assert result.cycles <= baseline_result.cycles * 1.02


def test_stats_oracle_classification(client_trace, constable_test_config):
    report = inspect_trace(client_trace)
    config = CoreConfig(constable=constable_test_config,
                        stats_oracle_pcs=report.global_stable_pcs())
    result = simulate_trace(client_trace, config)
    stats = result.stats
    assert stats.oracle_stable_loads_renamed > 0
    assert stats.eliminated_oracle_stable_loads <= stats.oracle_stable_loads_renamed
    assert (stats.eliminated_oracle_stable_loads + stats.eliminated_non_stable_loads
            == stats.eliminated_loads_retired)
