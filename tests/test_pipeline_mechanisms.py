"""Integration tests for EVES, ELAR, RFP, combinations and SMT2."""

from repro.pipeline.config import CoreConfig
from repro.pipeline.cpu import simulate_smt_pair, simulate_trace
from repro.workloads.generator import generate_trace
from repro.workloads.suites import workload_specs_for_suite


def test_eves_runs_and_predicts(client_trace):
    result = simulate_trace(client_trace, CoreConfig(lvp="eves"))
    assert result.instructions == len(client_trace)
    assert result.lvp_stats is not None
    assert result.lvp_stats["predictions"] > 0
    assert result.lvp_stats["accuracy"] > 0.9


def test_eves_never_catastrophically_slows_down(client_trace, baseline_result):
    result = simulate_trace(client_trace, CoreConfig(lvp="eves"))
    assert result.cycles <= baseline_result.cycles * 1.05


def test_llvp_runs(client_trace):
    result = simulate_trace(client_trace, CoreConfig(lvp="llvp"))
    assert result.instructions == len(client_trace)


def test_elar_and_rfp_run(client_trace, baseline_result):
    elar = simulate_trace(client_trace, CoreConfig(enable_elar=True))
    rfp = simulate_trace(client_trace, CoreConfig(enable_rfp=True))
    assert elar.instructions == len(client_trace)
    assert rfp.instructions == len(client_trace)
    assert elar.cycles <= baseline_result.cycles * 1.05
    assert rfp.cycles <= baseline_result.cycles * 1.10


def test_eves_plus_constable_combination(client_trace, constable_test_config, baseline_result):
    result = simulate_trace(client_trace, CoreConfig(lvp="eves",
                                                     constable=constable_test_config))
    assert result.instructions == len(client_trace)
    assert result.constable_stats["loads_eliminated"] > 0
    assert result.stats.value_predicted_loads > 0
    assert result.cycles <= baseline_result.cycles * 1.05


def test_smt_pair_runs_both_threads(constable_test_config):
    spec_a = workload_specs_for_suite("Client")[0]
    spec_b = workload_specs_for_suite("Server")[0]
    trace_a = generate_trace(spec_a, num_instructions=2000)
    trace_b = generate_trace(spec_b, num_instructions=2000, base_pc=0x800000)
    baseline = simulate_smt_pair(trace_a, trace_b, CoreConfig())
    assert baseline.instructions == len(trace_a) + len(trace_b)
    assert len(baseline.per_thread) == 2
    assert all(thread["ipc"] > 0 for thread in baseline.per_thread)

    constable = simulate_smt_pair(trace_a, trace_b,
                                  CoreConfig(constable=constable_test_config))
    assert constable.instructions == baseline.instructions
    # Weighted speedup against the baseline run of the same pair is well defined.
    ws = sum(mine["ipc"] / base["ipc"] for mine, base
             in zip(constable.per_thread, baseline.per_thread)) / 2
    assert 0.8 < ws < 1.5


def test_smt_throughput_exceeds_half_of_single_thread(client_trace):
    single = simulate_trace(client_trace, CoreConfig())
    spec_b = workload_specs_for_suite("Enterprise")[0]
    trace_b = generate_trace(spec_b, num_instructions=len(client_trace), base_pc=0x800000)
    pair = simulate_smt_pair(client_trace, trace_b, CoreConfig())
    # Co-running a slow memory-bound thread drags aggregate IPC, but SMT must
    # still deliver a reasonable fraction of the single-thread throughput.
    assert pair.ipc > single.ipc * 0.4
