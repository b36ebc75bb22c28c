"""Tests for workload kernels, suites, the generator and the trace container."""

import pytest

from repro.analysis.load_inspector import inspect_trace
from repro.isa.instruction import AddressingMode
from repro.workloads.generator import build_workload_program, generate_trace
from repro.workloads.kernels import KERNEL_REGISTRY, KernelContext, create_kernel
from repro.workloads.suites import (
    SUITE_NAMES,
    SUITE_TRACE_COUNTS,
    all_workload_specs,
    get_workload_spec,
    workload_specs_for_suite,
)


def test_suite_counts_match_paper_table4():
    assert SUITE_TRACE_COUNTS == {"Client": 22, "Enterprise": 14, "FSPEC17": 29,
                                  "ISPEC17": 11, "Server": 14}
    assert len(all_workload_specs()) == 90


def test_every_suite_has_specs():
    for suite in SUITE_NAMES:
        specs = workload_specs_for_suite(suite)
        assert len(specs) == SUITE_TRACE_COUNTS[suite]
        assert all(spec.suite == suite for spec in specs)


def test_get_workload_spec_lookup():
    spec = get_workload_spec("client_00")
    assert spec.suite == "Client"
    with pytest.raises(KeyError):
        get_workload_spec("nonexistent_workload")


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        workload_specs_for_suite("Mobile")


def test_kernel_registry_contains_all_kernels():
    expected = {"runtime_constant", "inlined_args", "tight_loop_readonly",
                "global_counters", "streaming", "pointer_chase", "random_access",
                "store_heavy", "branchy", "shared_data", "stack_churn",
                "chained_deref", "matrix"}
    assert expected == set(KERNEL_REGISTRY)


def test_create_kernel_rejects_unknown_name():
    import random
    with pytest.raises(KeyError):
        create_kernel("bogus", KernelContext(), random.Random(0))


def test_kernel_context_pinned_registers_are_unique():
    ctx = KernelContext(num_registers=16)
    allocated = set()
    while True:
        register = ctx.alloc_pinned()
        if register is None:
            break
        assert register not in allocated
        allocated.add(register)
    assert len(allocated) >= 3


def test_kernel_context_memory_allocations_do_not_overlap():
    ctx = KernelContext()
    first = ctx.alloc_globals(4)
    second = ctx.alloc_globals(2)
    assert second >= first + 4 * 8
    slot_a = ctx.alloc_stack_slot()
    slot_b = ctx.alloc_stack_slot()
    assert slot_a != slot_b


def test_build_workload_program_runs_all_kernels():
    recipes = [(name, {}) for name in sorted(KERNEL_REGISTRY)]
    program, ctx = build_workload_program(recipes, seed=3)
    assert len(program) > 50
    assert ctx.shared_addresses  # shared_data kernel contributed addresses


def test_generate_trace_basic_properties(tiny_spec):
    trace = generate_trace(tiny_spec, num_instructions=1500)
    assert len(trace) == 1500
    assert 0.05 < len(trace.loads()) / len(trace) < 0.6
    assert any(d.is_store for d in trace) and any(d.is_branch for d in trace)


def test_generate_trace_is_deterministic(tiny_spec):
    first = generate_trace(tiny_spec, num_instructions=800)
    second = generate_trace(tiny_spec, num_instructions=800)
    assert [d.pc for d in first] == [d.pc for d in second]
    assert [d.load_value for d in first.loads()] == [d.load_value for d in second.loads()]


def test_generate_trace_contains_stable_loads(tiny_trace):
    report = inspect_trace(tiny_trace)
    assert report.global_stable_dynamic_fraction() > 0.2


def test_server_traces_contain_snoops(server_trace):
    assert len(server_trace.snoops) > 0
    for snoop in server_trace.snoops:
        assert snoop.after_seq <= len(server_trace)


def test_trace_slice_preserves_snoops(server_trace):
    sliced = server_trace.slice(0, len(server_trace) // 2)
    assert len(sliced) == len(server_trace) // 2
    assert all(s.after_seq <= sliced.instructions[-1].seq for s in sliced.snoops)


def test_trace_slice_rejects_empty():
    spec = workload_specs_for_suite("Client")[0]
    trace = generate_trace(spec, num_instructions=100)
    with pytest.raises(ValueError):
        trace.slice(50, 50)


def test_client_suites_have_more_stable_loads_than_spec_suites():
    client = generate_trace(workload_specs_for_suite("Client")[0], num_instructions=4000)
    fspec = generate_trace(workload_specs_for_suite("FSPEC17")[0], num_instructions=4000)
    client_fraction = inspect_trace(client).global_stable_dynamic_fraction()
    fspec_fraction = inspect_trace(fspec).global_stable_dynamic_fraction()
    assert client_fraction > fspec_fraction


def test_apx_register_budget_reduces_stack_relative_stable_loads():
    spec = workload_specs_for_suite("Client")[0]
    base = inspect_trace(generate_trace(spec, num_instructions=4000, num_registers=16))
    apx = inspect_trace(generate_trace(spec, num_instructions=4000, num_registers=32))
    base_stack = base.addressing_mode_breakdown()[AddressingMode.STACK_RELATIVE.value]
    apx_stack = apx.addressing_mode_breakdown()[AddressingMode.STACK_RELATIVE.value]
    assert apx_stack <= base_stack
    assert apx.total_dynamic_loads() <= base.total_dynamic_loads()


def test_workload_addressing_modes_are_diverse(client_trace):
    report = inspect_trace(client_trace)
    breakdown = report.addressing_mode_breakdown()
    present = [mode for mode, fraction in breakdown.items() if fraction > 0.02]
    assert len(present) >= 2
