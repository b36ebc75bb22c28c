"""Integration tests for the out-of-order core: baseline behaviour and invariants."""

import copy
import gc
import weakref

import pytest

from repro.analysis.load_inspector import inspect_trace
from repro.experiments.cache import config_fingerprint
from repro.experiments.configs import baseline_config, constable_config
from repro.experiments.figures import FIGURE_PLANS
from repro.pipeline.config import (
    BackendSizes,
    CacheConfig,
    CoreConfig,
    DramConfig,
    PortConfig,
    RenameOptimizationConfig,
    TlbConfig,
)
from repro.pipeline.cpu import CORE_ENGINES, OutOfOrderCore, simulate_trace
from repro.workloads.generator import generate_trace
from repro.workloads.suites import get_workload_spec


def test_baseline_retires_every_instruction(client_trace, baseline_result):
    assert baseline_result.instructions == len(client_trace)
    assert baseline_result.cycles > 0
    assert 0.1 < baseline_result.ipc <= 6.0


def test_baseline_is_deterministic(client_trace):
    first = simulate_trace(client_trace, CoreConfig())
    second = simulate_trace(client_trace, CoreConfig())
    assert first.cycles == second.cycles
    assert first.power_events == second.power_events


def test_golden_checks_cover_all_loads(client_trace, baseline_result):
    assert baseline_result.stats.golden_checks == len(client_trace.loads())


def test_resource_counters_are_consistent(baseline_result):
    stats = baseline_result.stats
    resources = baseline_result.resource_stats
    assert resources["rob_allocations"] >= baseline_result.instructions
    assert resources["rs_allocations"] <= resources["rob_allocations"]
    assert stats.rs_issues <= resources["rs_allocations"]
    assert stats.loads_executed <= stats.loads_renamed


@pytest.mark.parametrize("field, value", [
    ("alu_latency", 0), ("alu_latency", -3), ("mul_latency", 0),
    ("div_latency", 0), ("agu_latency", 0), ("store_forward_latency", -1)])
def test_config_rejects_execution_latencies_below_the_floor(field, value):
    """Execution latencies below one cycle (a store-forward latency below
    zero) used to run silently as one cycle: ``client_00`` at 2,000
    instructions took 1,497 cycles at ``alu_latency`` 0, -3 and 1 alike.
    The core queues each completion in a later cycle's bucket, which needs
    every latency to be at least one cycle."""
    with pytest.raises(ValueError, match=field):
        baseline_config().copy(**{field: value})


def test_memory_configs_reject_negative_latencies():
    with pytest.raises(ValueError, match="latency"):
        CacheConfig(name="L1D", size_bytes=48 * 1024, ways=12, latency=-1)
    with pytest.raises(ValueError, match="miss penalty"):
        TlbConfig(miss_penalty=-1)
    for field in ("row_hit_latency", "row_miss_latency", "bus_latency"):
        with pytest.raises(ValueError, match=field):
            DramConfig(**{field: -1})
    # Zero-cycle memory latencies stay legal: the AGU's cycle keeps every
    # load's latency at least one.
    CacheConfig(name="L1D", size_bytes=48 * 1024, ways=12, latency=0)
    baseline_config().copy(store_forward_latency=0)


@pytest.mark.parametrize("engine", ["event", "cycle"])
def test_full_reservation_station_stalls_are_counted(engine):
    """Rename checks the RS inline; every cycle a micro-op finds it full is
    one ``rs_allocation_stalls``, identically under both engines."""
    trace = generate_trace(get_workload_spec("client_00"), num_instructions=1200)
    stalls = {}
    for name, factory in (("baseline", baseline_config),
                          ("constable", constable_config)):
        config = factory().copy(sizes=BackendSizes(rs=8))
        resources = simulate_trace(trace, config, name=name,
                                   engine=engine).resource_stats
        assert resources["rs_peak_occupancy"] == 8
        stalls[name] = resources["rs_allocation_stalls"]
    assert stalls == {"baseline": 1100, "constable": 963}


def test_ipc_bounded_by_rename_width(baseline_result):
    assert baseline_result.ipc <= CoreConfig().rename_width + 1e-9


def test_power_events_present(baseline_result):
    events = baseline_result.power_events
    for key in ("uops_fetched", "uops_renamed", "rs_allocations", "l1d_accesses",
                "dtlb_accesses", "retired", "cycles"):
        assert key in events
        assert events[key] >= 0
    assert events["l1d_accesses"] > 0


def test_memory_stats_reported(baseline_result):
    assert baseline_result.memory_stats["l1d"]["accesses"] > 0
    assert baseline_result.memory_stats["dtlb_accesses"] > 0


def test_branch_predictor_is_exercised(ispec_trace):
    result = simulate_trace(ispec_trace, CoreConfig())
    assert result.stats.branches_predicted > 0
    assert result.stats.branch_mispredictions >= 1
    assert result.stats.branch_mispredictions < result.stats.branches_predicted


def test_wider_load_width_never_slows_down(client_trace, baseline_result):
    wide = simulate_trace(client_trace, CoreConfig().with_load_width(6))
    assert wide.cycles <= baseline_result.cycles * 1.02


def test_scaling_down_resources_hurts_or_equals(client_trace, baseline_result):
    shallow = simulate_trace(client_trace, CoreConfig().with_depth_scale(0.125))
    assert shallow.cycles >= baseline_result.cycles


def test_narrow_machine_is_slower(client_trace, baseline_result):
    narrow = CoreConfig(fetch_width=2, decode_width=2, rename_width=2, retire_width=2,
                        ports=PortConfig(issue_width=2, alu=2, load=1,
                                         store_address=1, store_data=1))
    result = simulate_trace(client_trace, narrow)
    assert result.cycles > baseline_result.cycles


def test_disabling_rename_optimizations_increases_rs_pressure(client_trace, baseline_result):
    config = CoreConfig(rename_optimizations=RenameOptimizationConfig(
        move_elimination=False, zero_elimination=False,
        constant_folding=False, branch_folding=False))
    result = simulate_trace(client_trace, config)
    assert (result.resource_stats["rs_allocations"]
            > baseline_result.resource_stats["rs_allocations"])


def test_memory_renaming_can_be_disabled(client_trace):
    result = simulate_trace(client_trace, CoreConfig(enable_memory_renaming=False))
    assert result.instructions == len(client_trace)


def test_load_utilized_cycles_fraction_sane(baseline_result):
    fraction = baseline_result.stats.load_utilized_cycles / baseline_result.cycles
    assert 0.0 < fraction < 1.0


def test_core_rejects_empty_and_oversubscribed_traces(client_trace):
    with pytest.raises(ValueError):
        OutOfOrderCore(CoreConfig(), [])
    with pytest.raises(ValueError):
        OutOfOrderCore(CoreConfig(), [client_trace] * 3)


def test_config_validation():
    with pytest.raises(ValueError):
        CoreConfig(rename_width=0)
    with pytest.raises(ValueError):
        CoreConfig(lvp="unknown")
    with pytest.raises(ValueError):
        CoreConfig(lvp="llvp")
    with pytest.raises(ValueError):
        CoreConfig().with_load_width(0)


def test_config_copy_is_independent():
    config = CoreConfig()
    wider = config.with_load_width(5)
    assert config.ports.load == 3
    assert wider.ports.load == 5
    deeper = config.with_depth_scale(2.0)
    assert deeper.sizes.rob == config.sizes.rob * 2


def test_finished_core_is_freed_without_the_cycle_collector(client_trace):
    # The hierarchy's L1 listeners must not hold the core: a core -> hierarchy
    # -> core cycle keeps every finished core alive until a generation-2
    # collection, and a sweep builds one core per job.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        core = OutOfOrderCore(constable_config(), [client_trace], name="constable")
        core.run()
        core_ref = weakref.ref(core)
        del core
        assert core_ref() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture(scope="module")
def planned_configs():
    """A short Client trace and every distinct config the figure plans
    declare, materialised over its report as the runner does."""
    trace = generate_trace(get_workload_spec("client_00"), num_instructions=600)
    report = inspect_trace(trace)
    configs = {}
    for plan_factory in FIGURE_PLANS.values():
        plan = plan_factory()
        for config in (*plan.configs.values(), *plan.smt_configs.values()):
            if not isinstance(config, CoreConfig):
                config = config(report)
            config = config.copy(stats_oracle_pcs=report.global_stable_pcs())
            configs.setdefault(repr(config_fingerprint(config)), config)
    return trace, list(configs.values())


@pytest.mark.parametrize("engine", CORE_ENGINES)
def test_a_run_leaves_its_config_as_it_found_it(planned_configs, engine):
    """A config is a plain value: simulating it changes neither its fields
    nor its cache fingerprint, so two runs may share one config."""
    trace, configs = planned_configs
    assert any(config.ideal_oracle is not None and config.ideal_oracle.stable_pcs
               for config in configs)
    for config in configs:
        before = copy.deepcopy(config)
        fingerprint = config_fingerprint(config)
        OutOfOrderCore(config, [trace], engine=engine).run()
        assert config == before
        assert config_fingerprint(config) == fingerprint
