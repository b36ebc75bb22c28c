"""Differential tests: the event-driven core is bit-identical to the reference.

``OutOfOrderCore`` ships two engines over one stage pipeline: the per-cycle
reference stepper (``engine="cycle"``) and the default event-driven
cycle-skipping engine (``engine="event"``), which jumps over idle gaps in one
step.  These tests pin their equivalence:

* direct core-level comparisons on Client and ISPEC traces across baseline,
  Constable, EVES, EVES+Constable, a load-width and a depth variant and an
  ideal oracle, under SMT2, and on memory-bound workloads (perfbench's
  ``memory_bound`` jobs among them) where skipping is the whole point —
  every :class:`SimulationResult` must compare equal field by field, and the
  event engine must actually skip, with skipped plus stepped cycles
  partitioning the run;
* a runner-level sweep where the serial reference runs cycle-engine cores
  and the sharded runner runs the event engine at 1/2/4 workers — results
  must match the reference exactly, extending the existing
  parallel-determinism guarantees to the engine dimension.
"""

from __future__ import annotations

import functools

import pytest

from repro.analysis.load_inspector import inspect_trace
from repro.experiments.bench import BENCH_FAMILIES
from repro.experiments.configs import (
    baseline_config,
    constable_config,
    eves_config,
    eves_constable_config,
)
from repro.experiments.parallel import ParallelExperimentRunner
from repro.experiments.runner import ExperimentRunner
from repro.pipeline.config import CoreConfig, IdealMode, IdealOracle
from repro.pipeline.cpu import OutOfOrderCore, simulate_smt_pair
from repro.workloads.generator import generate_trace
from repro.workloads.suites import WorkloadSpec

#: Reduced sweep for the runner-level engine-differential tests.
SUITES = ("Client", "Server")
INSTRUCTIONS = 1500
CONFIGS = {
    "baseline": baseline_config,
    "constable": constable_config,
}


def constable_w1_config():
    return constable_config().with_load_width(1)


def constable_d2_config():
    return constable_config().with_depth_scale(2.0)


#: Single-thread configurations compared on every suite trace.  The default
#: load width is 3, so the width variant narrows it to 1.
SUITE_TRACE_CONFIGS = (
    ("baseline", baseline_config),
    ("constable", constable_config),
    ("eves", eves_config),
    ("eves+constable", eves_constable_config),
    ("constable_w1", constable_w1_config),
    ("constable_d2.0", constable_d2_config),
)

#: perfbench's memory-bound jobs, compared at this budget.
MEMBOUND_JOBS = BENCH_FAMILIES["memory_bound"][0]()
MEMBOUND_INSTRUCTIONS = 4000


@pytest.fixture(scope="session")
def membound_trace():
    """A memory-bound trace: dependent misses far past the LLC."""
    spec = WorkloadSpec(
        name="membound_test", suite="Bench", seed=5,
        kernels=[("pointer_chase", {"inner_iterations": 12, "ring_nodes": 1 << 14}),
                 ("random_access", {"inner_iterations": 6, "region_words": 1 << 19})])
    return generate_trace(spec, num_instructions=4000)


@pytest.fixture(scope="module")
def membound_job_traces():
    """Traces of perfbench's memory-bound specs, by workload name."""
    specs = {spec.name: spec for job in MEMBOUND_JOBS for spec in job.specs}
    return {name: generate_trace(spec, num_instructions=MEMBOUND_INSTRUCTIONS)
            for name, spec in specs.items()}


def _both_engines(trace_or_traces, config, name):
    """Run both engines over the same input; returns (cycle, event, event core)."""
    traces = (trace_or_traces if isinstance(trace_or_traces, list)
              else [trace_or_traces])
    reference = OutOfOrderCore(config, traces, name=name, engine="cycle").run()
    core = OutOfOrderCore(config, traces, name=name, engine="event")
    event = core.run()
    return reference, event, core


def _assert_skips_and_partitions(core, event):
    assert core.skipped_idle_cycles > 0, "no idle gap was ever skipped"
    assert (core.skipped_idle_cycles + core.stepped_cycles
            == event.cycles), "skip accounting must partition the cycle count"


# ------------------------------------------------------------- core level

@pytest.mark.parametrize("trace_fixture,config_name,factory", [
    # Client cases are named by config alone, ISPEC cases carry a suffix.
    pytest.param(trace_fixture, config_name, factory,
                 id=f"{config_name}-{factory.__name__}{suffix}")
    for trace_fixture, suffix in (("client_trace", ""),
                                  ("ispec_trace", "-ispec"))
    for config_name, factory in SUITE_TRACE_CONFIGS
])
def test_engines_identical_on_suite_trace(request, trace_fixture, config_name,
                                          factory):
    trace = request.getfixturevalue(trace_fixture)
    reference, event, core = _both_engines(trace, factory(), config_name)
    assert event == reference, config_name
    _assert_skips_and_partitions(core, event)


def test_engines_identical_on_snoopy_trace(server_trace):
    """Snoop delivery (anchored on fetch, not time) survives cycle skipping."""
    reference, event, _ = _both_engines(server_trace, constable_config(), "constable")
    assert event == reference


def test_engines_identical_on_memory_bound_trace(membound_trace):
    reference, event, core = _both_engines(membound_trace, baseline_config(),
                                           "baseline")
    assert event == reference
    _assert_skips_and_partitions(core, event)
    skipped_fraction = core.skipped_idle_cycles / max(1, event.cycles)
    assert skipped_fraction > 0.5, (
        f"memory-bound run should spend most cycles idle; only "
        f"{skipped_fraction:.1%} were skipped")


@pytest.mark.parametrize("job", MEMBOUND_JOBS,
                         ids=lambda job: f"{job.workload}-{job.config_name}")
def test_engines_identical_on_perfbench_memory_bound_job(membound_job_traces,
                                                         job):
    """No skip floor here: ``membound_scatter`` skips under half its cycles
    at this budget."""
    (spec,) = job.specs
    reference, event, core = _both_engines(membound_job_traces[spec.name],
                                           job.config, job.config_name)
    assert event == reference
    _assert_skips_and_partitions(core, event)


def test_engines_identical_with_ideal_oracle(client_trace):
    report = inspect_trace(client_trace)
    oracle = IdealOracle(stable_pcs=frozenset(report.global_stable_pcs()),
                         mode=IdealMode.CONSTABLE)
    reference = OutOfOrderCore(CoreConfig(ideal_oracle=oracle), [client_trace],
                               name="ideal", engine="cycle").run()
    event = OutOfOrderCore(CoreConfig(ideal_oracle=oracle), [client_trace],
                           name="ideal", engine="event").run()
    assert event == reference


def test_engines_identical_under_smt2(client_trace, server_trace):
    for name, factory in CONFIGS.items():
        reference, event, core = _both_engines([client_trace, server_trace],
                                               factory(), name)
        assert event == reference, name
        _assert_skips_and_partitions(core, event)


def test_engines_identical_adversarial_flush_heavy_smt2_tiny_rob(
        client_trace, server_trace):
    """The nastiest known configuration for engine equivalence, all at once:
    EVES value prediction plus Constable plus RFP, SMT2 round-robin
    arbitration across two different traces, and a small window (64/16/32/16
    ROB/RS/LB/SB) so stages hit resource stalls constantly while loads can
    still pass older stores.  The run must flush (it does 3 times and
    re-executes 18 micro-ops), so flushes squash producers whose waiters are
    parked; the small buffers force the conservative issue/rename gates open
    and shut every few cycles, and SMT interleaving shifts which thread's
    micro-ops own the RS age order — any shortcut in the event engine's wake
    predicates shows up here first."""
    import dataclasses
    from repro.experiments.configs import eves_constable_config

    config = eves_constable_config()
    config = config.copy(
        enable_rfp=True,
        sizes=dataclasses.replace(config.sizes, rob=64, rs=16,
                                  load_buffer=32, store_buffer=16),
        frontend_refill_cycles=2, flush_penalty=2)
    reference = simulate_smt_pair(client_trace, server_trace, config,
                                  name="adversarial", engine="cycle")
    event = simulate_smt_pair(client_trace, server_trace, config,
                              name="adversarial", engine="event")
    assert reference.stats.flushes > 0 and reference.stats.reexecuted_uops > 0
    assert reference.resource_stats["rs_allocation_stalls"] > 0
    assert event == reference


def test_engines_identical_under_reservation_station_pressure(membound_trace):
    """Regression: a load stalling on a full RS *after* its rename-stage
    mechanisms ran (Constable lookup, LVP, RFP) must not have the idle gap
    skipped — the reference repeats those side effects every stalled cycle."""
    import dataclasses
    for rs in (2, 3, 4, 8):
        config = constable_config()
        config = config.copy(sizes=dataclasses.replace(config.sizes, rs=rs))
        reference, event, _ = _both_engines(membound_trace, config, "constable")
        assert event == reference, f"rs={rs}"


def test_engine_selection_and_env_default(client_trace):
    with pytest.raises(ValueError):
        OutOfOrderCore(baseline_config(), [client_trace], engine="warp")
    assert OutOfOrderCore(baseline_config(), [client_trace]).engine == "event"


# ----------------------------------------------------------- runner level

def _run_sweeps(runner: ExperimentRunner):
    single = {name: runner.run_config(name, factory())
              for name, factory in CONFIGS.items()}
    smt = {name: runner.run_smt_config(name, factory(), max_pairs=1)
           for name, factory in CONFIGS.items()}
    return single, smt


@pytest.fixture(scope="module")
def reference_sweeps():
    """Serial sweeps whose cores run the per-cycle reference engine."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.pipeline.cpu.OutOfOrderCore",
                      functools.partial(OutOfOrderCore, engine="cycle"))
        runner = ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                  suites=SUITES)
        return _run_sweeps(runner)


@pytest.fixture(scope="module", params=[1, 2, 4],
                ids=["workers1", "workers2", "workers4"])
def event_sweeps(request):
    """Sharded sweeps on the default (event) engine at several worker counts."""
    runner = ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                      suites=SUITES, max_workers=request.param)
    yield _run_sweeps(runner)
    runner.close()


def test_event_engine_sweep_matches_cycle_reference(reference_sweeps, event_sweeps):
    """Every workload/config result matches the per-cycle serial reference."""
    reference_single, _ = reference_sweeps
    event_single, _ = event_sweeps
    assert set(reference_single) == set(event_single)
    for config, reference_results in reference_single.items():
        event_results = event_single[config]
        assert list(reference_results) == list(event_results)
        for workload, reference_result in reference_results.items():
            assert event_results[workload] == reference_result, (config, workload)


def test_event_engine_smt_sweep_matches_cycle_reference(reference_sweeps,
                                                        event_sweeps):
    """Every SMT2 pair result matches the per-cycle serial reference."""
    _, reference_smt = reference_sweeps
    _, event_smt = event_sweeps
    assert set(reference_smt) == set(event_smt)
    for config, reference_results in reference_smt.items():
        event_results = event_smt[config]
        assert list(reference_results) == list(event_results)
        for pair, reference_result in reference_results.items():
            assert event_results[pair] == reference_result, (config, pair)
