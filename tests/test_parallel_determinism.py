"""Differential tests: parallel sharded execution is bit-identical to serial.

The parallel runner regenerates traces in workers from the workload spec's
seed and merges shard results keyed by ``(config, workload)``, so
neither the worker count nor shard completion order may change any statistic
— or any trace bit.  These tests run the same sweeps serially and with 1-,
2- and 4-worker pools and require equality of:

* every Load Inspector report, covering the sharded cold-start path, and
  every trace the worker path regenerates (full dynamic content, via
  ``trace_signature``);
* the *entire* :class:`SimulationResult` of every (workload, config) and
  (SMT2 pair, config) job (every pipeline counter included);

and then check that aggregation is merge-order independent.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.stats_utils import geomean
from repro.experiments.configs import (
    baseline_config,
    constable_config,
    eves_config,
    eves_constable_config,
)
from repro.experiments.parallel import ParallelExperimentRunner, _regenerate_trace
from repro.experiments.runner import ExperimentRunner
from repro.workloads.generator import THREAD_BASE_PCS, trace_signature

#: Reduced sweep shared by the differential tests: three workloads and the
#: SMT2 pair of the first two.
SUITES = ("Client", "ISPEC17", "Server")
INSTRUCTIONS = 1500
CONFIGS = {
    "baseline": baseline_config,
    "constable": constable_config,
}


def _run_sweep(runner: ExperimentRunner) -> ExperimentRunner:
    for name, factory in CONFIGS.items():
        runner.run_config(name, factory())
        runner.run_smt_config(name, factory())
    return runner


@pytest.fixture(scope="module")
def serial_runner():
    return _run_sweep(ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                       suites=SUITES))


@pytest.fixture(scope="module", params=[1, 2, 4],
                ids=["workers1", "workers2", "workers4"])
def parallel_runner(request):
    runner = ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                      suites=SUITES, max_workers=request.param)
    yield _run_sweep(runner)
    runner.close()


# ----------------------------------------------------------- trace generation

def test_parallel_trace_generation_identical_to_serial(serial_runner, parallel_runner):
    """Sharded cold-start generation yields bit-identical reports, and the
    worker path regenerates the serial runner's trace at every thread's base
    PC."""
    serial_workloads = serial_runner.workloads()
    parallel_workloads = parallel_runner.workloads()
    assert list(serial_workloads) == list(parallel_workloads), \
        "workload order must follow spec order, not shard completion order"
    for workload, serial_run in serial_workloads.items():
        parallel_run = parallel_workloads[workload]
        assert serial_run.spec == parallel_run.spec
        assert serial_run.report.to_dict() == parallel_run.report.to_dict(), workload
        for base_pc in THREAD_BASE_PCS:
            regenerated = _regenerate_trace(serial_run.spec.to_dict(),
                                            INSTRUCTIONS, 16, base_pc)
            assert trace_signature(regenerated) == trace_signature(
                serial_runner.trace(serial_run.spec, base_pc)), (workload, base_pc)


# -------------------------------------------------------------- single thread


def test_parallel_results_identical_to_serial(serial_runner, parallel_runner):
    """Every workload/config and pair/config job produces an identical
    SimulationResult."""
    serial_workloads = serial_runner.workloads()
    parallel_workloads = parallel_runner.workloads()
    assert set(serial_workloads) == set(parallel_workloads)
    for workload, serial_run in serial_workloads.items():
        parallel_run = parallel_workloads[workload]
        for config in CONFIGS:
            serial_result = serial_run.results[config]
            parallel_result = parallel_run.results[config]
            # Dataclass equality covers cycles, every PipelineStats counter,
            # power events, memory stats, per-thread records, ...
            assert serial_result == parallel_result, (workload, config)
    for config in CONFIGS:
        serial_pairs = serial_runner.smt_results(config)
        parallel_pairs = parallel_runner.smt_results(config)
        assert list(serial_pairs) == [("client_00", "ispec_00")]
        assert list(parallel_pairs) == list(serial_pairs), \
            "pair order must follow smt_pairs order, not shard completion order"
        for pair, serial_result in serial_pairs.items():
            assert len(serial_result.per_thread) == 2
            assert parallel_pairs[pair] == serial_result, (pair, config)


def _pair_speedups(runner: ExperimentRunner, config: str):
    """Each SMT2 pair's speedup over the baseline, overall and per thread."""
    base = runner.smt_results("baseline")
    return {pair: (base[pair].cycles / result.cycles,
                   [mine["ipc"] / theirs["ipc"] for mine, theirs
                    in zip(result.per_thread, base[pair].per_thread)])
            for pair, result in runner.smt_results(config).items()}


def test_parallel_aggregates_identical_to_serial(serial_runner, parallel_runner):
    for config in CONFIGS:
        if config == "baseline":
            continue
        assert (parallel_runner.speedups(config)
                == serial_runner.speedups(config))
        assert (parallel_runner.speedups_by_suite(config)
                == serial_runner.speedups_by_suite(config))
        assert (parallel_runner.geomean_speedup(config)
                == serial_runner.geomean_speedup(config))
        assert (_pair_speedups(parallel_runner, config)
                == _pair_speedups(serial_runner, config))


# ---------------------------------------------------------------- aggregation

def test_shard_merge_order_does_not_change_geomean(serial_runner):
    """Geomean aggregation is invariant under any shard/merge ordering."""
    speedups = serial_runner.speedups("constable")
    forward = geomean(list(speedups.values()))
    reversed_order = geomean([speedups[name] for name in sorted(speedups, reverse=True)])
    assert forward == pytest.approx(reversed_order, rel=0, abs=1e-12)
    assert serial_runner.geomean_speedup("constable") == pytest.approx(forward)


def test_executor_merges_by_workload_not_completion_order(serial_runner):
    """_execute_wave output is keyed by (config, workload), so merging is a
    plain dict update."""
    jobs = (serial_runner.plan_jobs("eves", eves_config())
            + serial_runner.plan_smt_jobs("eves", eves_config()))
    assert len(jobs) == 4, "eves has not run yet: three workloads and a pair"
    results = serial_runner._execute_wave(list(reversed(jobs)))
    assert set(results) == {("eves", job.workload) for job in jobs}


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="wall-clock speedup comparison needs >= 4 CPUs; on "
                           "smaller machines pool startup and per-worker trace "
                           "regeneration can eat the margin and flake")
def test_parallel_sweep_is_faster_than_serial():
    """4 workers complete the reduced benchmark sweep measurably faster."""
    factories = {
        "baseline": baseline_config,
        "constable": constable_config,
        "eves": eves_config,
        "eves+constable": eves_constable_config,
    }

    def timed_sweep(runner: ExperimentRunner) -> float:
        runner.workloads()           # trace generation is common to both flavours
        start = time.perf_counter()
        for name, factory in factories.items():
            runner.run_config(name, factory())
        return time.perf_counter() - start

    serial_seconds = timed_sweep(ExperimentRunner(per_suite=1, instructions=4000))
    with ParallelExperimentRunner(per_suite=1, instructions=4000,
                                  max_workers=4) as parallel:
        parallel_seconds = timed_sweep(parallel)
    assert parallel_seconds < serial_seconds * 0.9, (
        f"parallel sweep took {parallel_seconds:.2f}s vs serial {serial_seconds:.2f}s")
