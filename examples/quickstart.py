#!/usr/bin/env python3
"""Quickstart: simulate one workload with and without Constable.

Generates a Client-suite synthetic workload, runs the baseline Golden-Cove-like
core and the same core with Constable attached, and prints speedup, elimination
coverage and the reduction in reservation-station allocations and L1-D accesses
-- the paper's headline metrics (Figs. 11, 18).

A second stage runs the same comparison as a small multi-workload sweep through
the experiment-runner layer.  ``--workers N`` shards the sweep over N worker
processes (``ParallelExperimentRunner``); ``--cache DIR`` attaches the on-disk
result cache so a rerun of this script performs zero simulations:

    PYTHONPATH=src python examples/quickstart.py --workers 4 --cache .repro-cache
"""

from __future__ import annotations

import argparse

from repro.analysis.load_inspector import inspect_trace
from repro.core.config import ConstableConfig
from repro.experiments.configs import baseline_config, constable_config
from repro.experiments.figures import default_runner
from repro.experiments.runner import ExperimentRunner
from repro.pipeline.config import CoreConfig
from repro.pipeline.cpu import simulate_trace
from repro.workloads.generator import generate_trace
from repro.workloads.suites import get_workload_spec


def make_runner(args: argparse.Namespace) -> ExperimentRunner:
    """Build a serial or parallel runner (with optional on-disk cache) from flags."""
    return default_runner(per_suite=args.per_suite, instructions=args.instructions,
                          workers=args.workers, cache_dir=args.cache)


def single_workload_demo() -> None:
    spec = get_workload_spec("client_00")
    trace = generate_trace(spec, num_instructions=20_000)
    report = inspect_trace(trace)
    print(f"workload: {spec.name} ({spec.suite}), {len(trace)} instructions, "
          f"{len(trace.loads())} loads")
    print(f"global-stable dynamic loads: {report.global_stable_dynamic_fraction():.1%}")

    baseline = simulate_trace(trace, CoreConfig(), name="baseline")
    constable = simulate_trace(
        trace, CoreConfig(constable=ConstableConfig(confidence_threshold=8)),
        name="constable")

    print(f"\nbaseline : {baseline.cycles} cycles, IPC {baseline.ipc:.2f}")
    print(f"constable: {constable.cycles} cycles, IPC {constable.ipc:.2f}")
    print(f"speedup  : {constable.speedup_over(baseline):.3f}x")
    print(f"loads eliminated: {constable.constable_stats['loads_eliminated']:.0f} "
          f"({constable.constable_stats['elimination_coverage']:.1%} of loads)")

    rs_base = baseline.resource_stats["rs_allocations"]
    rs_cons = constable.resource_stats["rs_allocations"]
    l1_base = baseline.power_events["l1d_accesses"]
    l1_cons = constable.power_events["l1d_accesses"]
    print(f"RS allocations : {rs_base} -> {rs_cons} ({1 - rs_cons / rs_base:.1%} fewer)")
    print(f"L1-D accesses  : {l1_base} -> {l1_cons} ({1 - l1_cons / l1_base:.1%} fewer)")


def sweep_demo(runner: ExperimentRunner) -> None:
    flavour = type(runner).__name__
    print(f"\n--- mini sweep via {flavour} "
          f"({len(runner.specs())} workloads x 2 configs) ---")
    runner.run_config("baseline", baseline_config())
    runner.run_config("constable", constable_config())
    for suite, value in runner.speedups_by_suite("constable").items():
        print(f"  {suite:<10} constable speedup {value:.3f}x")
    if runner.cache is not None:
        stats = runner.cache.stats.as_dict()
        print(f"  result cache: {stats['hits']} hits, {stats['misses']} misses, "
              f"{stats['stores']} stores ({runner.cache.directory})")
    if runner.report_cache is not None:
        stats = runner.report_cache.stats.as_dict()
        print(f"  report cache: {stats['hits']} hits, {stats['misses']} misses, "
              f"{stats['stores']} stores")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the sweep (>1 uses the parallel runner)")
    parser.add_argument("--cache", default=None,
                        help="directory of the shared on-disk result cache")
    parser.add_argument("--per-suite", type=int, default=1,
                        help="workloads per suite in the sweep stage")
    parser.add_argument("--instructions", type=int, default=5000,
                        help="trace length for the sweep stage")
    parser.add_argument("--skip-single", action="store_true",
                        help="skip the single-workload demo and only run the sweep")
    args = parser.parse_args()

    if not args.skip_single:
        single_workload_demo()
    with make_runner(args) as runner:
        sweep_demo(runner)


if __name__ == "__main__":
    main()
