#!/usr/bin/env python3
"""Load Inspector study: why do global-stable loads exist? (paper §4.1-4.2, Fig. 3).

Analyses one workload per suite, printing the fraction of dynamic loads that are
global-stable, their addressing-mode breakdown and inter-occurrence distances,
plus the effect of an APX-sized (32-entry) architectural register file - the
analysis performed by the paper's open-source Load Inspector tool.
"""

from repro.analysis.load_inspector import inspect_trace
from repro.experiments.reporting import format_table
from repro.workloads.generator import generate_trace
from repro.workloads.suites import SUITE_NAMES, workload_specs_for_suite


def main() -> None:
    rows = []
    for suite in SUITE_NAMES:
        spec = workload_specs_for_suite(suite)[0]
        trace = generate_trace(spec, num_instructions=12_000)
        report = inspect_trace(trace)
        modes = report.addressing_mode_breakdown()
        distances = report.distance_distribution()
        rows.append((
            f"{spec.name} ({suite})",
            f"{report.global_stable_dynamic_fraction():.1%}",
            f"{modes['pc_relative']:.0%}/{modes['stack']:.0%}/{modes['register']:.0%}",
            f"{distances['[0-50)']:.0%}",
            f"{distances['250+']:.0%}",
        ))
    print(format_table(
        ["workload", "global-stable", "PC/stack/reg", "reuse < 50", "reuse 250+"],
        rows, title="Global-stable load characterisation (Fig. 3)"))

    # APX study (paper appendix B): double the architectural registers.
    spec = workload_specs_for_suite("Client")[0]
    base = inspect_trace(generate_trace(spec, num_instructions=12_000, num_registers=16))
    apx = inspect_trace(generate_trace(spec, num_instructions=12_000, num_registers=32))
    print(f"\nAPX study on {spec.name}:")
    print(f"  dynamic loads      : {base.total_dynamic_loads()} -> {apx.total_dynamic_loads()}")
    print(f"  global-stable share: {base.global_stable_dynamic_fraction():.1%} -> "
          f"{apx.global_stable_dynamic_fraction():.1%}")


if __name__ == "__main__":
    main()
