#!/usr/bin/env python3
"""SMT2 study: Constable's benefit grows when two threads share load resources.

The paper's §9.1.2 shows Constable gaining more under 2-way SMT (8.8%) than
without it (5.1%), because eliminated loads free the load execution units and
reservation-station entries that SMT threads fight over.  This example runs a
Client+Server thread pair in both modes and prints the comparison.
"""

from repro.core.config import ConstableConfig
from repro.experiments.reporting import format_table
from repro.pipeline.config import CoreConfig
from repro.pipeline.cpu import simulate_smt_pair, simulate_trace
from repro.workloads.generator import THREAD_BASE_PCS, generate_trace
from repro.workloads.suites import workload_specs_for_suite


def main() -> None:
    instructions = 8000
    constable = ConstableConfig(confidence_threshold=8)
    trace_a = generate_trace(workload_specs_for_suite("Client")[0],
                             num_instructions=instructions)
    trace_b = generate_trace(workload_specs_for_suite("Server")[0],
                             num_instructions=instructions,
                             base_pc=THREAD_BASE_PCS[1])

    rows = []
    # Single-thread (noSMT) comparison on thread A.
    base_single = simulate_trace(trace_a, CoreConfig())
    cons_single = simulate_trace(trace_a, CoreConfig(constable=constable))
    rows.append(("noSMT", f"{cons_single.speedup_over(base_single):.3f}x",
                 f"{base_single.ipc:.2f}", f"{cons_single.ipc:.2f}"))

    # SMT2 comparison on the pair.
    base_pair = simulate_smt_pair(trace_a, trace_b, CoreConfig())
    cons_pair = simulate_smt_pair(trace_a, trace_b, CoreConfig(constable=constable))
    rows.append(("SMT2", f"{cons_pair.speedup_over(base_pair):.3f}x",
                 f"{base_pair.ipc:.2f}", f"{cons_pair.ipc:.2f}"))

    print(format_table(["mode", "constable speedup", "baseline IPC", "constable IPC"],
                       rows, title="Constable under SMT contention"))
    print("\nper-thread IPC (SMT2 baseline):",
          [f"{thread['ipc']:.2f}" for thread in base_pair.per_thread])
    print("per-thread IPC (SMT2 constable):",
          [f"{thread['ipc']:.2f}" for thread in cons_pair.per_thread])


if __name__ == "__main__":
    main()
