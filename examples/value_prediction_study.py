#!/usr/bin/env python3
"""Constable versus and combined with a load value predictor (paper Figs. 11/16/19).

Runs four configurations (baseline, EVES, Constable, EVES+Constable) over a
small suite-balanced workload set and prints speedups, load coverage and the
core dynamic power estimate - the comparison at the heart of the paper:
value prediction breaks only the data dependence, Constable also removes the
load's resource usage.
"""

from repro.experiments.configs import (
    baseline_config,
    constable_config,
    eves_config,
    eves_constable_config,
)
from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentRunner
from repro.power.power_model import CorePowerModel


def main() -> None:
    runner = ExperimentRunner(per_suite=1, instructions=8000)
    configs = {
        "baseline": baseline_config(),
        "eves": eves_config(),
        "constable": constable_config(),
        "eves+constable": eves_constable_config(),
    }
    for name, config in configs.items():
        runner.run_config(name, config)

    model = CorePowerModel()
    rows = []
    baseline_energy = 0.0
    energies = {}
    for name in configs:
        total = sum(model.evaluate(run.results[name].power_events).total
                    for run in runner.workloads().values())
        energies[name] = total
        if name == "baseline":
            baseline_energy = total
    for name in configs:
        speedup = runner.geomean_speedup(name)
        coverage = 0.0
        runs = runner.workloads().values()
        for run in runs:
            result = run.results[name]
            covered = result.stats.value_predicted_loads
            if result.constable_stats:
                covered += result.constable_stats["loads_eliminated"]
            coverage += covered / max(1, result.stats.loads_renamed)
        coverage /= len(list(runs))
        rows.append((name, f"{speedup:.3f}x", f"{coverage:.1%}",
                     f"{energies[name] / baseline_energy:.3f}"))

    print(format_table(["config", "speedup", "load coverage", "relative power"], rows,
                       title="Constable vs EVES (reduced workload set)"))


if __name__ == "__main__":
    main()
