"""``repro bench`` — the engine check: both engines over four figure families.

The simulator core has two execution engines, the ``"cycle"`` per-cycle
reference stepper and the default ``"event"`` cycle-skipping engine, and they
must produce bit-identical :class:`SimulationResult` records.  ``repro bench``
runs every job of four *figure families* under both engines, verifies the
results are identical (the CLI exits 1 on any divergence) and reports, per
family, the event-vs-cycle wall-clock speedup and the fraction of cycles the
event engine skipped.  :func:`speedup_floor_gate` turns that
speedup into a reference-free check: both engines ran on the same host in the
same process, so the ratio needs no committed baseline.

How fast the simulator runs end to end, and which layer moved, is measured by
the repository benchmark (``perfbench/`` with ``BENCHMARK.json``), which
reuses :data:`BENCH_FAMILIES` and :func:`host_provenance` from this module.

Families mirror how the paper's figures load the simulator:

* ``memory_bound`` — pointer-chasing and random-access workloads whose DRAM
  stalls dominate (the worst case for the per-cycle stepper and the headline
  win for cycle skipping);
* ``speedup`` — the fig. 11/12/15/16 single-thread speedup sweeps over
  suite workloads;
* ``smt`` — a fig. 14-style SMT2 pair;
* ``sensitivity`` — fig. 13/20-style width/depth/category variants.

Every (job, engine) timing repeats ``reps`` times (default 3).  With more
than one repetition the first is a warm-up: it is recorded in
``wall_samples`` but left out of the summary statistics, and every summary
wall is a median.

**Payload** (rendered by :func:`format_bench_table`; ``repro bench
--output PATH`` also writes it as JSON)::

    {
      "created_utc": "YYYY-mm-ddTHH:MM:SSZ",
      "quick": bool,                  # --quick run (reduced budgets)
      "reps": N,                      # repetitions per measurement
      "warmup_discarded": bool,       # first rep excluded from the stats
      "engines": ["cycle", "event"],  # always both, the reference first
      "host": {...},                  # host_provenance()
      "families": {
        "<family>": {
          "instructions": <per-workload budget>,
          "jobs": [                   # one entry per (workload, config)
            {"workload": "...", "config": "...", "smt": bool,
             "instructions": N, "cycles": N,
             "engines": {"<engine>": {
                 "wall_seconds": s,   # MEDIAN of the measured samples
                 "wall_samples": [s, ...],   # every repetition, warm-up first
                 "wall_min": s, "wall_mad": s,
                 "instructions_per_second": ips,
                 "cycles_per_second": cps}},
             "skipped_idle_cycles": N,   # event engine
             "stepped_cycles": N,        # event engine
             "identical": bool}, ...],
          "totals": {"<engine>": {    # per-rep family sums, same stat fields
              "wall_seconds": s, "wall_samples": [...],
              "wall_min": s, "wall_mad": s,
              "instructions_per_second": ips, "cycles_per_second": cps}},
          "speedup": median cycle wall / median event wall,
          "skipped_cycle_fraction": skipped / (skipped + stepped),
          "identical": bool},
        ...},
      "speedup_geomean": geomean of family speedups,
      "identical": bool               # every job bit-identical across engines
    }
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats_utils import (
    filtered_geomean,
    median,
    median_abs_deviation,
)
from repro.experiments.configs import (
    baseline_config,
    constable_config,
    eves_constable_config,
)
from repro.pipeline.config import CoreConfig
from repro.pipeline.cpu import OutOfOrderCore
from repro.workloads.generator import THREAD_BASE_PCS, generate_trace
from repro.workloads.suites import WorkloadSpec, get_workload_spec
from repro.workloads.trace import Trace

#: Repetitions per measurement unless ``--reps`` says otherwise.  The first
#: repetition is a warm-up (caches, allocator) and is left out of the
#: summary statistics.
DEFAULT_BENCH_REPS = 3

#: The engines every job runs under, the reference stepper first.
_ENGINES = ("cycle", "event")


def _git_rev() -> Optional[str]:
    """The current git revision, or None outside a repo / without git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=Path(__file__).resolve().parent)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    rev = proc.stdout.strip()
    return rev or None


def host_provenance() -> Dict[str, object]:
    """Provenance of the measuring host, embedded in every bench payload.

    Wall-clock samples are only comparable in context, so a payload records
    what ran it — platform, CPU count, the load average at measurement time
    (None where the OS has no :func:`os.getloadavg`) and the git revision
    measured (None outside a work tree).
    """
    try:
        load_average: Optional[List[float]] = list(os.getloadavg())
    except (OSError, AttributeError):
        load_average = None
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "system": platform.system(),
        "release": platform.release(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "load_average": load_average,
        "git_rev": _git_rev(),
    }


@dataclass(frozen=True)
class BenchJob:
    """One measured simulation: workload spec(s) × configuration."""

    workload: str
    config_name: str
    config: CoreConfig
    specs: Tuple[WorkloadSpec, ...]

    @property
    def smt(self) -> bool:
        """True when the job simulates an SMT2 pair (two workload specs)."""
        return len(self.specs) > 1


def _membound_specs() -> List[WorkloadSpec]:
    """Purpose-built memory-bound workloads (footprints well past the LLC)."""
    return [
        WorkloadSpec(
            name="membound_chase", suite="Bench", seed=11,
            kernels=[("pointer_chase", {"inner_iterations": 16,
                                        "ring_nodes": 1 << 16}),
                     ("random_access", {"inner_iterations": 8,
                                        "region_words": 1 << 20})],
            description="dependent pointer chase + random access over 8 MiB"),
        WorkloadSpec(
            name="membound_scatter", suite="Bench", seed=23,
            kernels=[("random_access", {"inner_iterations": 12,
                                        "region_words": 1 << 21}),
                     ("streaming", {"inner_iterations": 6,
                                    "region_words": 1 << 19})],
            description="random access over 16 MiB + LLC-sized streaming"),
    ]


def _family_memory_bound() -> List[BenchJob]:
    jobs = []
    for spec in _membound_specs():
        for config_name, config in (("baseline", baseline_config()),
                                    ("constable", constable_config())):
            jobs.append(BenchJob(spec.name, config_name, config, (spec,)))
    return jobs


def _family_speedup() -> List[BenchJob]:
    jobs = []
    for workload in ("client_00", "ispec_00"):
        spec = get_workload_spec(workload)
        for config_name, config in (("baseline", baseline_config()),
                                    ("constable", constable_config()),
                                    ("eves+constable", eves_constable_config())):
            jobs.append(BenchJob(workload, config_name, config, (spec,)))
    return jobs


def _family_smt() -> List[BenchJob]:
    first = get_workload_spec("client_00")
    second = get_workload_spec("server_00")
    return [BenchJob("client_00+server_00", config_name, config, (first, second))
            for config_name, config in (("baseline", baseline_config()),
                                        ("constable", constable_config()))]


def _family_sensitivity() -> List[BenchJob]:
    spec = get_workload_spec("client_00")
    return [
        BenchJob("client_00", "constable_w3",
                 constable_config().with_load_width(3), (spec,)),
        BenchJob("client_00", "constable_d2.0",
                 constable_config().with_depth_scale(2.0), (spec,)),
    ]


#: Family registry: name -> (job builder, full budget, quick budget).
BENCH_FAMILIES: Dict[str, Tuple[Callable[[], List[BenchJob]], int, int]] = {
    "memory_bound": (_family_memory_bound, 20_000, 4_000),
    "speedup": (_family_speedup, 6_000, 1_500),
    "smt": (_family_smt, 3_000, 1_000),
    "sensitivity": (_family_sensitivity, 6_000, 1_500),
}


def _traces_for(job: BenchJob, instructions: int,
                memo: Dict[Tuple[str, int, int], Trace]) -> List[Trace]:
    """Generate (and memoise) the job's traces; generation is not timed."""
    traces = []
    for spec, base_pc in zip(job.specs, THREAD_BASE_PCS):
        key = (spec.name, instructions, base_pc)
        trace = memo.get(key)
        if trace is None:
            trace = generate_trace(spec, num_instructions=instructions,
                                   base_pc=base_pc)
            memo[key] = trace
        traces.append(trace)
    return traces


def _measured(samples: Sequence[float]) -> List[float]:
    """The samples the statistics run over (warm-up dropped when possible)."""
    return list(samples[1:]) if len(samples) > 1 else list(samples)


def _distribution(samples: Sequence[float], instructions: int,
                  cycles: int) -> Dict[str, object]:
    """Sample distribution + median-derived rates for one measurement."""
    measured = _measured(samples)
    center = median(measured)
    safe_wall = max(center, 1e-9)
    return {
        "wall_seconds": center,
        "wall_samples": list(samples),
        "wall_min": min(measured),
        "wall_mad": median_abs_deviation(measured),
        "instructions_per_second": instructions / safe_wall,
        "cycles_per_second": cycles / safe_wall,
    }


def run_bench(quick: bool = False,
              families: Optional[Sequence[str]] = None,
              instructions: Optional[int] = None,
              reps: int = DEFAULT_BENCH_REPS) -> Dict[str, object]:
    """Run every requested family under both engines.

    Each (job, engine) measurement repeats ``reps`` times; with more than one
    repetition the first sample is excluded from the summary statistics but
    still recorded in ``wall_samples``.  ``instructions`` overrides the
    per-family budgets (used by tests); the normal entry points pass None and
    get the full or ``--quick`` budgets.  An empty or unknown family list and
    non-positive budgets raise :class:`ValueError`.  Returns the payload
    described in the module docstring.
    """
    if instructions is not None and instructions <= 0:
        raise ValueError("instructions must be positive")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    selected = list(families) if families is not None else list(BENCH_FAMILIES)
    if not selected:
        raise ValueError(
            f"no bench families selected; available: {list(BENCH_FAMILIES)}")
    unknown = sorted(set(selected) - set(BENCH_FAMILIES))
    if unknown:
        raise ValueError(
            f"unknown bench families {unknown}; available: {list(BENCH_FAMILIES)}")

    trace_memo: Dict[Tuple[str, int, int], Trace] = {}
    family_reports: Dict[str, Dict[str, object]] = {}
    all_identical = True
    for family in selected:
        builder, full_budget, quick_budget = BENCH_FAMILIES[family]
        budget = (instructions if instructions is not None
                  else (quick_budget if quick else full_budget))
        jobs = builder()
        job_reports: List[Dict[str, object]] = []
        totals = {engine: {"wall_samples": [0.0] * reps,
                           "instructions": 0, "cycles": 0}
                  for engine in _ENGINES}
        family_identical = True
        family_skipped = 0
        family_stepped = 0
        for job in jobs:
            traces = _traces_for(job, budget, trace_memo)
            results = {}
            walls: Dict[str, List[float]] = {engine: [] for engine in _ENGINES}
            record: Dict[str, object] = {
                "workload": job.workload, "config": job.config_name,
                "smt": job.smt, "engines": {},
            }
            for rep in range(reps):
                for engine in _ENGINES:
                    start = time.perf_counter()
                    core = OutOfOrderCore(job.config, traces,
                                          name=job.config_name, engine=engine)
                    result = core.run()
                    wall = time.perf_counter() - start
                    walls[engine].append(wall)
                    totals[engine]["wall_samples"][rep] += wall
                    if rep == 0:
                        results[engine] = result
                        totals[engine]["instructions"] += result.instructions
                        totals[engine]["cycles"] += result.cycles
                        if engine == "event":
                            record["skipped_idle_cycles"] = core.skipped_idle_cycles
                            record["stepped_cycles"] = core.stepped_cycles
                            family_skipped += core.skipped_idle_cycles
                            family_stepped += core.stepped_cycles
            for engine in _ENGINES:
                record["engines"][engine] = _distribution(
                    walls[engine], results[engine].instructions,
                    results[engine].cycles)
            record["instructions"] = results["cycle"].instructions
            record["cycles"] = results["cycle"].cycles
            identical = results["cycle"].to_dict() == results["event"].to_dict()
            record["identical"] = identical
            family_identical &= identical
            job_reports.append(record)
        family_totals = {engine: _distribution(values["wall_samples"],
                                               values["instructions"],
                                               values["cycles"])
                         for engine, values in totals.items()}
        family_reports[family] = {
            "instructions": budget,
            "jobs": job_reports,
            "totals": family_totals,
            "identical": family_identical,
            "speedup": (family_totals["cycle"]["wall_seconds"]
                        / max(family_totals["event"]["wall_seconds"], 1e-9)),
            "skipped_cycle_fraction": (
                family_skipped / max(1, family_skipped + family_stepped)),
        }
        all_identical &= family_identical

    return {
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": quick,
        "reps": reps,
        "warmup_discarded": reps > 1,
        "engines": list(_ENGINES),
        "host": host_provenance(),
        "families": family_reports,
        "identical": all_identical,
        "speedup_geomean": filtered_geomean(
            [report["speedup"] for report in family_reports.values()]),
    }


def speedup_floor_gate(payload: Dict[str, object],
                       geomean_floor: float = 1.3,
                       family_floor: float = 0.95) -> List[str]:
    """The speedup floors ``payload`` misses, one message each; empty when
    the event engine pays for itself.

    The cross-family geomean of the event-vs-cycle speedup must reach
    ``geomean_floor`` and no single family may fall below ``family_floor``
    (i.e. the event engine must never be meaningfully *slower* than the
    reference stepper it exists to beat).  Both engines ran on the same host
    in the same process, so no committed reference is needed.

    The floors are deliberately below the medians measured on an idle
    machine (geomean ~1.7, weakest family ~1.15): CI boxes are noisy and
    share cores, and this gate is meant to catch the event engine's win
    structurally collapsing — a gating bug re-sweeping every cycle, a new
    per-cycle cost in the skip path — not a 10% scheduler hiccup.
    """
    if geomean_floor <= 0.0 or family_floor <= 0.0:
        raise ValueError("floors must be positive")
    problems = [
        f"{family}: event engine speedup {report['speedup']:.2f}x is below "
        f"the {family_floor:.2f}x family floor — the event engine is slower "
        f"than the cycle stepper here"
        for family, report in payload["families"].items()
        if report["speedup"] < family_floor]
    geomean = payload["speedup_geomean"]
    if geomean < geomean_floor:
        problems.append(f"geomean: event engine speedup {geomean:.2f}x is below "
                        f"the {geomean_floor:.2f}x floor")
    return problems


def format_bench_table(payload: Dict[str, object]) -> str:
    """A human-readable summary of one bench payload."""
    from repro.experiments.reporting import format_table

    rows = []
    for family, report in payload["families"].items():
        totals = report["totals"]["event"]
        rows.append((
            family,
            f"{totals['wall_seconds']:.2f}s +-{totals['wall_mad']:.3f}",
            f"{totals['instructions_per_second'] / 1000.0:.1f}k",
            f"{report['speedup']:.2f}x",
            f"{report['skipped_cycle_fraction'] * 100:.1f}%",
            "yes" if report["identical"] else "NO",
        ))
    title = "repro bench (quick)" if payload["quick"] else "repro bench"
    if payload["reps"] > 1:
        title += f" — median of {payload['reps']} reps (first discarded)"
    return format_table(
        ["family", "event wall", "sim kinstr/s", "speedup vs cycle",
         "cycles skipped", "bit-identical"],
        rows, title=title)
