"""``repro bench`` — wall-clock performance harness for the simulator core.

The harness establishes (and keeps extending) the repo's performance
trajectory: every run measures, per *figure family*, how fast the simulator
itself executes — wall seconds, simulated instructions per second, simulated
cycles per second — for each execution engine (the ``"cycle"`` per-cycle
reference stepper and the default ``"event"`` cycle-skipping engine), verifies
the engines produce bit-identical :class:`SimulationResult` records, and
writes everything to a ``BENCH_<timestamp>.json`` report.

Measurements are **distributions, not single shots**: every job runs
``--reps`` times (``REPRO_BENCH_REPS``, default 3; the first repetition is a
discardable warm-up) and the report records every sample alongside the
median, minimum and median absolute deviation.  Summary numbers (rates,
speedups, the walls :func:`perf_gate` compares) are medians — on a shared CI
host one contended repetition inflates a mean arbitrarily but moves a
median-of-N only under persistent load.

Families mirror how the paper's figures load the simulator:

* ``memory_bound`` — pointer-chasing and random-access workloads whose DRAM
  stalls dominate (the worst case for the per-cycle stepper and the headline
  win for cycle skipping);
* ``speedup`` — the fig. 11/12/15/16 single-thread speedup sweeps over
  suite workloads;
* ``smt`` — a fig. 14-style SMT2 pair;
* ``sensitivity`` — fig. 13/20-style width/depth/category variants.

Reports land in ``bench_reports/`` by default (``BENCH_<UTC timestamp>.json``);
:func:`latest_bench_report` resolves the newest committed report there.
:func:`perf_gate` compares a fresh report against a committed
reference — the soft regression gate CI's perf-smoke job runs — and
:func:`load_bench_history` / ``repro bench history`` render the perf
trajectory across every accumulated report.

**Report schema** (``BENCH_<UTC timestamp>.json``, ``schema`` = 4)::

    {
      "schema": 4,
      "created_utc": "YYYY-mm-ddTHH:MM:SSZ",
      "quick": bool,                  # --quick run (reduced budgets)
      "reps": N,                      # repetitions per measurement
      "warmup_discarded": bool,       # first rep excluded from the stats
      "engines": ["cycle", "event"],
      "platform": {"python": "...", "machine": "...", "system": "..."},
      "host": {                       # provenance of the measuring host
        "platform": "...", "machine": "...", "system": "...",
        "release": "...", "python": "...", "implementation": "...",
        "cpu_count": N, "load_average": [l1, l5, l15] | null,
        "git_rev": "..." | null},
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
      "identical": bool,              # every job bit-identical across engines
      "orchestrator": {               # only with --orchestrator
        "figures": [...], "workers": N,
        "per_suite": N, "instructions": N,
        "reps": N, "warmup_discarded": bool,
        "serial_wall_seconds": s,     # median over reps (one wave per figure)
        "orchestrated_wall_seconds": s,  # median over reps (one deduped wave)
        "serial_wall_samples": [...], "orchestrated_wall_samples": [...],
        "serial_wall_mad": s, "orchestrated_wall_mad": s,
        "speedup": serial / orchestrated (medians),
        "identical": bool,            # figure payloads bit-identical
        "dedup": {"planned": N, "unique": N, "deduped": N,
                  "cache_warm": N, "executed": N, "cold_jobs": [...]},
        "health": {                 # last repetition's supervision report
            "jobs": N, "attempts": N, "retries": N, "timeouts": N,
            "pool_rebuilds": N, "degraded": N, "dead_lettered": N,
            "dead_letters": [...]}}
    }

``speedup``/``speedup_geomean`` are only present when both engines ran; the
``orchestrator`` section only when the orchestrated mode was requested.  The
CI perf-smoke job runs ``repro bench --quick`` and uploads the report as an
artifact, then soft-gates median wall seconds against the committed reference
— generous threshold plus a noise margin from the reference's recorded
spread, warn-only off the canonical repo — but the run fails loudly if any
engine pair (or the orchestrated figure set) diverges, so the harness doubles
as an end-to-end differential check.

Schema history: 1 = engine families only, single-shot walls; 2 = adds the
optional ``orchestrator`` section; 3 = adds ``reps``/``warmup_discarded``,
per-measurement sample distributions (``wall_samples``/``wall_min``/
``wall_mad``) and the ``host`` provenance block; 4 = adds the orchestrator
``health`` supervision block (retries/timeouts/pool rebuilds observed while
measuring).  ``wall_seconds`` keeps its name and position in every schema (a
single shot *is* its own median), so :func:`latest_bench_report`,
:func:`perf_gate`, :func:`format_bench_table` and :func:`load_bench_history`
read all four schemas.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
from repro.pipeline.cpu import CORE_ENGINES, OutOfOrderCore
from repro.pipeline.smt import SMT_SECOND_THREAD_BASE_PC
from repro.workloads.generator import DEFAULT_BASE_PC, generate_trace
from repro.workloads.suites import WorkloadSpec, get_workload_spec
from repro.workloads.trace import Trace

#: Version of the BENCH_*.json report layout (4 adds the orchestrator
#: supervision health block; see the module docstring's history).
BENCH_SCHEMA_VERSION = 4

#: Report filename pattern; the timestamp is UTC.
BENCH_FILE_FORMAT = "BENCH_%Y%m%dT%H%M%SZ.json"

#: Where reports are written (and committed) by default.
BENCH_REPORTS_DIR = "bench_reports"

#: Filename glob matching bench-report *candidates*; discovery additionally
#: requires the strict timestamp shape of :data:`BENCH_FILE_RE`, so a stray
#: ``BENCH_notes.json`` next to the reports is ignored instead of crashing
#: ``json.loads`` (it sorts lexically *after* every timestamp).
BENCH_FILE_GLOB = "BENCH_*.json"

#: Strict report-name shape: ``BENCH_YYYYmmddTHHMMSSZ.json``.
BENCH_FILE_RE = re.compile(r"^BENCH_(\d{8}T\d{6}Z)\.json$")

#: Environment variable overriding the default repetition count.
BENCH_REPS_ENV = "REPRO_BENCH_REPS"

#: Repetitions per measurement when neither ``--reps`` nor the environment
#: overrides it.  The first repetition is a warm-up (caches, allocator, JIT-ed
#: readers) and is discarded from the statistics by default.
DEFAULT_BENCH_REPS = 3

#: Figures measured by the orchestrated mode: a heavy-overlap subset (the
#: baseline/constable family is demanded by every one of them, and fig. 13's
#: ``all_loads`` / fig. 20's ``baseline_w3``-style grid points are
#: content-identical to configs the others already demand), plus fig. 14 so
#: the wave carries SMT jobs too.
ORCHESTRATOR_BENCH_FIGURES = (
    "fig11", "fig12", "fig13", "fig14", "fig16", "fig17", "fig20")


def resolve_bench_reps(reps: Optional[int] = None) -> int:
    """The effective repetition count: argument, else env, else the default.

    A malformed or non-positive ``REPRO_BENCH_REPS`` warns and falls back to
    :data:`DEFAULT_BENCH_REPS` — repetition count is a robustness knob, never
    a correctness requirement, so it must not kill a bench run.  An explicit
    ``reps`` argument stays strict and raises on invalid values.
    """
    if reps is not None:
        if reps < 1:
            raise ValueError("reps must be >= 1")
        return reps
    raw = os.environ.get(BENCH_REPS_ENV, "").strip()
    if not raw:
        return DEFAULT_BENCH_REPS
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 1:
        warnings.warn(
            f"ignoring invalid {BENCH_REPS_ENV}={raw!r}: expected a positive "
            f"integer; using {DEFAULT_BENCH_REPS} repetitions",
            RuntimeWarning, stacklevel=2)
        return DEFAULT_BENCH_REPS
    return value


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
    """Provenance of the measuring host, embedded in every schema-3 report.

    Wall-clock samples are only comparable in context: the gate's noise
    margin assumes same-ish hardware, so the report records what ran it —
    platform, CPU count, the load average at measurement time (None where the
    OS has no :func:`os.getloadavg`) and the git revision measured (None
    outside a work tree).
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
    for position, spec in enumerate(job.specs):
        base_pc = DEFAULT_BASE_PC if position == 0 else SMT_SECOND_THREAD_BASE_PC
        key = (spec.name, instructions, base_pc)
        trace = memo.get(key)
        if trace is None:
            trace = generate_trace(spec, num_instructions=instructions,
                                   base_pc=base_pc)
            memo[key] = trace
        traces.append(trace)
    return traces


def _measured(samples: Sequence[float], discard_warmup: bool) -> List[float]:
    """The samples the statistics run over (warm-up dropped when possible)."""
    if discard_warmup and len(samples) > 1:
        return list(samples[1:])
    return list(samples)


def _distribution(samples: Sequence[float], instructions: int, cycles: int,
                  discard_warmup: bool) -> Dict[str, object]:
    """Sample distribution + median-derived rates for one measurement."""
    measured = _measured(samples, discard_warmup)
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
              engines: Sequence[str] = ("cycle", "event"),
              families: Optional[Sequence[str]] = None,
              instructions: Optional[int] = None,
              reps: Optional[int] = None,
              discard_warmup: bool = True) -> Dict[str, object]:
    """Measure every requested family with every requested engine.

    Each (job, engine) measurement repeats ``reps`` times (argument, else
    ``REPRO_BENCH_REPS``, else 3); with ``discard_warmup`` (the default) and
    more than one repetition the first sample is excluded from the summary
    statistics but still recorded in ``wall_samples``.  ``instructions``
    overrides the per-family budgets (used by tests); the normal entry points
    pass None and get the full or ``--quick`` budgets.  Returns the report
    payload described in the module docstring.
    """
    for engine in engines:
        if engine not in CORE_ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected {CORE_ENGINES}")
    if not engines:
        raise ValueError("at least one engine is required")
    if instructions is not None and instructions <= 0:
        raise ValueError("instructions must be positive")
    reps = resolve_bench_reps(reps)
    selected = list(families) if families is not None else list(BENCH_FAMILIES)
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
                  for engine in engines}
        family_identical = True
        family_skipped = 0
        family_stepped = 0
        for job in jobs:
            traces = _traces_for(job, budget, trace_memo)
            results = {}
            walls: Dict[str, List[float]] = {engine: [] for engine in engines}
            record: Dict[str, object] = {
                "workload": job.workload, "config": job.config_name,
                "smt": job.smt, "engines": {},
            }
            for rep in range(reps):
                for engine in engines:
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
            for engine in engines:
                record["engines"][engine] = _distribution(
                    walls[engine], results[engine].instructions,
                    results[engine].cycles, discard_warmup)
            record["instructions"] = results[engines[0]].instructions
            record["cycles"] = results[engines[0]].cycles
            reference = results[engines[0]].to_dict()
            identical = all(results[engine].to_dict() == reference
                            for engine in engines[1:])
            record["identical"] = identical
            family_identical &= identical
            job_reports.append(record)
        report: Dict[str, object] = {
            "instructions": budget,
            "jobs": job_reports,
            "totals": {engine: _distribution(values["wall_samples"],
                                             values["instructions"],
                                             values["cycles"], discard_warmup)
                       for engine, values in totals.items()},
            "identical": family_identical,
        }
        if "cycle" in engines and "event" in engines:
            event_wall = max(report["totals"]["event"]["wall_seconds"], 1e-9)
            report["speedup"] = (report["totals"]["cycle"]["wall_seconds"]
                                 / event_wall)
        if family_stepped or family_skipped:
            report["skipped_cycle_fraction"] = (
                family_skipped / max(1, family_skipped + family_stepped))
        family_reports[family] = report
        all_identical &= family_identical

    payload: Dict[str, object] = {
        "schema": BENCH_SCHEMA_VERSION,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": quick,
        "reps": reps,
        "warmup_discarded": bool(discard_warmup and reps > 1),
        "engines": list(engines),
        "platform": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "host": host_provenance(),
        "families": family_reports,
        "identical": all_identical,
    }
    speedups = [report["speedup"] for report in family_reports.values()
                if "speedup" in report]
    if speedups:
        payload["speedup_geomean"] = filtered_geomean(speedups)
    return payload


def run_orchestrator_bench(quick: bool = False,
                           workers: Optional[int] = None,
                           per_suite: Optional[int] = None,
                           instructions: Optional[int] = None,
                           figures: Optional[Sequence[str]] = None,
                           reps: Optional[int] = None,
                           discard_warmup: bool = True) -> Dict[str, object]:
    """Measure one shared wave over every figure against one wave per figure.

    Both paths run the same figure set cold (no on-disk cache) on identical
    parallel runners: the *serial* path executes each harness back-to-back,
    so every figure's plan is its own wave and its own pool barrier, while
    the *orchestrated* path dedups all figures' jobs and feeds them through
    one wave.  The serial-vs-wave measurement repeats ``reps`` times (fresh runners each
    repetition, warm-up discardable exactly like :func:`run_bench`); figure
    payloads are verified bit-identical between the two paths on every
    repetition.  The returned section (see the module docstring's schema)
    records both wall distributions, the median speedup ratio and the dedup
    stats.
    """
    from repro.experiments.figures import FIGURE_HARNESSES, orchestrate_figures
    from repro.experiments.parallel import ParallelExperimentRunner

    selected = list(figures) if figures is not None else list(ORCHESTRATOR_BENCH_FIGURES)
    unknown = sorted(set(selected) - set(FIGURE_HARNESSES))
    if unknown:
        raise ValueError(f"unknown orchestrator bench figures {unknown}; "
                         f"available: {sorted(FIGURE_HARNESSES)}")
    reps = resolve_bench_reps(reps)
    if per_suite is None:
        per_suite = 1 if quick else 2
    if instructions is None:
        instructions = 1_500 if quick else 6_000
    runner_kwargs = dict(per_suite=per_suite, instructions=instructions)
    if workers is not None:
        runner_kwargs["max_workers"] = workers

    serial_walls: List[float] = []
    orchestrated_walls: List[float] = []
    identical = True
    effective_workers = workers
    dedup = None
    health = None
    for _ in range(reps):
        with ParallelExperimentRunner(**runner_kwargs) as serial_runner:
            start = time.perf_counter()
            serial_results = {name: FIGURE_HARNESSES[name](serial_runner)
                              for name in selected}
            serial_walls.append(time.perf_counter() - start)
            effective_workers = serial_runner.max_workers

        with ParallelExperimentRunner(**runner_kwargs) as wave_runner:
            start = time.perf_counter()
            orchestrated_results, dedup = orchestrate_figures(wave_runner, selected)
            orchestrated_walls.append(time.perf_counter() - start)
            health = wave_runner.health.to_dict()

        identical &= all(serial_results[name] == orchestrated_results[name]
                         for name in selected)

    serial_measured = _measured(serial_walls, discard_warmup)
    orchestrated_measured = _measured(orchestrated_walls, discard_warmup)
    serial_wall = median(serial_measured)
    orchestrated_wall = median(orchestrated_measured)
    return {
        "figures": selected,
        "workers": effective_workers,
        "per_suite": per_suite,
        "instructions": instructions,
        "reps": reps,
        "warmup_discarded": bool(discard_warmup and reps > 1),
        "serial_wall_seconds": serial_wall,
        "orchestrated_wall_seconds": orchestrated_wall,
        "serial_wall_samples": serial_walls,
        "orchestrated_wall_samples": orchestrated_walls,
        "serial_wall_mad": median_abs_deviation(serial_measured),
        "orchestrated_wall_mad": median_abs_deviation(orchestrated_measured),
        "speedup": serial_wall / max(orchestrated_wall, 1e-9),
        "identical": identical,
        "dedup": dedup.to_dict(),
        "health": health,
    }


def write_bench_report(payload: Dict[str, object],
                       output: Optional[Union[str, Path]] = None,
                       directory: Union[str, Path] = BENCH_REPORTS_DIR) -> Path:
    """Write the report; default ``bench_reports/BENCH_<UTC timestamp>.json``."""
    if output is None:
        output = Path(directory) / time.strftime(BENCH_FILE_FORMAT, time.gmtime())
    path = Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _report_paths(directory: Union[str, Path]) -> List[Path]:
    """Strictly named report files under ``directory``, oldest first.

    The glob's loose matches (``BENCH_notes.json`` and friends) are filtered
    out by :data:`BENCH_FILE_RE` so discovery never tries to ``json.loads`` a
    scratch file; strict names embed a UTC timestamp, making lexical order
    chronological.
    """
    return sorted(path for path in Path(directory).glob(BENCH_FILE_GLOB)
                  if BENCH_FILE_RE.match(path.name))


def latest_bench_report(directory: Union[str, Path] = BENCH_REPORTS_DIR
                        ) -> Optional[Tuple[Path, Dict[str, object]]]:
    """Locate and load the newest committed bench report in ``directory``.

    Only strictly named reports participate (see :data:`BENCH_FILE_RE`);
    filenames embed a UTC timestamp, so the lexically greatest name is the
    newest report.  Returns ``(path, payload)`` or None when no report exists
    (including when the directory itself is missing).
    """
    reports = _report_paths(directory)
    if not reports:
        return None
    path = reports[-1]
    return path, json.loads(path.read_text(encoding="utf-8"))


def load_bench_history(directory: Union[str, Path] = BENCH_REPORTS_DIR
                       ) -> List[Dict[str, object]]:
    """One summary per report in ``directory``, oldest first — the perf trajectory.

    Reads every strictly named report (schemas 1-4 alike) and reduces each to
    the numbers the trajectory cares about: per-family median event-engine
    wall, the engine-speedup geomean and the orchestrator speedup.  A report
    that fails to parse is skipped with a :class:`UserWarning` rather than
    sinking the whole history.
    """
    entries: List[Dict[str, object]] = []
    for path in _report_paths(directory):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("report is not a JSON object")
        except (OSError, ValueError) as error:
            warnings.warn(f"skipping unreadable bench report {path}: {error}",
                          UserWarning, stacklevel=2)
            continue
        family_walls: Dict[str, Optional[float]] = {}
        families = payload.get("families")
        if isinstance(families, dict):
            for family, report in families.items():
                try:
                    family_walls[family] = (
                        report["totals"]["event"]["wall_seconds"])
                except (KeyError, TypeError):
                    family_walls[family] = None
        orchestrator = payload.get("orchestrator") or {}
        entries.append({
            "path": str(path),
            "name": path.name,
            "created_utc": payload.get("created_utc",
                                       BENCH_FILE_RE.match(path.name).group(1)),
            "schema": payload.get("schema"),
            "quick": bool(payload.get("quick")),
            "reps": int(payload.get("reps", 1)),
            "family_walls": family_walls,
            "speedup_geomean": payload.get("speedup_geomean"),
            "orchestrator_speedup": orchestrator.get("speedup"),
        })
    return entries


def format_bench_history(entries: Sequence[Dict[str, object]]) -> str:
    """Render :func:`load_bench_history` entries as a trajectory table."""
    from repro.experiments.reporting import format_table

    families: List[str] = []
    for entry in entries:
        for family in entry["family_walls"]:
            if family not in families:
                families.append(family)
    rows = []
    for entry in entries:
        row = [
            entry["created_utc"],
            entry["schema"] if entry["schema"] is not None else "?",
            "quick" if entry["quick"] else "full",
            entry["reps"],
        ]
        for family in families:
            wall = entry["family_walls"].get(family)
            row.append(f"{wall:.2f}s" if wall is not None else "-")
        geomean = entry["speedup_geomean"]
        row.append(f"{geomean:.2f}x" if geomean is not None else "-")
        orchestrated = entry["orchestrator_speedup"]
        row.append(f"{orchestrated:.2f}x" if orchestrated is not None else "-")
        rows.append(row)
    headers = (["report (UTC)", "schema", "budget", "reps"]
               + [f"{family} wall" for family in families]
               + ["event/cycle", "orchestrator"])
    return format_table(headers, rows,
                        title=f"bench trajectory ({len(entries)} reports)")


@dataclass
class PerfGateResult:
    """Outcome of one :func:`perf_gate` evaluation.

    ``problems`` holds one message per confirmed regression; ``compared``
    names every comparison actually performed (families plus ``"aggregate"``).
    A gate that performed *no* comparison is **vacuous**, not green:
    ``vacuous_reason`` says why (budget mismatch, no shared family, nothing
    clearing the noise floor), so a mis-budgeted reference can never
    green-wash regressions silently.
    """

    problems: List[str] = field(default_factory=list)
    compared: List[str] = field(default_factory=list)
    vacuous_reason: Optional[str] = None

    @property
    def vacuous(self) -> bool:
        """True when the gate compared nothing at all."""
        return not self.compared

    @property
    def ok(self) -> bool:
        """True when comparisons happened and none regressed."""
        return bool(self.compared) and not self.problems

    def describe(self) -> str:
        """A human-readable verdict (what the CI perf-smoke log prints)."""
        if self.vacuous:
            reason = self.vacuous_reason or "no comparison was possible"
            return (f"perf gate VACUOUS (no comparison performed): {reason}")
        if self.problems:
            lines = [f"PERF REGRESSION: {problem}" for problem in self.problems]
            return "\n".join(lines)
        return f"perf gate OK ({len(self.compared)} comparisons: " \
               f"{', '.join(self.compared)})"


def perf_gate(current: Dict[str, object], reference: Dict[str, object],
              threshold: float = 1.5,
              min_wall_seconds: float = 0.5,
              mad_multiplier: float = 3.0,
              min_noise_fraction: float = 0.05) -> PerfGateResult:
    """Compare a fresh bench payload against a committed reference report.

    Returns a :class:`PerfGateResult` with one problem per comparison whose
    event-engine **median** wall regressed past the gate — the soft gate CI's
    perf-smoke job evaluates.  A regression must clear *two* bars at once:

    * ``threshold`` × the reference median (the relative bar), **and**
    * the reference median + the noise margin, where the margin is the larger
      of ``mad_multiplier`` × the reference's recorded median absolute
      deviation and ``min_noise_fraction`` × the reference median.

    The ``min_noise_fraction`` floor exists because the MAD-based margin
    silently degenerates to **+0** against schema-1/2 references (which never
    recorded a spread) and against schema-3 reports taken with ``--reps 1``
    or two reps (a one-sample distribution has MAD exactly 0).  With a zero
    margin the second bar collapses into the first (``now > then`` is implied
    by ``now > then * threshold``), so those references got *less* noise
    protection than noisy ones — the opposite of the intent.  The floor keeps
    a minimum relative margin in play no matter how the reference was taken.

    Two further guards keep the gate honest across machines of different
    speeds: a family is only compared when its *reference* wall reaches
    ``min_wall_seconds`` (sub-threshold walls are timer/scheduler noise), and
    the **aggregate** wall over all shared families is compared too, so a
    broad slowdown spread thinly over individually-tiny families is still
    caught.  When nothing at all could be compared — different budgets (full
    vs ``--quick``), disjoint family sets, or nothing clearing the floor —
    the result is explicitly **vacuous** with a reason, never a silent pass.
    """
    if threshold <= 1.0:
        raise ValueError("threshold must exceed 1.0")
    if mad_multiplier < 0.0:
        raise ValueError("mad_multiplier must be non-negative")
    if min_noise_fraction < 0.0:
        raise ValueError("min_noise_fraction must be non-negative")
    current_quick = bool(current.get("quick"))
    reference_quick = bool(reference.get("quick"))
    if current_quick != reference_quick:
        return PerfGateResult(vacuous_reason=(
            f"budget mismatch: current report is "
            f"{'quick' if current_quick else 'full'}-budget but the reference "
            f"is {'quick' if reference_quick else 'full'}-budget — "
            f"cross-budget walls are not comparable; re-run or re-commit a "
            f"matching reference"))
    result = PerfGateResult()
    reference_families = reference.get("families", {})
    shared = 0
    total_now = total_then = total_mad = 0.0
    for family, report in current.get("families", {}).items():
        baseline = reference_families.get(family)
        if baseline is None:
            continue
        now_totals = report.get("totals", {}).get("event", {})
        then_totals = baseline.get("totals", {}).get("event", {})
        now = now_totals.get("wall_seconds")
        then = then_totals.get("wall_seconds")
        if not now or not then:
            continue
        shared += 1
        mad = float(then_totals.get("wall_mad") or 0.0)
        total_now += now
        total_then += then
        total_mad += mad
        if then < min_wall_seconds:
            continue
        result.compared.append(family)
        margin = max(mad_multiplier * mad, min_noise_fraction * then)
        if now > then * threshold and now > then + margin:
            result.problems.append(
                f"{family}/event: median {now:.2f}s vs committed {then:.2f}s "
                f"(> {threshold:.2f}x and beyond the "
                f"+{margin:.3f}s noise margin)")
    if total_then >= min_wall_seconds:
        result.compared.append("aggregate")
        margin = max(mad_multiplier * total_mad,
                     min_noise_fraction * total_then)
        if (total_now > total_then * threshold
                and total_now > total_then + margin):
            result.problems.append(
                f"aggregate/event: median {total_now:.2f}s vs committed "
                f"{total_then:.2f}s (> {threshold:.2f}x and beyond the "
                f"+{margin:.3f}s noise margin)")
    if not result.compared:
        if shared == 0:
            result.vacuous_reason = (
                "the two reports share no comparable family (check the "
                "--families subsets and that both recorded event-engine walls)")
        else:
            result.vacuous_reason = (
                f"no shared family (or their aggregate) reached the "
                f"{min_wall_seconds:.2f}s noise floor (aggregate reference "
                f"wall {total_then:.2f}s) — the reference budgets are too "
                f"small for this gate to mean anything")
    return result


def speedup_floor_gate(payload: Dict[str, object],
                       geomean_floor: float = 1.3,
                       family_floor: float = 0.95) -> PerfGateResult:
    """Assert the event engine actually pays for itself in ``payload``.

    The perf-smoke job runs this against the *fresh* bench payload (no
    committed reference needed): the cross-family geomean of the
    event-vs-cycle speedup must reach ``geomean_floor`` and no single family
    may fall below ``family_floor`` (i.e. the event engine must never be
    meaningfully *slower* than the reference stepper it exists to beat).

    The floors are deliberately below the medians measured on an idle
    machine (geomean ~1.7, weakest family ~1.15): CI boxes are noisy and
    share cores, and this gate is meant to catch the event engine's win
    structurally collapsing — a gating bug re-sweeping every cycle, a new
    per-cycle cost in the skip path — not a 10% scheduler hiccup.

    A payload that never ran both engines (``--engines event``) or recorded
    no family speedups is **vacuous**, not green, exactly like
    :func:`perf_gate`.
    """
    if geomean_floor <= 0.0 or family_floor <= 0.0:
        raise ValueError("floors must be positive")
    result = PerfGateResult()
    engines = payload.get("engines") or []
    if "cycle" not in engines or "event" not in engines:
        result.vacuous_reason = (
            f"payload ran engines {list(engines)!r}; both 'cycle' and "
            f"'event' are needed to measure a speedup")
        return result
    families = payload.get("families")
    if not isinstance(families, dict) or not families:
        result.vacuous_reason = "payload recorded no family reports"
        return result
    for family, report in families.items():
        speedup = report.get("speedup")
        if not isinstance(speedup, (int, float)):
            continue
        result.compared.append(family)
        if speedup < family_floor:
            result.problems.append(
                f"{family}: event engine speedup {speedup:.2f}x is below the "
                f"{family_floor:.2f}x family floor — the event engine is "
                f"slower than the cycle stepper here")
    if not result.compared:
        result.vacuous_reason = (
            "no family recorded an event-vs-cycle speedup (were both "
            "engines actually run?)")
        return result
    geomean = payload.get("speedup_geomean")
    if isinstance(geomean, (int, float)):
        result.compared.append("geomean")
        if geomean < geomean_floor:
            result.problems.append(
                f"geomean: event engine speedup {geomean:.2f}x is below the "
                f"{geomean_floor:.2f}x floor")
    return result


def format_bench_table(payload: Dict[str, object]) -> str:
    """A human-readable summary of one bench payload (any schema)."""
    from repro.experiments.reporting import format_table

    engines = payload["engines"]
    primary = "event" if "event" in engines else engines[0]
    rows = []
    for family, report in payload["families"].items():
        totals = report["totals"][primary]
        wall = f"{totals['wall_seconds']:.2f}s"
        mad = totals.get("wall_mad")
        if mad is not None:
            wall += f" +-{mad:.3f}"
        rows.append((
            family,
            wall,
            f"{totals['instructions_per_second'] / 1000.0:.1f}k",
            f"{report['speedup']:.2f}x" if "speedup" in report else "-",
            f"{report.get('skipped_cycle_fraction', 0.0) * 100:.1f}%",
            "yes" if report["identical"] else "NO",
        ))
    title = ("repro bench (quick)" if payload.get("quick") else "repro bench")
    reps = int(payload.get("reps", 1))
    if reps > 1:
        title += f" — median of {reps} reps" + (
            " (first discarded)" if payload.get("warmup_discarded") else "")
    table = format_table(
        ["family", f"{primary} wall", "sim kinstr/s", "speedup vs cycle",
         "cycles skipped", "bit-identical"],
        rows, title=title)
    orchestrator = payload.get("orchestrator")
    if orchestrator:
        dedup = orchestrator["dedup"]
        table += (
            f"\norchestrator ({len(orchestrator['figures'])} figures, "
            f"{orchestrator['workers']} workers): "
            f"serial {orchestrator['serial_wall_seconds']:.2f}s -> wave "
            f"{orchestrator['orchestrated_wall_seconds']:.2f}s "
            f"({orchestrator['speedup']:.2f}x); "
            f"jobs {dedup['planned']} planned / {dedup['unique']} unique / "
            f"{dedup['cache_warm']} cache-warm; "
            f"{'bit-identical' if orchestrator['identical'] else 'DIVERGED'}")
    return table
