"""The repository benchmark: one workload per invocation, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``sweep_cold`` - ``repro figures all --per-suite 1 --instructions 2000
  --workers 1`` into an empty cache directory, as a subprocess;
* ``sweep_warm`` - the same command against a cache filled during set-up,
  repeated back to back (a closed loop with one client);
* ``sweep_cold_pool`` - ``sweep_cold`` with ``--workers 2``;
* ``core_membound`` - in-process event-engine ``OutOfOrderCore.run`` calls on
  the two memory-bound specs of ``repro bench``, seeded from ``--seed``.

Each unit of work repeats until ``--seconds`` have passed.  The reported
times are CPU seconds scaled to a reference host's speed by a fixed probe
(:mod:`hostprobe`) sampled while each unit runs, then medians over the units;
the serial workloads and the probe are pinned to one CPU.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` one more unit runs under
:mod:`tracer` and the line carries the per-layer metrics instead.  Every unit's
output is checked (the checks are listed in ``perfbench/README.md``).  The
benchmark reads and writes only inside the checkout (``.perfbench-run/`` is
its scratch).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from hostprobe import REFERENCE_S, ProbeServer
from tracer import LAYERS, Tracer, load_dumps

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench-run"

#: Budget of every sweep: the ROADMAP headline command.
SWEEP_ARGS = ("figures", "all", "--per-suite", "1", "--instructions", "2000",
              "--json")
#: Tiny sweep used by ``--smoke`` (self-tests only).
SMOKE_SWEEP_ARGS = ("figures", "all", "--per-suite", "1", "--instructions",
                    "300", "--suites", "Client,ISPEC17", "--json")
POOL_WORKERS = 2
MEMBOUND_INSTRUCTIONS = 20_000
SMOKE_MEMBOUND_INSTRUCTIONS = 1_500
MEMBOUND_CONFIGS = ("baseline", "constable", "eves+constable")

#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 7
#: No unit starts once it could end later than this many seconds after start,
#: so a run stays well inside the 180-second limit.
RUN_DEADLINE_S = 150.0
#: A sweep taking longer than this is killed, with its pool workers.
CHILD_TIMEOUT_S = 60.0

#: The reported metrics: CPU seconds, host-normalised (see
#: :meth:`Outcome.end_to_end`), and memory.
END_TO_END = (
    ("norm_cpu_s", "s", "lower"),
    ("norm_sim_instr_per_s", "1/s", "higher"),
    ("norm_jobs_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: What this host took, unscaled (``Outcome.measured``): wall time and the
#: rates per wall second a user waits for, and the CPU seconds behind
#: ``norm_cpu_s`` and ``setup_s``.
MEASURED = (
    ("wall_s", "s", "lower"),
    ("sim_instr_per_s", "1/s", "higher"),
    ("jobs_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("setup_cpu_s", "s", "lower"),
)

FIG11_CONFIGS = (("eves", "eves"), ("constable", "constable"),
                 ("eves+constable", "eves_constable"),
                 ("eves+ideal_constable", "eves_ideal_constable"))


def per_layer_table() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    rows = [("cli.import_s", "s", "lower")]
    for layer in LAYERS:
        rows += [(f"{layer}.calls", "count", "lower"),
                 (f"{layer}.self_s", "s", "lower")]
    rows += [
        ("pipeline.simulate.total_s", "s", "lower"),
        ("pipeline.simulate.job_p50_ms", "ms", "lower"),
        ("pipeline.simulate.job_p90_ms", "ms", "lower"),
        ("pipeline.host_us_per_uop", "us", "lower"),
        ("orchestrator.planned", "count", "lower"),
        ("orchestrator.unique", "count", "lower"),
        ("orchestrator.cache_warm", "count", "higher"),
        ("orchestrator.executed", "count", "lower"),
        ("cache.hit_rate", "ratio", "higher"),
        ("parallel.wave_s", "s", "lower"),
        ("parallel.attempts", "count", "lower"),
        ("parallel.retries", "count", "lower"),
        ("parallel.pool_rebuilds", "count", "lower"),
        ("parallel.dead_lettered", "count", "lower"),
        ("pipeline.uops_renamed", "count", "lower"),
        ("pipeline.rs_issues", "count", "lower"),
        ("pipeline.loads_executed", "count", "lower"),
        ("pipeline.flushes", "count", "lower"),
        ("pipeline.stepped_cycles", "count", "lower"),
        ("pipeline.skipped_cycle_frac", "ratio", "higher"),
        ("core.loads_eliminated", "count", "higher"),
        ("core.elimination_coverage", "ratio", "higher"),
        ("memory.l1d_hit_rate", "ratio", "higher"),
        ("memory.dram_accesses", "count", "lower"),
    ]
    rows += [(f"figures.fig11.{label}", "x", "higher")
             for _, label in FIG11_CONFIGS]
    rows += [
        ("failed_frac", "ratio", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("host.calib_s", "s", "lower"),
        ("host.load_1m", "load", "lower"),
    ]
    rows += [(f"measured.{name}", unit, better) for name, unit, better in MEASURED]
    return rows


# ----------------------------------------------------------------- processes

def child_env() -> Dict[str, str]:
    """The environment of every child: this checkout's sources, no REPRO_*."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclasses.dataclass
class Child:
    """One finished child process."""

    wall_s: float
    #: CPU seconds of the child and of every descendant it reaped.
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str


def run_child(argv: Sequence[str], log: Path) -> Child:
    """Run ``argv`` to completion; wall time, peak RSS and output.

    ``os.wait4`` reports the peak RSS of the child and of every descendant it
    reaped, so a sweep's pool workers count too.
    """
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    start = time.perf_counter()
    with out_path.open("wb") as out, err_path.open("wb") as err:
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text(encoding="utf-8", errors="replace")[-2000:])
    return Child(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0,
                 returncode=proc.returncode,
                 stdout=out_path.read_text(encoding="utf-8"))


# -------------------------------------------------------------------- outputs

def figure_payloads(stdout: str) -> Tuple[str, List[dict]]:
    """The leading JSON objects ``repro figures --json`` printed: their exact
    text (for byte comparison) and the decoded objects."""
    decoder = json.JSONDecoder()
    position, objects = 0, []
    while True:
        start = len(stdout) - len(stdout[position:].lstrip())
        try:
            figure, end = decoder.raw_decode(stdout, start)
        except ValueError:
            return stdout[:position], objects
        objects.append(figure)
        position = end


def fig11_geomeans(figures: List[dict]) -> Dict[str, float]:
    """``fig11``'s geomean speedups over baseline (0 when fig11 did not run)."""
    for figure in figures:
        if "fig11" in figure:
            geomean = figure["fig11"]["geomean"]
            return {label: float(geomean[name]) for name, label in FIG11_CONFIGS}
    return {label: 0.0 for _, label in FIG11_CONFIGS}


def done_counts(stdout: str) -> Tuple[int, int]:
    """``(simulated, unique jobs)`` from a figures run's summary lines."""
    done = re.search(r"^done: (\d+) simulated", stdout, re.MULTILINE)
    unique = re.search(r"^unique after dedup\s*\|\s*(\d+)", stdout, re.MULTILINE)
    return (int(done.group(1)) if done else -1,
            int(unique.group(1)) if unique else 0)


# ------------------------------------------------------------------ measuring

@dataclasses.dataclass
class Unit:
    """One measured unit of work."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    jobs: int
    instructions: int
    failed: int
    correct: bool
    #: Median host probe seconds while the unit ran, set by :func:`measure`.
    probe_s: float = 0.0


@dataclasses.dataclass
class Outcome:
    """What one benchmark run measured."""

    setup_s: float
    #: Median host probe seconds while set-up ran.
    setup_probe_s: float
    units: List[Unit]
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    notes: List[str] = dataclasses.field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(unit.jobs for unit in self.units)

    @property
    def failed(self) -> int:
        return sum(unit.failed for unit in self.units)

    @property
    def correct(self) -> bool:
        return all(unit.correct for unit in self.units) and not self.notes

    @property
    def probe_s(self) -> float:
        return statistics.median(unit.probe_s for unit in self.units)

    def rates(self, times: List[float]) -> Tuple[float, float, float]:
        """Medians of the units' ``times`` and of the instructions and jobs
        they completed per second of them."""
        units = self.units
        return (statistics.median(times),
                statistics.median(unit.instructions / spent
                                  for unit, spent in zip(units, times)),
                statistics.median((unit.jobs - unit.failed) / spent
                                  for unit, spent in zip(units, times)))

    def measured(self) -> Dict[str, float]:
        """What this host took, unscaled."""
        wall, instructions, jobs = self.rates([unit.wall_s for unit in self.units])
        return {"wall_s": wall, "sim_instr_per_s": instructions,
                "jobs_per_s": jobs,
                "cpu_s": statistics.median(unit.cpu_s for unit in self.units),
                "setup_cpu_s": self.setup_s}

    def end_to_end(self) -> Dict[str, float]:
        """The reported metrics.  Each unit's CPU seconds, and the set-up's,
        are scaled to the reference host's speed by the probe samples taken
        while they ran (``* REFERENCE_S / probe``); then medians over the
        units."""
        cpu, instructions, jobs = self.rates(
            [unit.cpu_s * REFERENCE_S / unit.probe_s for unit in self.units])
        return {"norm_cpu_s": cpu, "norm_sim_instr_per_s": instructions,
                "norm_jobs_per_s": jobs,
                "setup_s": self.setup_s * REFERENCE_S / self.setup_probe_s,
                "peak_rss_mb": max(unit.rss_mb for unit in self.units)}


def measure(unit: Callable[[], Unit], seconds: float, started: float,
            probe: ProbeServer) -> List[Unit]:
    """Repeat ``unit`` until ``seconds`` have passed (at least once).

    The host probe samples while each unit runs; the unit's ``probe_s`` is
    the median of its samples.
    """
    begin = time.perf_counter()
    units: List[Unit] = []
    while True:
        done, samples = probe.during(unit)
        done.probe_s = statistics.median(samples)
        units.append(done)
        longest = max(done.wall_s for done in units)
        if (time.perf_counter() - begin >= seconds
                or time.perf_counter() + longest - started > RUN_DEADLINE_S):
            return units


def median_cpu_seconds(action: Callable[[], object], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.process_time()
        action()
        samples.append(time.process_time() - start)
    return statistics.median(samples)


def host_line(outcome: Outcome) -> Dict[str, object]:
    from repro.experiments.bench import host_provenance

    host = host_provenance()
    host["calib_s"] = outcome.probe_s
    return host


# --------------------------------------------------------------------- sweeps

def check_cache(cache_dir: Path, unique: int) -> Tuple[int, Optional[str]]:
    """Instructions the cached jobs retired, and any disagreement between the
    warehouse, the cache journal and the sweep's job count."""
    from repro.experiments.cache import SCHEMA_VERSION
    from repro.experiments.warehouse import read_rows, verify_warehouse

    rows = read_rows(cache_dir)
    report = verify_warehouse(cache_dir, SCHEMA_VERSION)
    problem = None
    if report["missing"] or report["extra"] or report["entries"] != unique \
            or len(rows) != unique:
        problem = (f"warehouse disagrees with the cache: {report['entries']} "
                   f"entries, {len(rows)} rows, {len(report['missing'])} "
                   f"missing, {len(report['extra'])} extra, {unique} jobs")
    return sum(row.instructions for row in rows), problem


@dataclasses.dataclass
class Reference:
    """What a correct cold sweep produced."""

    payloads: str
    figures: List[dict]
    unique: int
    instructions: int


class SweepBench:
    """Runs and checks ``repro figures all`` subprocesses."""

    def __init__(self, work: Path, smoke: bool):
        self.work = work
        self.args = SMOKE_SWEEP_ARGS if smoke else SWEEP_ARGS
        self.count = 0
        self.notes: List[str] = []
        self.reference: Optional[Reference] = None

    def fresh(self, stem: str) -> Path:
        self.count += 1
        return self.work / f"{stem}{self.count}"

    def import_setup_s(self) -> float:
        """Median CPU seconds of interpreter start plus ``import repro.cli``."""
        return statistics.median(
            run_child([sys.executable, "-c", "import repro.cli"],
                      self.fresh("import")).cpu_s
            for _ in range(SETUP_REPEATS))

    def sweep(self, workers: int, cache_dir: Path,
              dump_dir: Optional[Path] = None) -> Child:
        head = ([sys.executable, str(PERFBENCH / "traced_repro.py"), str(dump_dir)]
                if dump_dir is not None else [sys.executable, "-m", "repro"])
        argv = head + list(self.args) + ["--workers", str(workers),
                                         "--cache-dir", str(cache_dir)]
        return run_child(argv, self.fresh("sweep"))

    def cold(self, workers: int, dump_dir: Optional[Path] = None,
             keep: Optional[Path] = None) -> Unit:
        """One sweep into an empty cache, checked against the reference.

        The first correct cold sweep becomes the reference.  A sweep that
        fails (a dead letter or a ``GoldenCheckError`` ends the CLI with a
        non-zero code) counts its unfinished jobs as failed.  The cache is
        deleted afterwards unless it is ``keep``.
        """
        cache_dir = keep or self.fresh("cache")
        child = self.sweep(workers, cache_dir, dump_dir)
        payloads, figures = figure_payloads(child.stdout)
        simulated, unique = done_counts(child.stdout)
        instructions, problem = check_cache(cache_dir, unique)
        if keep is None:
            shutil.rmtree(cache_dir, ignore_errors=True)
        expected = self.reference.unique if self.reference else unique
        if child.returncode != 0 or simulated != unique or unique == 0:
            self.notes.append(f"cold sweep exited {child.returncode}")
            return Unit(child.wall_s, child.cpu_s, child.rss_mb,
                        max(expected, 1), 0, max(expected, 1), False)
        correct = problem is None
        if problem:
            self.notes.append(problem)
        if self.reference is None:
            self.reference = Reference(payloads, figures, unique, instructions)
        elif (payloads, unique) != (self.reference.payloads, self.reference.unique):
            self.notes.append("cold sweep payloads differ from the first cold sweep")
            correct = False
        return Unit(child.wall_s, child.cpu_s, child.rss_mb, unique,
                    instructions, 0, correct)

    def warm(self, cache_dir: Path, dump_dir: Optional[Path] = None) -> Unit:
        """One invocation against a filled cache: byte-identical payloads to
        the cold sweep that filled it, and nothing simulated."""
        reference = self.reference
        child = self.sweep(1, cache_dir, dump_dir)
        if reference is None:  # the cold sweep that filled the cache failed
            return Unit(child.wall_s, child.cpu_s, child.rss_mb, 1, 0, 1, False)
        payloads, _ = figure_payloads(child.stdout)
        simulated, unique = done_counts(child.stdout)
        correct = (child.returncode == 0 and simulated == 0
                   and unique == reference.unique
                   and payloads == reference.payloads)
        if not correct:
            self.notes.append(f"warm sweep exited {child.returncode}, simulated "
                              f"{simulated}, payloads identical: "
                              f"{payloads == reference.payloads}")
        return Unit(child.wall_s, child.cpu_s, child.rss_mb, reference.unique,
                    reference.instructions, 0 if correct else reference.unique,
                    correct)


def sweep_workload(name: str, args: argparse.Namespace, work: Path,
                   started: float, probe: ProbeServer) -> Outcome:
    bench = SweepBench(work, args.smoke)
    setup_s, setup_samples = probe.during(bench.import_setup_s)
    workers = POOL_WORKERS if name == "sweep_cold_pool" else 1
    fill = work / "filled-cache"
    if name == "sweep_cold":
        unit = lambda: bench.cold(1)
    elif name == "sweep_cold_pool":
        bench.cold(1)  # the serial reference the pool must reproduce
        unit = lambda: bench.cold(POOL_WORKERS)
    else:
        bench.cold(1, keep=fill)
        unit = lambda: bench.warm(fill)
    units = measure(unit, args.seconds, started, probe)
    outcome = Outcome(setup_s=setup_s,
                      setup_probe_s=statistics.median(setup_samples),
                      units=units, notes=bench.notes)
    if args.trace:
        dump_dir = bench.fresh("trace")
        dump_dir.mkdir(parents=True)
        # Under the probe like the measured units, so trace.overhead_s
        # compares like with like.
        traced, _ = probe.during(
            lambda: bench.warm(fill, dump_dir) if name == "sweep_warm"
            else bench.cold(workers, dump_dir))
        figures = bench.reference.figures if bench.reference else []
        outcome.layers = layer_metrics(
            load_dumps(str(dump_dir)), outcome, traced,
            processes=1 + workers if workers > 1 else 1, figures=figures)
    return outcome


# --------------------------------------------------------------- membound

def membound_specs(seed: int):
    """The memory-bound family's specs of ``repro bench``, reseeded."""
    from repro.experiments.bench import BENCH_FAMILIES

    build_jobs = BENCH_FAMILIES["memory_bound"][0]
    specs = {}
    for job in build_jobs():
        for spec in job.specs:
            specs.setdefault(spec.name, spec)
    return [dataclasses.replace(
                spec, seed=random.Random(f"{seed}/{name}").randrange(1, 1 << 30))
            for name, spec in specs.items()]


def membound_workload(args: argparse.Namespace, started: float,
                      import_s: float, probe: ProbeServer) -> Outcome:
    from repro.experiments.configs import named_configs
    from repro.pipeline.cpu import GoldenCheckError, OutOfOrderCore
    from repro.workloads.generator import generate_trace

    instructions = (SMOKE_MEMBOUND_INSTRUCTIONS if args.smoke
                    else MEMBOUND_INSTRUCTIONS)
    specs = membound_specs(args.seed)
    traces: list = []

    def generate() -> None:
        traces[:] = [generate_trace(spec, num_instructions=instructions)
                     for spec in specs]

    setup_s, setup_samples = probe.during(
        lambda: median_cpu_seconds(generate, SETUP_REPEATS))
    factories = named_configs()
    configs = [(name, factories[name]()) for name in MEMBOUND_CONFIGS]
    reference: List[Optional[dict]] = []
    notes: List[str] = []

    def one_pass() -> Unit:
        start, cpu_start = time.perf_counter(), time.process_time()
        results, failed = [], 0
        for trace in traces:
            for name, config in configs:
                try:
                    results.append(OutOfOrderCore(config, [trace], name=name,
                                                  engine="event").run())
                except GoldenCheckError as error:
                    notes.append(f"{trace.name}/{name}: {error}")
                    results.append(None)
                    failed += 1
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        records = [result.to_dict() if result else None for result in results]
        if not reference:
            reference.extend(records)
        correct = records == reference
        if not correct:
            notes.append("simulator counters differ between repetitions")
        return Unit(wall_s=wall, cpu_s=cpu,
                    rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    jobs=len(results),
                    instructions=sum(r.instructions for r in results if r),
                    failed=failed, correct=correct and not failed)

    units = measure(one_pass, args.seconds, started, probe)
    outcome = Outcome(setup_s=setup_s,
                      setup_probe_s=statistics.median(setup_samples),
                      units=units, notes=notes)
    if args.trace:
        tracer = Tracer().install()
        try:
            traced, _ = probe.during(one_pass)
        finally:
            tracer.uninstall()
        snapshot = tracer.snapshot()
        snapshot["import_s"] = import_s
        outcome.layers = layer_metrics(snapshot, outcome, traced, processes=1,
                                       figures=[])
    return outcome


# ------------------------------------------------------------------ layers

def layer_metrics(snapshot: Dict[str, object], outcome: Outcome, traced: Unit,
                  processes: int, figures: List[dict]) -> Dict[str, float]:
    """Per-layer metrics from a traced unit's merged tracer snapshot."""
    layers = snapshot["layers"]
    counters = snapshot["counters"]
    dedup = snapshot["dedup"]
    health = snapshot["health"]
    metrics: Dict[str, float] = {"cli.import_s": snapshot["import_s"]}
    for layer, (calls, _, self_s) in layers.items():
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
    metrics["pipeline.simulate.total_s"] = layers["pipeline.simulate"][1]
    jobs = sorted(snapshot["job_ms"])
    deciles = statistics.quantiles(jobs, n=10) if len(jobs) > 1 else jobs * 9
    metrics["pipeline.simulate.job_p50_ms"] = statistics.median(jobs) if jobs else 0.0
    metrics["pipeline.simulate.job_p90_ms"] = deciles[8] if jobs else 0.0
    uops = counters["uops_renamed"]
    metrics["pipeline.host_us_per_uop"] = (
        layers["pipeline.simulate"][1] * 1e6 / uops if uops else 0.0)
    for key in ("planned", "unique", "cache_warm", "executed"):
        metrics[f"orchestrator.{key}"] = dedup.get(key, 0)
    gets = layers["cache.get"][0]
    metrics["cache.hit_rate"] = counters["cache_hits"] / gets if gets else 0.0
    metrics["parallel.wave_s"] = layers["parallel.wave"][1]
    for key in ("attempts", "retries", "pool_rebuilds", "dead_lettered"):
        metrics[f"parallel.{key}"] = health.get(key, 0)
    for key in ("uops_renamed", "rs_issues", "loads_executed", "flushes",
                "stepped_cycles"):
        metrics[f"pipeline.{key}"] = counters[key]
    cycles = counters["stepped_cycles"] + counters["skipped_cycles"]
    metrics["pipeline.skipped_cycle_frac"] = (
        counters["skipped_cycles"] / cycles if cycles else 0.0)
    metrics["core.loads_eliminated"] = counters["loads_eliminated"]
    seen = counters["constable_loads_seen"]
    metrics["core.elimination_coverage"] = (
        counters["loads_eliminated"] / seen if seen else 0.0)
    accesses = counters["l1d_accesses"]
    metrics["memory.l1d_hit_rate"] = (
        counters["l1d_hits"] / accesses if accesses else 0.0)
    metrics["memory.dram_accesses"] = counters["dram_accesses"]
    for label, value in fig11_geomeans(figures).items():
        metrics[f"figures.fig11.{label}"] = value
    metrics["failed_frac"] = outcome.failed / max(1, outcome.attempted)
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - outcome.measured()["wall_s"]
    self_total = sum(self_s for _, _, self_s in layers.values())
    if self_total > traced.wall_s * processes:
        outcome.notes.append(f"traced self times sum to {self_total:.3f} s, more "
                             f"than {processes} x the traced wall {traced.wall_s:.3f} s")
    return metrics


# -------------------------------------------------------------------- main

WORKLOADS = ("sweep_cold", "sweep_warm", "sweep_cold_pool", "core_membound")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets, for the self-tests only")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (timed: cli.import_s of core_membound)
    import_s = time.perf_counter() - start
    work = SCRATCH / str(os.getpid())
    work.mkdir(parents=True)
    if args.workload != "sweep_cold_pool":
        # The serial workloads and the probe share one CPU, so the probe
        # samples the CPU the work runs on, in the time slices between.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        with ProbeServer() as probe:
            if args.workload == "core_membound":
                outcome = membound_workload(args, started, import_s, probe)
            else:
                outcome = sweep_workload(args.workload, args, work, started,
                                         probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    host = host_line(outcome)
    metrics = outcome.end_to_end()
    print(f"workload {args.workload} seed {args.seed}: {len(outcome.units)} "
          f"units, {outcome.attempted} jobs attempted, {outcome.failed} failed")
    print("host " + json.dumps(host, sort_keys=True))
    for note in outcome.notes:
        print(f"CHECK FAILED: {note}")
    failed_frac = outcome.failed / max(1, outcome.attempted)
    measured = outcome.measured()
    for name, unit, _ in MEASURED:
        print(f"  {'measured ' + name:<22} {measured[name]:14.4f} {unit}")
    for name, unit, _ in END_TO_END:
        print(f"  {name:<22} {metrics[name]:14.4f} {unit}")
    print(f"  {'failed_frac':<22} {failed_frac:14.4f} ratio")
    if args.trace:
        outcome.layers["host.calib_s"] = host["calib_s"]
        outcome.layers["host.load_1m"] = (host["load_average"] or [0.0])[0]
        for name, value in measured.items():
            outcome.layers[f"measured.{name}"] = value
        table = {name: unit for name, unit, _ in per_layer_table()}
        reported = {name: {"value": outcome.layers[name], "unit": table[name]}
                    for name in table}
    else:
        reported = {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in END_TO_END}
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
