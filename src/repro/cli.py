"""``repro`` — console entry point for distributed sweeps and cache operations.

Subcommands:

* ``repro cache stats|gc|clear|verify`` — operate on a (possibly shared) cache
  directory: entry counts and bytes by kind, LRU eviction to a cap, full
  clears, and integrity verification (corrupt/stale/orphan detection against
  the current ``SCHEMA_VERSION``; non-zero exit when anything is wrong).
  ``stats`` and ``gc`` also report/compact the tables under
  ``<dir>/.warehouse/``: the columnar results rows and the counters.
* ``repro query`` — aggregate cached results from the columnar warehouse
  (zero object-store decodes when warehouse files exist; falls back to a
  full object-store scan otherwise): filter by family/suite/config/workload,
  ``--metric``/``--agg``/``--group-by`` for geomean/median-style rollups,
  ``--speedup-over baseline`` for cross-sweep speedup tables, ``--json``
  for the machine-readable form.
* ``repro warehouse rebuild|compact|verify`` — regenerate the rows table from
  the object store (lossless migration of pre-warehouse caches), fold every
  table's append-only logs into one segment per table, and check that the
  rows agree with the cache journal (exit 1 when any journaled entry lacks
  a row; ``--strict`` also fails on rows whose entries were evicted).
* ``repro sweep`` — run the paper's configuration sweep as one deduplicated
  wave (plan → filter-by-shard → execute → commit).  ``--shard K/N``
  deterministically restricts execution to shard K of N, so N hosts pointed
  at one cache directory cover the full suite disjointly; an unsharded
  ``repro sweep --merge`` afterwards folds the per-shard cache entries into
  results bit-identical to a serial unsharded run and prints the summary.
  With ``--workers > 1`` every job runs under per-job supervision
  (``--max-retries`` pool attempts with backoff, ``--job-timeout`` wall
  clocks, pool rebuilds, in-process degradation); jobs that exhaust every
  recovery path are *dead-lettered* and the sweep exits with code 3 after
  journaling all completed work to the cache.  ``repro sweep --resume``
  points at that journal and re-executes only the missing jobs.  Ctrl-C
  shuts the pool down, flushes the counters and exits 130.
* ``repro figures <name ...|all>`` — regenerate paper figure harnesses from
  ``repro.experiments.figures``, running every requested figure's plan as one
  deduplicated wave first; warm from a swept cache this performs zero
  simulations and zero inspection passes (enforceable via ``--expect-warm``).
* ``repro lint`` — AST-based invariant checker (``repro.analysis.lint``):
  enforces the determinism, cache-key-purity, schema-manifest, env-registry,
  engine-parity and exception-hygiene contracts statically, before a single
  simulation runs.  ``--json`` for the CI artifact form, ``--rule RLxxx`` to
  select rules, ``--refresh-manifest`` to regenerate the committed
  ``schema_manifest.json`` after a deliberate schema bump.  Exits 1 on any
  finding.
* ``repro bench`` — wall-clock performance harness for the simulator core:
  measures every figure family with the per-cycle reference stepper and the
  event-driven cycle-skipping engine, verifies the two are bit-identical, and
  writes a ``BENCH_<timestamp>.json`` report (``--quick`` for the reduced CI
  budgets).  Exits non-zero if the engines diverge.

Every subcommand resolves its cache directory from ``--cache-dir``, then the
``REPRO_CACHE_DIR`` environment variable, then ``.repro-cache``.  ``sweep``
and ``figures`` print the hit/miss counters of the run they just performed and
flush them to the directory's counters table on exit, so ``repro cache
stats`` reports real aggregate hit rates across every process — including the
other hosts of a ``--shard K/N`` sweep — that shared the directory.  Each
``sweep`` or ``figures`` wave also records its dedup stats there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro.experiments.bench import (
    BENCH_FAMILIES,
    BENCH_REPORTS_DIR,
    BENCH_REPS_ENV,
    DEFAULT_BENCH_REPS,
    ORCHESTRATOR_BENCH_FIGURES,
    format_bench_history,
    format_bench_table,
    load_bench_history,
    run_bench,
    run_orchestrator_bench,
    write_bench_report,
)
from repro.experiments.cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    SCHEMA_VERSION,
    CacheVerifyReport,
    ReportCache,
    ResultCache,
    persist_dedup_stats,
    persisted_cache_stats,
)
from repro.experiments.warehouse import (
    QUERY_AGGREGATES,
    QUERY_METRICS,
    aggregate_rows,
    compact_warehouse,
    filter_rows,
    load_rows,
    rebuild_warehouse,
    speedup_summary,
    verify_warehouse,
    warehouse_present,
    warehouse_stats,
)
from repro.experiments.figures import (
    FIG14_MAX_PAIRS,
    FIGURE_HARNESSES,
    FIGURE_PLANS,
    STANDALONE_HARNESSES,
    SWEEP_FAMILIES,
    default_runner,
    orchestrate_figures,
    sweep_smt_configs,
)
from repro.analysis.lint import all_rules, refresh_manifest, run_lint
from repro.experiments.orchestrator import FigurePlan, SweepOrchestrator
from repro.experiments.parallel import (
    DEFAULT_MAX_RETRIES,
    JOB_TIMEOUT_ENV,
    MAX_RETRIES_ENV,
)
from repro.pipeline.cpu import CORE_ENGINES
from repro.experiments.reporting import (
    format_dead_letters,
    format_dedup_stats,
    format_health_report,
    format_persisted_dedup,
    format_persisted_health,
    format_table,
)
from repro.experiments.runner import ExperimentRunner, Shard, SweepExecutionError
from repro.workloads.suites import SUITE_NAMES

#: Exit code for a sweep that dead-lettered at least one job after exhausting
#: every recovery path (retries, pool rebuilds, in-process fallback).  Distinct
#: from 1 (generic failure) and 2 (usage/validation) so wrappers can branch on
#: "partial results are journaled; rerun with --resume".
EXIT_DEAD_LETTER = 3

#: Exit code on Ctrl-C, following the shell convention of 128 + SIGINT.
EXIT_INTERRUPT = 130


def _resolve_cache_dir(arg: Optional[str]) -> str:
    return arg or os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


def _human_bytes(count: int) -> str:
    if count >= 1024 * 1024:
        return f"{count / (1024 * 1024):.2f} MiB"
    if count >= 1024:
        return f"{count / 1024:.1f} KiB"
    return f"{count} B"


def _add_cache_dir_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None,
        help=f"cache directory (default: ${CACHE_DIR_ENV} or {DEFAULT_CACHE_DIR})")


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    _add_cache_dir_argument(parser)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (>1 uses the parallel runner)")
    parser.add_argument("--per-suite", type=int, default=2,
                        help="workloads per suite (0 = the full suite)")
    parser.add_argument("--instructions", type=int, default=6000,
                        help="trace length in instructions")
    parser.add_argument("--suites", default=None,
                        help="comma-separated suite subset (default: all suites)")
    parser.add_argument("--max-retries", type=int, default=None,
                        help="extra pool attempts per failed job before the "
                             "in-process fallback (parallel runner only; "
                             f"default: ${MAX_RETRIES_ENV} or "
                             f"{DEFAULT_MAX_RETRIES})")
    parser.add_argument("--job-timeout", type=float, default=None,
                        help="per-job wall-clock timeout in seconds (parallel "
                             f"runner only; default: ${JOB_TIMEOUT_ENV} or "
                             "no timeout)")


def _build_runner(args: argparse.Namespace) -> ExperimentRunner:
    suites: Sequence[str] = SUITE_NAMES
    if args.suites:
        suites = [name.strip() for name in args.suites.split(",") if name.strip()]
        unknown = sorted(set(suites) - set(SUITE_NAMES))
        if unknown:
            raise SystemExit(f"unknown suites {unknown}; available: {list(SUITE_NAMES)}")
    per_suite = None if args.per_suite == 0 else args.per_suite
    return default_runner(per_suite=per_suite, instructions=args.instructions,
                          workers=args.workers,
                          cache_dir=_resolve_cache_dir(args.cache_dir),
                          suites=suites,
                          max_retries=args.max_retries,
                          job_timeout=args.job_timeout)


def _print_verify_report(report: CacheVerifyReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return
    print(f"cache directory : {report.directory}")
    print(f"schema version  : {report.schema_version}")
    print(f"entries         : {report.entries} ({_human_bytes(report.total_bytes)})")
    for kind in sorted(report.by_kind):
        print(f"  {kind:<14}: {report.by_kind[kind]}")
    print(f"stale schema    : {len(report.stale_schema)}")
    print(f"corrupt         : {len(report.corrupt)}")
    print(f"key mismatch    : {len(report.key_mismatch)}")
    print(f"orphan temp     : {len(report.orphan_temp)}")
    if report.purged:
        print(f"purged          : {report.purged}")
    for label, paths in (("corrupt", report.corrupt),
                         ("key mismatch", report.key_mismatch),
                         ("orphan temp", report.orphan_temp)):
        for path in paths:
            print(f"  {label}: {path}")


def _expect_warm_violated(simulated: int, inspected: int, wave_stats) -> bool:
    """Report (to stderr) and detect an ``--expect-warm`` violation.

    Checks the harness-side counters *and* the orchestrator's own accounting:
    ``wave_stats.executed`` counts jobs the wave actually simulated, which
    catches cold work even when no cache is attached to count stores, and
    ``cold_jobs`` names the offenders so a mis-warmed sweep is debuggable from
    the CI log alone.
    """
    wave_cold = wave_stats.executed if wave_stats is not None else 0
    if simulated <= 0 and inspected <= 0 and wave_cold <= 0:
        return False
    print(f"--expect-warm violated: {simulated} simulations, {inspected} "
          f"inspection passes and {wave_cold} cold orchestrator jobs executed",
          file=sys.stderr)
    if wave_cold:
        for label in wave_stats.cold_jobs:
            print(f"  cold job: {label}", file=sys.stderr)
    return True


# ------------------------------------------------------------------- commands

def _print_persisted_counters(counters: Dict[str, object]) -> None:
    total = counters["total"]
    lookups = total["hits"] + total["misses"]
    rate = f"{total['hits'] / lookups * 100:.1f}%" if lookups else "n/a"
    print(f"persisted counters ({counters['ledgers']} ledgers, all processes):")
    for cache_name in sorted(counters["by_cache"]):
        bucket = counters["by_cache"][cache_name]
        print(f"  {cache_name:<14}: hits {bucket['hits']} misses {bucket['misses']} "
              f"stores {bucket['stores']} evictions {bucket['evictions']}")
    print(f"  {'total':<14}: hits {total['hits']} misses {total['misses']} "
          f"stores {total['stores']} evictions {total['evictions']} "
          f"(hit rate {rate})")
    dedup = counters.get("dedup") or {}
    if dedup.get("waves"):
        print(format_persisted_dedup(dedup))
    health = counters.get("health") or {}
    if health.get("runs"):
        print(format_persisted_health(health))


def _print_runner_health(runner: ExperimentRunner) -> None:
    """Surface supervision events (retries, timeouts, ...) after a sweep.

    Quiet on a healthy run: the table only appears when something had to be
    recovered, so clean CI logs stay clean.
    """
    if runner.health.healthy:
        return
    print(format_health_report(runner.health))
    if runner.health.dead_letters:
        print(format_dead_letters(runner.health.dead_letters))


def _print_failure_summary(error: SweepExecutionError) -> None:
    """Explain a dead-lettered sweep on stderr, including the resume hint."""
    print("sweep failed: job(s) dead-lettered after exhausting retries and "
          "the in-process fallback", file=sys.stderr)
    print(format_dead_letters(error.dead_letters), file=sys.stderr)
    print(format_health_report(error.health, title="sweep health at failure"),
          file=sys.stderr)
    print("completed jobs are journaled in the cache; rerun with --resume to "
          "execute only the missing ones", file=sys.stderr)


def _print_warehouse_summary(summary: Dict[str, object]) -> None:
    """One ``cache stats`` block describing the columnar warehouse."""
    if not summary["present"]:
        print("warehouse       : absent (queries fall back to the object "
              "store; run `repro warehouse rebuild` to build it)")
        return
    print(f"warehouse       : {summary['rows']} rows in "
          f"{summary['segments']} segment(s) + {summary['row_files']} row "
          f"file(s) ({_human_bytes(summary['total_bytes'])})")
    for kind in sorted(summary["by_kind"]):
        print(f"  {kind:<14}: {summary['by_kind'][kind]} rows")


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(_resolve_cache_dir(args.cache_dir))
    if args.cache_command == "stats":
        # Envelope-only scan: counts and bytes should stay cheap on large
        # directories; `cache verify` is the full-decode integrity pass.
        report = cache.verify(decode_bodies=False)
        counters = persisted_cache_stats(cache.directory)
        # Warehouse summary reads columnar files only — never entry bodies —
        # so stats stays cheap however large the object store is.
        wh_summary = warehouse_stats(cache.directory)
        if args.json:
            payload = report.as_dict()
            payload["persisted_counters"] = counters
            payload["warehouse"] = wh_summary
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            _print_verify_report(report, as_json=False)
            _print_persisted_counters(counters)
            _print_warehouse_summary(wh_summary)
        return 0
    if args.cache_command == "gc":
        max_mb = args.max_mb if args.max_mb is not None else cache.max_mb
        if max_mb is None:
            print("no size cap: pass --max-mb or set REPRO_CACHE_MAX_MB",
                  file=sys.stderr)
            return 2
        if not math.isfinite(max_mb) or max_mb <= 0:
            print(f"--max-mb must be a positive number of megabytes, got {max_mb}",
                  file=sys.stderr)
            return 2
        removed = cache.gc(max_mb=max_mb)
        # Flush the evictions to the counters table so `cache stats` on any
        # host counts manual GC passes, not just runner auto-GC ones — then
        # fold every table's per-process logs so their count stays bounded.
        cache.persist_stats()
        compact_warehouse(cache.directory)
        print(f"evicted {len(removed)} entries; "
              f"{len(cache)} remain ({_human_bytes(cache.total_bytes())})")
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.directory}")
        return 0
    if args.cache_command == "verify":
        report = cache.verify(purge=args.purge)
        _print_verify_report(report, args.json)
        if not report.ok and not args.purge:
            return 1
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def _query_rows(args: argparse.Namespace):
    """Resolve, filter and return warehouse rows for ``repro query``.

    Reads the columnar warehouse when present (zero object-store decodes) and
    falls back to a full object-store scan otherwise, so the command works on
    caches written before the warehouse existed.
    """
    directory = _resolve_cache_dir(args.cache_dir)
    if args.engine is not None and args.engine not in CORE_ENGINES:
        raise SystemExit(f"unknown engine {args.engine!r}; available: "
                         f"{list(CORE_ENGINES)} (note: engines are verified "
                         "bit-identical, so this filter never changes which "
                         "rows are selected)")
    configs = None
    if args.family:
        configs = set(_sweep_families(args.family))
    rows = load_rows(directory, SCHEMA_VERSION)
    return filter_rows(rows, kind=args.kind, suite=args.suite,
                       config=args.config, workload=args.workload,
                       configs=configs)


def _cmd_query(args: argparse.Namespace) -> int:
    """Aggregate cached results from the warehouse (``repro query``)."""
    rows = _query_rows(args)
    if args.speedup_over is not None:
        summary = speedup_summary(rows, baseline=args.speedup_over,
                                  group_by=args.group_by)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        if not summary:
            print(f"no speedups computable against {args.speedup_over!r} "
                  f"({len(rows)} rows selected)")
            return 0
        groups = sorted({group for block in summary.values()
                         for group in block} - {"GEOMEAN"})
        headers = ["config"] + groups + ["GEOMEAN"]
        table_rows = [[config] + [
            f"{block[g]:.6g}" if g in block else "-"
            for g in groups + ["GEOMEAN"]]
            for config, block in sorted(summary.items())]
        print(format_table(headers, table_rows,
                           title=f"speedup over {args.speedup_over}"))
        return 0
    if args.metric is not None:
        values = aggregate_rows(rows, args.metric, agg=args.agg,
                                group_by=args.group_by)
        if args.json:
            print(json.dumps(values, indent=2, sort_keys=True))
            return 0
        label = args.group_by or "group"
        table_rows = [[group, f"{value:.6g}"]
                      for group, value in sorted(values.items())]
        print(format_table([label, f"{args.agg} {args.metric}"], table_rows,
                           title=f"{len(rows)} rows"))
        return 0
    # Default: one overview line per config from the flat rows alone.
    by_config = aggregate_rows(rows, "ipc", agg="count", group_by="config")
    if args.json:
        overview = {
            config: {
                "rows": int(count),
                "geomean_ipc": aggregate_rows(
                    filter_rows(rows, config=config), "ipc")["all"],
                "geomean_coverage": aggregate_rows(
                    filter_rows(rows, config=config), "coverage")["all"],
            } for config, count in sorted(by_config.items())
        }
        print(json.dumps(overview, indent=2, sort_keys=True))
        return 0
    if not rows:
        print("no rows selected (empty cache, or filters matched nothing)")
        return 0
    table_rows = []
    for config, count in sorted(by_config.items()):
        subset = filter_rows(rows, config=config)
        ipc = aggregate_rows(subset, "ipc")["all"]
        cov = aggregate_rows(subset, "coverage")["all"]
        power = aggregate_rows(subset, "power", agg="median")["all"]
        table_rows.append([config, str(int(count)), f"{ipc:.6g}",
                           f"{cov:.6g}", f"{power:.6g}"])
    print(format_table(
        ["config", "rows", "geomean ipc", "geomean coverage", "median power"],
        table_rows, title=f"{len(rows)} rows"))
    return 0


def _cmd_warehouse(args: argparse.Namespace) -> int:
    """Maintain the columnar warehouse: rebuild, compact, verify."""
    directory = _resolve_cache_dir(args.cache_dir)
    if args.warehouse_command == "rebuild":
        try:
            rows, replaced = rebuild_warehouse(directory, SCHEMA_VERSION)
        except OSError as error:
            print(f"rebuild failed: {error}", file=sys.stderr)
            return 1
        print(f"rebuilt warehouse: {rows} rows "
              f"(replaced {replaced} warehouse file(s))")
        return 0
    if args.warehouse_command == "compact":
        removed = compact_warehouse(directory)
        summary = warehouse_stats(directory)
        print(f"compacted: folded {removed} file(s); {summary['rows']} rows "
              f"in {summary['segments']} segment(s)")
        return 0
    if args.warehouse_command == "verify":
        report = verify_warehouse(directory, SCHEMA_VERSION)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(f"journal entries : {report['entries']}")
            print(f"warehouse rows  : {report['rows']}")
            print(f"missing rows    : {len(report['missing'])}")
            print(f"extra rows      : {len(report['extra'])}"
                  + (" (entries evicted; benign)" if report["extra"] else ""))
            for key in report["missing"]:
                print(f"  missing: {key}")
        if report["missing"]:
            return 1
        if args.strict and report["extra"]:
            return 1
        return 0
    raise AssertionError(
        f"unhandled warehouse command {args.warehouse_command!r}")


def _parse_config_subset(raw: Optional[str], available: Dict[str, object],
                         what: str) -> Dict[str, object]:
    if raw is None:
        return dict(available)
    names = [name.strip() for name in raw.split(",") if name.strip()]
    if names == ["none"]:
        return {}
    unknown = [name for name in names if name not in available]
    if unknown:
        raise SystemExit(
            f"unknown {what} {unknown}; available: {sorted(available)}")
    return {name: available[name] for name in names}


def _sweep_families(raw: str) -> Dict[str, object]:
    """Merge the selected sweep families into one name->config dictionary."""
    names = [name.strip() for name in raw.split(",") if name.strip()]
    # Validate before expanding 'all' so a typo next to it still errors.
    unknown = [name for name in names
               if name != "all" and name not in SWEEP_FAMILIES]
    if unknown:
        raise SystemExit(
            f"unknown sweep families {unknown}; available: "
            f"{sorted(SWEEP_FAMILIES)} or 'all'")
    if "all" in names:
        names = list(SWEEP_FAMILIES)
    merged: Dict[str, object] = {}
    for name in names:
        merged.update(SWEEP_FAMILIES[name]())
    return merged


def _cmd_sweep(args: argparse.Namespace) -> int:
    shard = Shard.parse(args.shard) if args.shard else None
    if shard is not None and args.merge:
        raise SystemExit("--merge folds every shard's results; drop --shard")
    if args.resume:
        journal = _resolve_cache_dir(args.cache_dir)
        if not os.path.isdir(journal):
            raise SystemExit(
                f"--resume: cache directory {journal!r} does not exist; an "
                "interrupted sweep leaves its journal there, so there is "
                "nothing to resume from")
    configs = _parse_config_subset(args.configs, _sweep_families(args.families),
                                   "configs")
    smt_configs = _parse_config_subset(args.smt_configs, sweep_smt_configs(),
                                       "SMT configs")
    wave_stats = None
    with _build_runner(args) as runner:
        label = f"shard {shard.index}/{shard.count}" if shard else "full sweep"
        print(f"{label}: {len(runner.specs())} workloads, "
              f"{len(configs)} configs, {len(smt_configs)} SMT configs "
              f"-> cache {runner.cache.directory}")
        if configs or smt_configs:
            # One deduped wave over every outstanding job, single-thread and
            # SMT alike; the loops below read back the committed results.
            plan = FigurePlan("sweep", configs=configs, smt_configs=smt_configs,
                              smt_max_pairs=args.max_pairs)
            wave_stats = SweepOrchestrator(runner).execute([plan], shard=shard)
            persist_dedup_stats(runner.cache.directory, wave_stats.to_dict())
            print(format_dedup_stats(wave_stats, title="orchestrated wave"))
            if args.resume:
                print(f"resume: {wave_stats.cache_warm} job(s) already "
                      f"journaled, {wave_stats.executed} executed")
        for name in configs:
            print(f"  {name}: {len(runner.results(name, shard))} workloads")
        for name in smt_configs:
            pairs = runner.smt_results(name, args.max_pairs, shard)
            print(f"  smt:{name}: {len(pairs)} pairs")
        simulated = runner.cache.stats.stores
        inspected = (runner.report_cache.stats.stores
                     if runner.report_cache is not None else 0)
        print(f"done: {simulated} simulated, {runner.cache.stats.hits} cache hits, "
              f"{inspected} inspection passes")
        _print_runner_health(runner)
        if args.merge and "baseline" in configs:
            rows = [(name, f"{runner.geomean_speedup(name):.4f}")
                    for name in configs if name != "baseline"]
            if rows:
                print(format_table(["config", "geomean speedup"], rows,
                                   title="merged sweep summary"))
    if args.expect_warm and _expect_warm_violated(simulated, inspected,
                                                  wave_stats):
        return 2
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    names: List[str] = []
    for name in args.names:
        if name == "all":
            names.extend(key for key in FIGURE_HARNESSES if key not in names)
        elif name in FIGURE_HARNESSES or name in STANDALONE_HARNESSES:
            if name not in names:
                names.append(name)
        else:
            available = sorted(FIGURE_HARNESSES) + sorted(STANDALONE_HARNESSES)
            raise SystemExit(f"unknown figure {name!r}; available: {available}")
    with _build_runner(args) as runner:
        orchestrated: Dict[str, Dict[str, object]] = {}
        dedup_stats = None
        planned = [name for name in names if name in FIGURE_PLANS]
        if planned:
            # One deduped wave over every requested figure's plan; each
            # harness then finds its own results already committed.
            orchestrated, dedup_stats = orchestrate_figures(runner, planned)
            if runner.cache is not None:
                persist_dedup_stats(runner.cache.directory,
                                    dedup_stats.to_dict())
        for name in names:
            if name in orchestrated:
                result = orchestrated[name]
            else:
                result = STANDALONE_HARNESSES[name]()
            if args.json:
                payload = {key: value for key, value in result.items() if key != "text"}
                print(json.dumps({name: payload}, indent=2, sort_keys=True,
                                 default=str))
            elif isinstance(result.get("text"), str):
                print(result["text"])
            else:
                print(f"{name}: {sorted(result)}")
        if dedup_stats is not None:
            print(format_dedup_stats(dedup_stats, title="orchestrated wave"))
        simulated = runner.cache.stats.stores if runner.cache is not None else 0
        inspected = (runner.report_cache.stats.stores
                     if runner.report_cache is not None else 0)
        hits = runner.cache.stats.hits if runner.cache is not None else 0
        print(f"done: {simulated} simulated, {hits} cache hits, "
              f"{inspected} inspection passes")
        _print_runner_health(runner)
    if args.expect_warm and _expect_warm_violated(simulated, inspected,
                                                  dedup_stats):
        return 2
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the invariant checker; exit 0 clean, 1 on findings, 2 on usage."""
    if args.refresh_manifest:
        path = refresh_manifest(args.root)
        print(f"wrote {path}")
        return 0
    try:
        report = run_lint(args.root, rule_ids=args.rules)
    except ValueError as error:  # unknown --rule name
        print(str(error), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_bench_history(args: argparse.Namespace) -> int:
    entries = load_bench_history(directory=args.dir)
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    if not entries:
        # An empty trajectory is a normal state (fresh clone, wiped
        # bench_reports/), not an error: say so plainly and exit 0 so
        # scripted `repro bench history` probes don't trip on it.
        print(f"no bench reports accumulated yet under {args.dir}; run "
              f"`repro bench --quick` to record the first one")
        return 0
    print(format_bench_history(entries))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if getattr(args, "bench_command", None) == "history":
        return _cmd_bench_history(args)
    engines = [name.strip() for name in args.engines.split(",") if name.strip()]
    families = None
    if args.families:
        families = [name.strip() for name in args.families.split(",")
                    if name.strip()]
    if args.workers is not None and not args.orchestrator:
        print("--workers only applies to the orchestrator measurement; "
              "pass --orchestrator too (engine timings are serial by design)",
              file=sys.stderr)
        return 2
    try:
        payload = run_bench(quick=args.quick, engines=engines, families=families,
                            instructions=args.instructions, reps=args.reps,
                            discard_warmup=not args.keep_warmup)
        if args.orchestrator:
            payload["orchestrator"] = run_orchestrator_bench(
                quick=args.quick, workers=args.workers,
                instructions=args.instructions, reps=args.reps,
                discard_warmup=not args.keep_warmup)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(format_bench_table(payload))
    path = write_bench_report(payload, output=args.output)
    print(f"wrote {path}")
    if not payload["identical"]:
        print("ENGINE DIVERGENCE: at least one workload/config simulated "
              "differently under the cycle and event engines", file=sys.stderr)
        return 1
    orchestrator = payload.get("orchestrator")
    if orchestrator is not None and not orchestrator["identical"]:
        print("ORCHESTRATOR DIVERGENCE: figure payloads from one shared wave "
              "differ from one wave per figure", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed sweep, figure and cache operations for the "
                    "Constable reproduction.")
    commands = parser.add_subparsers(dest="command", required=True)

    cache = commands.add_parser("cache", help="operate on an on-disk cache directory")
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    stats = cache_commands.add_parser("stats", help="entry counts and bytes by kind")
    _add_cache_dir_argument(stats)
    stats.add_argument("--json", action="store_true", help="machine-readable output")
    gc = cache_commands.add_parser("gc", help="evict LRU entries down to a cap")
    _add_cache_dir_argument(gc)
    gc.add_argument("--max-mb", type=float, default=None,
                    help="size cap in megabytes (default: REPRO_CACHE_MAX_MB)")
    clear = cache_commands.add_parser("clear", help="delete every cache entry")
    _add_cache_dir_argument(clear)
    verify = cache_commands.add_parser(
        "verify", help="detect corrupt/stale/orphaned entries (exit 1 if any)")
    _add_cache_dir_argument(verify)
    verify.add_argument("--purge", action="store_true",
                        help="delete every flagged file")
    verify.add_argument("--json", action="store_true", help="machine-readable output")

    query = commands.add_parser(
        "query", help="aggregate cached results from the columnar warehouse "
                      "(object-store fallback when no warehouse exists)")
    _add_cache_dir_argument(query)
    query.add_argument("--kind", choices=["result", "smt"], default=None,
                       help="restrict to single-thread or SMT rows")
    query.add_argument("--family", default=None,
                       help="restrict to a sweep family's configs "
                            f"({', '.join(sorted(SWEEP_FAMILIES))}, "
                            "comma-separable, or 'all')")
    query.add_argument("--suite", default=None,
                       help="restrict to one workload suite "
                            f"({', '.join(SUITE_NAMES)})")
    query.add_argument("--config", default=None,
                       help="restrict to one config label")
    query.add_argument("--workload", default=None,
                       help="restrict to one workload name")
    query.add_argument("--engine", default=None,
                       help="validated for symmetry with sweep filters; rows "
                            "are engine-independent (engines are verified "
                            "bit-identical), so this never changes selection")
    query.add_argument("--metric", choices=list(QUERY_METRICS), default=None,
                       help="aggregate this column instead of the overview")
    query.add_argument("--agg", choices=sorted(QUERY_AGGREGATES),
                       default="geomean",
                       help="aggregation for --metric (default: geomean)")
    query.add_argument("--group-by",
                       choices=["suite", "config", "workload", "kind"],
                       default=None, help="group the aggregate by this column")
    query.add_argument("--speedup-over", default=None, metavar="BASELINE",
                       help="per-config geomean speedup table against this "
                            "baseline config (joined per workload+budget)")
    query.add_argument("--json", action="store_true",
                       help="machine-readable output")

    warehouse = commands.add_parser(
        "warehouse", help="maintain the columnar results warehouse "
                          "(<cache-dir>/.warehouse/)")
    warehouse_commands = warehouse.add_subparsers(dest="warehouse_command",
                                                  required=True)
    rebuild = warehouse_commands.add_parser(
        "rebuild", help="regenerate every warehouse row from the object store "
                        "(lossless migration of pre-warehouse caches)")
    _add_cache_dir_argument(rebuild)
    compact = warehouse_commands.add_parser(
        "compact", help="fold every table's append-only logs into one "
                        "segment per table")
    _add_cache_dir_argument(compact)
    wverify = warehouse_commands.add_parser(
        "verify", help="check warehouse/journal agreement (exit 1 when a "
                       "journaled entry has no warehouse row)")
    _add_cache_dir_argument(wverify)
    wverify.add_argument("--strict", action="store_true",
                         help="also fail on rows whose entries were evicted")
    wverify.add_argument("--json", action="store_true",
                         help="machine-readable output")

    sweep = commands.add_parser(
        "sweep", help="run the configuration sweep (optionally one shard of N)")
    _add_runner_arguments(sweep)
    sweep.add_argument("--shard", default=None, metavar="K/N",
                       help="run only shard K of N (1-based)")
    sweep.add_argument("--families", default="main",
                       help="comma-separated sweep families "
                            f"({', '.join(sorted(SWEEP_FAMILIES))}) or 'all' "
                            "(default: main)")
    sweep.add_argument("--configs", default=None,
                       help="comma-separated single-thread config subset, or 'none'")
    sweep.add_argument("--smt-configs", default=None,
                       help="comma-separated SMT config subset, or 'none'")
    sweep.add_argument("--max-pairs", type=int, default=FIG14_MAX_PAIRS,
                       help="SMT pair budget (default: fig. 14's, "
                            f"{FIG14_MAX_PAIRS})")
    sweep.add_argument("--merge", action="store_true",
                       help="full run that folds shard results and prints a summary")
    sweep.add_argument("--expect-warm", action="store_true",
                       help="exit 2 if anything had to be simulated or inspected")
    sweep.add_argument("--resume", action="store_true",
                       help="resume an interrupted or dead-lettered sweep from "
                            "its cache journal (the cache directory must "
                            "exist); only missing jobs are executed")

    figures = commands.add_parser(
        "figures", help="regenerate paper figure harnesses (warm-from-cache)")
    figures.add_argument("names", nargs="+",
                         help="figure names (fig11, fig14, ...) or 'all'")
    _add_runner_arguments(figures)
    figures.add_argument("--json", action="store_true", help="machine-readable output")
    figures.add_argument("--expect-warm", action="store_true",
                         help="exit 2 if anything had to be simulated or inspected")

    lint = commands.add_parser(
        "lint", help="run the AST-based repo invariant checker "
                     f"(rules: {', '.join(all_rules())})")
    lint.add_argument("--json", action="store_true", help="machine-readable output")
    lint.add_argument("--rule", action="append", dest="rules", default=None,
                      metavar="RLxxx",
                      help="run only this rule (repeatable; default: all)")
    lint.add_argument("--root", default=".",
                      help="repository root to scan (default: the working "
                           "directory)")
    lint.add_argument("--refresh-manifest", action="store_true",
                      help="regenerate src/repro/analysis/lint/"
                           "schema_manifest.json from the current tree "
                           "(required after a deliberate schema bump)")

    bench = commands.add_parser(
        "bench", help="measure simulator wall-clock performance per figure "
                      "family and write a BENCH_<timestamp>.json report")
    bench_commands = bench.add_subparsers(dest="bench_command")
    history = bench_commands.add_parser(
        "history", help="render the perf trajectory across every accumulated "
                        "BENCH_*.json report")
    history.add_argument("--dir", default=BENCH_REPORTS_DIR,
                         help=f"report directory (default: {BENCH_REPORTS_DIR})")
    history.add_argument("--json", action="store_true",
                         help="machine-readable output")
    bench.add_argument("--quick", action="store_true",
                       help="reduced instruction budgets (CI perf-smoke mode)")
    bench.add_argument("--reps", type=int, default=None,
                       help="repetitions per measurement; median-of-N walls "
                            f"(default: ${BENCH_REPS_ENV} or "
                            f"{DEFAULT_BENCH_REPS})")
    bench.add_argument("--keep-warmup", action="store_true",
                       help="include the first (warm-up) repetition in the "
                            "statistics instead of discarding it")
    bench.add_argument("--families", default=None,
                       help="comma-separated family subset "
                            f"(default: all of {', '.join(BENCH_FAMILIES)})")
    bench.add_argument("--engines", default="cycle,event",
                       help="comma-separated engines to measure "
                            f"(available: {', '.join(CORE_ENGINES)})")
    bench.add_argument("--instructions", type=int, default=None,
                       help="override the per-family instruction budgets")
    bench.add_argument("--orchestrator", action="store_true",
                       help="also measure one wave over every figure against "
                            "one wave per figure (figures: "
                            f"{', '.join(ORCHESTRATOR_BENCH_FIGURES)})")
    bench.add_argument("--workers", type=int, default=None,
                       help="worker processes for the orchestrator measurement "
                            "(default: the parallel runner's default)")
    bench.add_argument("--output", default=None,
                       help="report path (default: BENCH_<timestamp>.json in "
                            "bench_reports/)")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "warehouse":
        return _cmd_warehouse(args)
    if args.command == "sweep":
        try:
            return _cmd_sweep(args)
        except ValueError as error:  # e.g. malformed --shard or --job-timeout
            print(str(error), file=sys.stderr)
            return 2
    if args.command == "figures":
        try:
            return _cmd_figures(args)
        except ValueError as error:  # e.g. invalid --max-retries
            print(str(error), file=sys.stderr)
            return 2
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "bench":
        return _cmd_bench(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: parse ``argv``, dispatch, return the exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except KeyboardInterrupt:
        # The `with runner` blocks unwound on the way here: pools are shut
        # down and the counter ledgers flushed, so the journal is consistent.
        print("interrupted: pool shut down, counter ledgers flushed; rerun "
              "with --resume to pick the sweep back up", file=sys.stderr)
        return EXIT_INTERRUPT
    except SweepExecutionError as error:
        _print_failure_summary(error)
        return EXIT_DEAD_LETTER


if __name__ == "__main__":
    raise SystemExit(main())
