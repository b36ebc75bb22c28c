"""``repro`` — console entry point for distributed sweeps and cache operations.

Subcommands:

* ``repro cache stats|gc|clear|verify`` — operate on a (possibly shared) cache
  directory: entry counts and bytes by kind, LRU eviction to a cap, full
  clears, and integrity verification (corrupt/stale/orphan detection against
  the current ``SCHEMA_VERSION``; non-zero exit when anything is wrong).
  ``stats`` also reports the append-only tables under
  ``<dir>/.warehouse/``: the results rows and the counters.
* ``repro query`` — aggregate cached results from the warehouse's
  rows table (zero object-store decodes; rows of the current
  ``SCHEMA_VERSION`` only): filter by kind/suite/config/workload,
  ``--metric``/``--agg``/``--group-by`` for geomean/median-style rollups,
  ``--speedup-over baseline`` for cross-sweep speedup tables, ``--json``
  for the machine-readable form.
* ``repro warehouse rebuild|verify`` — append the row of every journaled
  entry that has none, re-derived from the object store (the repair for
  lost or deleted rows), and check that the rows agree with the cache
  journal (exit 1 when any journaled entry lacks a row; ``--strict`` also
  fails on rows whose entries were evicted).
* ``repro figures <name ...|all>`` — regenerate paper figure harnesses from
  ``repro.experiments.figures``, running every requested figure's plan as one
  deduplicated wave first (plan → execute → commit); warm from a filled
  cache this performs zero simulations and zero inspection passes
  (enforceable via ``--expect-warm``).  ``--shard K/N`` deterministically
  restricts the wave to shard K of N and renders no figure, so N hosts
  pointed at one cache directory cover the wave disjointly; an unsharded
  run over the same directory afterwards folds the per-shard cache entries
  into results bit-identical to a serial unsharded run.  A job that fails,
  or was in flight in a worker that died, is *dead-lettered* at once and
  never retried (the simulator is deterministic); the rest of the wave
  still runs, and the command exits with code 3 after journaling all
  completed work to the cache, so rerunning the same command executes only
  the missing jobs.  Ctrl-C shuts the pool down, flushes the counters and
  exits 130.
* ``repro lint`` — AST-based invariant checker (``repro.analysis.lint``):
  enforces the determinism, cache-key-purity, schema-manifest, env-registry,
  engine-parity and exception-hygiene contracts statically, before a single
  simulation runs.  ``--json`` for the CI artifact form, ``--rule RLxxx`` to
  select rules, ``--refresh-manifest`` to regenerate the committed
  ``schema_manifest.json`` after a deliberate schema bump.  Exits 1 on any
  finding.
* ``repro bench`` — the engine check: runs four figure families under the
  per-cycle reference stepper and the event-driven cycle-skipping engine,
  verifies the two are bit-identical (exit 1 otherwise) and prints per-family
  speedups and skipped-cycle fractions (``--quick`` for the reduced CI
  budgets, ``--output`` to also write the JSON payload).  How fast the
  simulator runs end to end is measured by ``perfbench/``, not here.

Every subcommand resolves its cache directory from ``--cache-dir``, then the
``REPRO_CACHE_DIR`` environment variable (when set and non-empty), then
``.repro-cache``.  ``figures`` prints the hit/miss counters of the run it just
performed and flushes them to the directory's counters table on exit, so
``repro cache stats`` reports real aggregate hit rates across every process —
including the other hosts of a ``--shard K/N`` wave — that shared the
directory.  Each ``figures`` wave also records its dedup stats there.

Every subcommand exits 141 (128 + SIGPIPE), without a traceback, when the
reader of its standard output exits before reading it all, as ``| head``
does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.experiments.cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    SCHEMA_VERSION,
    CacheVerifyReport,
    ResultCache,
    persist_dedup_stats,
    persisted_cache_stats,
    resolve_cache_dir,
)
from repro.experiments.warehouse import (
    QUERY_AGGREGATES,
    QUERY_METRICS,
    aggregate_rows,
    filter_rows,
    load_rows,
    rebuild_warehouse,
    speedup_summary,
    verify_warehouse,
    warehouse_stats,
)
from repro.experiments.figures import (
    FIGURE_HARNESSES,
    FIGURE_PLANS,
    STANDALONE_HARNESSES,
    default_runner,
    orchestrate_figures,
)
from repro.experiments.orchestrator import SweepOrchestrator
from repro.experiments.reporting import (
    format_dead_letters,
    format_dedup_stats,
    format_persisted_dedup,
    format_persisted_health,
    format_table,
)
from repro.experiments.runner import ExperimentRunner, Shard, SweepExecutionError
from repro.workloads.suites import SUITE_NAMES

#: Exit code for a wave that dead-lettered at least one job.  Distinct from 1
#: (generic failure) and 2 (usage/validation) so wrappers can branch on
#: "partial results are journaled; rerun the same command".
EXIT_DEAD_LETTER = 3

#: Exit code on Ctrl-C, following the shell convention of 128 + SIGINT.
EXIT_INTERRUPT = 130

#: Exit code when the reader of stdout exits early (``repro query | head``),
#: following the shell convention of 128 + SIGPIPE.
EXIT_BROKEN_PIPE = 141


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
                          cache_dir=resolve_cache_dir(args.cache_dir),
                          suites=suites)


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


def _print_failure_summary(error: SweepExecutionError) -> None:
    """Explain a dead-lettered wave on stderr, including the rerun hint."""
    print(f"sweep failed: {len(error.dead_letters)} job(s) dead-lettered",
          file=sys.stderr)
    print(format_dead_letters(error.dead_letters), file=sys.stderr)
    print("completed jobs are journaled in the cache; rerun the same command "
          "to execute only the missing ones", file=sys.stderr)


def _print_warehouse_summary(summary: Dict[str, object]) -> None:
    """One ``cache stats`` block describing the warehouse's rows table."""
    print(f"warehouse       : {summary['rows']} rows in "
          f"{summary['row_files']} row file(s) "
          f"({_human_bytes(summary['total_bytes'])})")
    for kind in sorted(summary["by_kind"]):
        print(f"  {kind:<14}: {summary['by_kind'][kind]} rows")


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(resolve_cache_dir(args.cache_dir))
    if args.cache_command == "stats":
        # Envelope-only scan: counts and bytes should stay cheap on large
        # directories; `cache verify` is the full-decode integrity pass.
        report = cache.verify(decode_bodies=False)
        counters = persisted_cache_stats(cache.directory)
        # Warehouse summary reads the rows table only — never entry bodies —
        # so stats stays cheap however large the object store is.
        wh_summary = warehouse_stats(cache.directory, SCHEMA_VERSION)
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
        # host counts manual GC passes, not just runner auto-GC ones.
        cache.persist_stats()
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
    """Resolve, filter and return warehouse rows for ``repro query``."""
    rows = load_rows(resolve_cache_dir(args.cache_dir), SCHEMA_VERSION)
    return filter_rows(rows, kind=args.kind, suite=args.suite,
                       config=args.config, workload=args.workload)


def _cmd_query(args: argparse.Namespace) -> int:
    """Aggregate cached results from the warehouse (``repro query``)."""
    rows = _query_rows(args)
    if args.speedup_over is not None:
        # Without --kind, single-thread rows alone: SMT2 pair speedups never
        # share a geomean with single-thread ones.
        summary = speedup_summary(filter_rows(rows, kind=args.kind or "result"),
                                  baseline=args.speedup_over,
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
                "mean_coverage": aggregate_rows(
                    filter_rows(rows, config=config), "coverage",
                    agg="mean")["all"],
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
        cov = aggregate_rows(subset, "coverage", agg="mean")["all"]
        power = aggregate_rows(subset, "power", agg="median")["all"]
        table_rows.append([config, str(int(count)), f"{ipc:.6g}",
                           f"{cov:.6g}", f"{power:.6g}"])
    print(format_table(
        ["config", "rows", "geomean ipc", "mean coverage", "median power"],
        table_rows, title=f"{len(rows)} rows"))
    return 0


def _cmd_warehouse(args: argparse.Namespace) -> int:
    """Maintain the warehouse's rows table: rebuild, verify."""
    directory = resolve_cache_dir(args.cache_dir)
    if args.warehouse_command == "rebuild":
        try:
            appended = rebuild_warehouse(directory, SCHEMA_VERSION)
        except OSError as error:
            print(f"rebuild failed: {error}", file=sys.stderr)
            return 1
        print(f"rebuilt warehouse: appended {appended} missing row(s)")
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
    shard = Shard.parse(args.shard) if args.shard else None
    with _build_runner(args) as runner:
        orchestrated: Dict[str, Dict[str, object]] = {}
        dedup_stats = None
        planned = [name for name in names if name in FIGURE_PLANS]
        try:
            if shard is not None:
                # A shard only executes and journals its slice of the wave
                # and renders nothing; an unsharded run then folds every
                # shard warm.
                names = []
                if planned:
                    dedup_stats = SweepOrchestrator(runner).execute(
                        [FIGURE_PLANS[name]() for name in planned], shard=shard)
            elif planned:
                # One deduped wave over every requested figure's plan; each
                # harness then finds its own results already committed.
                orchestrated, dedup_stats = orchestrate_figures(runner, planned)
        except SweepExecutionError as error:
            dedup_stats = error.stats  # a failed wave is recorded too
            raise
        finally:
            if dedup_stats is not None and runner.cache is not None:
                persist_dedup_stats(runner.cache.directory,
                                    dedup_stats.to_dict())
        for name in names:
            if name in orchestrated:
                result = orchestrated[name]
            else:
                result = STANDALONE_HARNESSES[name](runner)
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
    if args.expect_warm and _expect_warm_violated(simulated, inspected,
                                                  dedup_stats):
        return 2
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the invariant checker; exit 0 clean, 1 on findings, 2 on usage."""
    from repro.analysis.lint import refresh_manifest, run_lint

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


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench import (DEFAULT_BENCH_REPS,
                                         format_bench_table, run_bench)

    families = None
    if args.families:
        families = [name.strip() for name in args.families.split(",")
                    if name.strip()]
    reps = DEFAULT_BENCH_REPS if args.reps is None else args.reps
    try:
        payload = run_bench(quick=args.quick, families=families,
                            instructions=args.instructions, reps=reps)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(format_bench_table(payload))
    if args.output is not None:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
    if not payload["identical"]:
        print("ENGINE DIVERGENCE: at least one workload/config simulated "
              "differently under the cycle and event engines", file=sys.stderr)
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
        "query", help="aggregate cached results from the warehouse rows")
    _add_cache_dir_argument(query)
    query.add_argument("--kind", choices=["result", "smt"], default=None,
                       help="restrict to single-thread or SMT rows")
    query.add_argument("--suite", default=None,
                       help="restrict to one workload suite "
                            f"({', '.join(SUITE_NAMES)})")
    query.add_argument("--config", default=None,
                       help="restrict to one config label")
    query.add_argument("--workload", default=None,
                       help="restrict to one workload name")
    query.add_argument("--metric", choices=list(QUERY_METRICS), default=None,
                       help="aggregate this column instead of the overview")
    query.add_argument("--agg", choices=sorted(QUERY_AGGREGATES),
                       default="geomean",
                       help="aggregation for --metric (default: geomean)")
    query.add_argument("--group-by",
                       choices=["suite", "config", "workload", "kind"],
                       default=None, help="group the aggregate (or the "
                                          "--speedup-over table) by this column")
    query.add_argument("--speedup-over", default=None, metavar="BASELINE",
                       help="per-config geomean speedup table against this "
                            "baseline config (joined per kind+workload+"
                            "budget; single-thread rows unless --kind)")
    query.add_argument("--json", action="store_true",
                       help="machine-readable output")

    warehouse = commands.add_parser(
        "warehouse", help="maintain the results rows table "
                          "(<cache-dir>/.warehouse/)")
    warehouse_commands = warehouse.add_subparsers(dest="warehouse_command",
                                                  required=True)
    rebuild = warehouse_commands.add_parser(
        "rebuild", help="append the row of every journaled entry that has "
                        "none, from the object store (repair)")
    _add_cache_dir_argument(rebuild)
    wverify = warehouse_commands.add_parser(
        "verify", help="check warehouse/journal agreement (exit 1 when a "
                       "journaled entry has no warehouse row)")
    _add_cache_dir_argument(wverify)
    wverify.add_argument("--strict", action="store_true",
                         help="also fail on rows whose entries were evicted")
    wverify.add_argument("--json", action="store_true",
                         help="machine-readable output")

    figures = commands.add_parser(
        "figures", help="regenerate paper figure harnesses (warm-from-cache)")
    figures.add_argument("names", nargs="+",
                         help="figure names (fig11, fig14, ...) or 'all'")
    _add_runner_arguments(figures)
    figures.add_argument("--shard", default=None, metavar="K/N",
                         help="execute only shard K of N (1-based) of the "
                              "wave and render no figure; an unsharded run "
                              "folds the shards")
    figures.add_argument("--json", action="store_true", help="machine-readable output")
    figures.add_argument("--expect-warm", action="store_true",
                         help="exit 2 if anything had to be simulated or inspected")

    lint = commands.add_parser(
        "lint", help="run the AST-based repo invariant checker")
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
        "bench", help="run every bench family under both engines, check they "
                      "are bit-identical and report the event-engine speedup")
    bench.add_argument("--quick", action="store_true",
                       help="reduced instruction budgets (CI perf-smoke mode)")
    bench.add_argument("--reps", type=int, default=None,
                       help="repetitions per measurement; the first is a "
                            "warm-up when there are several (default: "
                            "repro.experiments.bench.DEFAULT_BENCH_REPS)")
    bench.add_argument("--families", default=None,
                       help="comma-separated family subset (default: all "
                            "families)")
    bench.add_argument("--instructions", type=int, default=None,
                       help="override the per-family instruction budgets")
    bench.add_argument("--output", default=None,
                       help="also write the JSON payload to this path "
                            "(default: no file)")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "warehouse":
        return _cmd_warehouse(args)
    if args.command == "figures":
        try:
            return _cmd_figures(args)
        except ValueError as error:  # e.g. malformed --shard or --workers 0
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
        status = _dispatch(args)
        # Flushed here so that a block-buffered pipe fails inside this
        # handler, not in the interpreter's exit-time flush.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader went away; whatever is still buffered goes to devnull
        # so the exit-time flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        # The `with runner` blocks unwound on the way here: pools are shut
        # down and the counter ledgers flushed, so the journal is consistent.
        print("interrupted: pool shut down, counter ledgers flushed; rerun "
              "the same command to pick the wave back up", file=sys.stderr)
        return EXIT_INTERRUPT
    except SweepExecutionError as error:
        _print_failure_summary(error)
        return EXIT_DEAD_LETTER


if __name__ == "__main__":
    raise SystemExit(main())
