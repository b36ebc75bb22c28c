"""Tests for the ``repro`` console entry point and the shard-aware sweep pipeline.

Covers the cache subcommands (stats/gc/clear/verify round-trip, corrupt- and
orphan-entry detection), shard parsing and partition invariants, the headline
distribution guarantee — ``sweep --shard 1/2`` + ``--shard 2/2`` into one
cache directory merge to results bit-identical to a serial unsharded run with
zero re-simulation — and the warm-figures contract behind ``--expect-warm``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.cache import ReportCache, ResultCache
from repro.experiments.configs import baseline_config, constable_config
from repro.experiments.runner import ExperimentRunner, Shard
from repro.pipeline.cpu import OutOfOrderCore

SUITES = ("Client", "Server")
INSTRUCTIONS = 800


def _runner_args(cache_dir) -> list:
    return ["--cache-dir", str(cache_dir), "--per-suite", "1",
            "--instructions", str(INSTRUCTIONS), "--suites", ",".join(SUITES)]


def _make_runner(cache_dir=None) -> ExperimentRunner:
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                            suites=SUITES, cache=cache)


@pytest.fixture()
def simulation_counter(monkeypatch):
    calls = {"count": 0}
    original = OutOfOrderCore.run

    def counted(self):
        calls["count"] += 1
        return original(self)

    monkeypatch.setattr(OutOfOrderCore, "run", counted)
    return calls


# -------------------------------------------------------------------- sharding

def test_shard_parse_round_trip():
    shard = Shard.parse("2/3")
    assert (shard.index, shard.count) == (2, 3)


@pytest.mark.parametrize("text", ["", "3", "0/2", "3/2", "a/b", "1/0", "-1/2", "1/2/3"])
def test_shard_parse_rejects_malformed_specs(text):
    with pytest.raises(ValueError):
        Shard.parse(text)


@pytest.mark.parametrize("count", [1, 2, 3, 5, 9])
def test_shard_select_partitions_disjointly(count):
    items = [f"wl{i:02d}" for i in range(7)]
    slices = [Shard(index=k, count=count).select(items) for k in range(1, count + 1)]
    flattened = [item for part in slices for item in part]
    assert sorted(flattened) == sorted(items), "shards must union to the full set"
    assert len(flattened) == len(set(flattened)), "shards must be disjoint"


def test_shard_selection_ignores_residual_plan_state(simulation_counter, tmp_path):
    """Membership depends on the canonical workload list, not on what a host's
    cache already holds — otherwise two hosts could double- or zero-cover a
    workload once their warm states diverge."""
    warm = _make_runner(tmp_path)
    shard_one = set(warm.run_config("baseline", baseline_config(),
                                    shard=Shard(1, 2)))
    # A second sharded call on the same runner plans a residual (empty) job
    # list; the returned coverage must still be exactly shard one's workloads.
    again = set(warm.run_config("baseline", baseline_config(), shard=Shard(1, 2)))
    assert again == shard_one
    shard_two = set(warm.run_config("baseline", baseline_config(),
                                    shard=Shard(2, 2)))
    assert shard_one | shard_two == set(warm.workloads())
    assert not shard_one & shard_two


# ------------------------------------------------------- sweep: merge identity

def test_sharded_sweep_union_is_bit_identical_to_serial(tmp_path, simulation_counter):
    sweep_args = _runner_args(tmp_path) + ["--configs", "baseline,constable",
                                           "--smt-configs", "baseline",
                                           "--max-pairs", "1"]
    assert main(["sweep", "--shard", "1/2"] + sweep_args) == 0
    assert main(["sweep", "--shard", "2/2"] + sweep_args) == 0
    sharded_sims = simulation_counter["count"]
    assert sharded_sims == 2 * 2 + 1  # two configs x two workloads + one SMT pair

    # Folding the shards: a warm unsharded runner must simulate nothing and
    # reproduce the serial no-cache reference bit-for-bit.
    merged = _make_runner(tmp_path)
    merged_results = {name: merged.run_config(name, config)
                      for name, config in (("baseline", baseline_config()),
                                           ("constable", constable_config()))}
    merged_smt = merged.run_smt_config("baseline", baseline_config(), max_pairs=1)
    assert simulation_counter["count"] == sharded_sims, \
        "merging shard results must not re-simulate"

    reference = _make_runner()
    for name, results in merged_results.items():
        config = baseline_config() if name == "baseline" else constable_config()
        assert reference.run_config(name, config) == results
    assert reference.run_smt_config("baseline", baseline_config(), max_pairs=1) \
        == merged_smt


def test_sweep_rejects_malformed_shard(tmp_path, capsys):
    args = _runner_args(tmp_path) + ["--configs", "none", "--smt-configs", "none"]
    assert main(["sweep", "--shard", "3/2"] + args) == 2
    assert "shard" in capsys.readouterr().err


def test_sweep_rejects_unknown_config(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--configs", "no-such-config"] + _runner_args(tmp_path))


def test_sweep_merge_with_shard_is_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--merge", "--shard", "1/2"] + _runner_args(tmp_path))


# ----------------------------------------------------------- cache subcommands

def test_cache_stats_gc_clear_round_trip(tmp_path, capsys):
    assert main(["sweep", "--configs", "baseline", "--smt-configs", "none"]
                + _runner_args(tmp_path)) == 0
    capsys.readouterr()

    assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == len(SUITES) * 2  # one result + one report each
    assert stats["by_kind"] == {"result": 2, "report": 2}
    assert stats["total_bytes"] > 0

    cache = ResultCache(tmp_path)
    cap_mb = (cache.total_bytes() - 1) / (1024 * 1024)
    assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                 "--max-mb", str(cap_mb)]) == 0
    assert "evicted 1" in capsys.readouterr().out
    assert len(cache) == len(SUITES) * 2 - 1

    assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 2, \
        "gc without any cap configured is a usage error"
    assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                 "--max-mb", "-1"]) == 2, \
        "a non-positive cap is a usage error, not a traceback"
    assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                 "--max-mb", "nan"]) == 2
    capsys.readouterr()

    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    assert len(cache) == 0


def test_cache_verify_flags_corrupt_and_orphan_entries(tmp_path, capsys):
    assert main(["sweep", "--configs", "baseline", "--smt-configs", "none"]
                + _runner_args(tmp_path)) == 0
    capsys.readouterr()
    assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0

    cache = ResultCache(tmp_path)
    corrupt = next(cache.directory.glob("*/*.json"))
    corrupt.write_text("{not json", encoding="utf-8")
    orphan = cache.directory / "ab"
    orphan.mkdir(exist_ok=True)
    orphan_tmp = orphan / ".deadbeef.tmp"
    orphan_tmp.write_text("partial", encoding="utf-8")
    capsys.readouterr()

    # A fresh temp file belongs to a (possibly live) writer mid-store: it must
    # not be flagged, and therefore must never be purged out from under it.
    assert main(["cache", "verify", "--cache-dir", str(tmp_path), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["corrupt"] == [str(corrupt)]
    assert report["orphan_temp"] == []

    aged = ResultCache.ORPHAN_TEMP_AGE_SECONDS + 60
    os.utime(orphan_tmp, (orphan_tmp.stat().st_mtime - aged,) * 2)
    assert main(["cache", "verify", "--cache-dir", str(tmp_path), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["orphan_temp"] == [str(orphan_tmp)]

    assert main(["cache", "verify", "--cache-dir", str(tmp_path), "--purge"]) == 0
    assert not corrupt.exists() and not orphan_tmp.exists()
    capsys.readouterr()
    assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0


def test_cache_verify_flags_stale_schema_without_failing(tmp_path, capsys):
    assert main(["sweep", "--configs", "baseline", "--smt-configs", "none"]
                + _runner_args(tmp_path)) == 0
    entry = next(ResultCache(tmp_path).directory.glob("*/*.json"))
    payload = json.loads(entry.read_text(encoding="utf-8"))
    payload["schema"] = -1
    entry.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["cache", "verify", "--cache-dir", str(tmp_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stale_schema"] == [str(entry)]


# --------------------------------------------------- persisted hit/miss ledger

def test_cache_stats_reports_cross_run_hit_rates(tmp_path, capsys):
    """Counters from separate sweep runs accumulate in the directory ledger."""
    sweep = ["sweep", "--configs", "baseline", "--smt-configs", "none"] \
        + _runner_args(tmp_path)
    assert main(sweep) == 0          # cold: stores, no hits
    assert main(sweep) == 0          # warm: pure hits
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    counters = stats["persisted_counters"]
    assert counters["ledgers"] >= 2, "each run must flush its own ledger"
    assert counters["total"]["stores"] == len(SUITES) * 2
    assert counters["total"]["hits"] >= len(SUITES) * 2, \
        "the warm rerun's hits must be visible to a later process"
    # Orchestrated sweeps also stream their wave's dedup stats in, and the
    # supervisor flushes its health counters alongside them.
    assert set(counters["by_cache"]) == {"ResultCache", "ReportCache",
                                         "SweepOrchestrator", "SweepSupervisor"}
    assert counters["dedup"]["waves"] == 2
    # Only the cold run supervised jobs; the warm rerun's delta is all-zero
    # and deliberately not flushed.
    assert counters["health"]["runs"] == 1
    assert counters["health"]["jobs"] > 0

    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    assert "hit rate" in capsys.readouterr().out


def test_cache_gc_compacts_ledgers_losslessly(tmp_path, capsys):
    """`cache gc` folds per-run ledger files without changing the aggregate."""
    from repro.experiments.cache import persisted_cache_stats

    sweep = ["sweep", "--configs", "baseline", "--smt-configs", "none"] \
        + _runner_args(tmp_path)
    assert main(sweep) == 0
    assert main(sweep) == 0
    before = persisted_cache_stats(tmp_path)
    assert before["ledgers"] >= 4  # two runs x (result + report cache)
    assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                 "--max-mb", "1024"]) == 0
    capsys.readouterr()
    after = persisted_cache_stats(tmp_path)
    assert after["total"] == before["total"], "compaction must not change sums"
    assert after["by_cache"] == before["by_cache"]
    assert after["ledgers"] == len(after["by_cache"]), \
        "ledger count must collapse to one record per cache class"


def test_bench_rejects_non_positive_instruction_budget():
    from repro.experiments.bench import run_bench
    for bad in (0, -5):
        with pytest.raises(ValueError):
            run_bench(families=["sensitivity"], instructions=bad)


def test_sweep_families_all_with_typo_is_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--families", "all,sensitivty"] + _runner_args(tmp_path))


def test_persist_stats_flushes_deltas_exactly_once(tmp_path):
    cache = ResultCache(tmp_path)
    from repro.experiments.warehouse import COUNTERS_TABLE

    assert cache.persist_stats() is None, "no counters -> no ledger record"
    cache.get("0" * 64)  # a miss
    first = cache.persist_stats()
    assert first is not None and first.name.endswith(COUNTERS_TABLE.log_suffix)
    assert cache.persist_stats() is None, "same counters -> nothing to flush"
    cache.get("1" * 64)
    assert cache.persist_stats() is not None
    from repro.experiments.cache import persisted_cache_stats
    assert persisted_cache_stats(tmp_path)["total"]["misses"] == 2
    assert len(cache) == 0, "counter logs must be invisible to entry scans"
    cache.clear()
    assert persisted_cache_stats(tmp_path)["total"] == {
        "hits": 0, "misses": 0, "stores": 0, "evictions": 0}


def test_dedup_ledger_aggregates_and_survives_compaction(tmp_path):
    """Orchestrated waves stream dedup stats into the ledger; aggregation sums
    them across waves (and hosts) and compaction folds them losslessly."""
    from repro.experiments.cache import (
        DEDUP_LEDGER_CLASS,
        persist_dedup_stats,
        persisted_cache_stats,
    )
    from repro.experiments.warehouse import compact_warehouse

    assert persisted_cache_stats(tmp_path)["dedup"]["waves"] == 0
    persist_dedup_stats(tmp_path, {"planned": 10, "unique": 7,
                                   "cache_warm": 3, "executed": 4})
    persist_dedup_stats(tmp_path, {"planned": 10, "unique": 7,
                                   "cache_warm": 7, "executed": 0})
    summary = persisted_cache_stats(tmp_path)
    assert summary["dedup"] == {"waves": 2, "planned": 20, "unique": 14,
                                "deduped": 6, "cache_warm": 10, "executed": 4}
    assert DEDUP_LEDGER_CLASS in summary["by_cache"]
    assert summary["by_cache"][DEDUP_LEDGER_CLASS]["stores"] == 0, \
        "dedup-only ledgers carry zero cache counters for old readers"
    assert compact_warehouse(tmp_path) == 2
    after = persisted_cache_stats(tmp_path)
    assert after["dedup"] == summary["dedup"], \
        "compaction must not change the dedup sums (waves included)"
    assert after["ledgers"] == 1
    # Another wave after compaction keeps accumulating.
    persist_dedup_stats(tmp_path, {"planned": 4, "unique": 4,
                                   "cache_warm": 0, "executed": 4})
    assert persisted_cache_stats(tmp_path)["dedup"]["waves"] == 3


def test_orchestrated_sweep_streams_dedup_into_cache_stats(tmp_path, capsys):
    """An orchestrated `repro sweep` leaves its wave's dedup rates readable
    by a later `repro cache stats` process — the cross-host observability
    contract the CI sharded smoke relies on."""
    assert main(["sweep", "--families", "main", "--smt-configs", "none"]
                + _runner_args(tmp_path)) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    dedup = stats["persisted_counters"]["dedup"]
    assert dedup["waves"] == 1
    assert dedup["planned"] >= dedup["unique"] > 0
    assert dedup["executed"] > 0, "a cold sweep's wave executes its jobs"
    # The human-readable rendering surfaces the same block.
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "orchestrated waves" in out and "dedup rate" in out


# ---------------------------------------------------------- sensitivity sweeps

def test_sweep_sensitivity_family_warms_fig13_and_fig20(tmp_path, simulation_counter):
    """The fig. 13/20 config families are sweepable: a sensitivity sweep into a
    cache directory lets both sensitivity figures regenerate simulation-free."""
    assert main(["sweep", "--families", "sensitivity", "--smt-configs", "none"]
                + _runner_args(tmp_path)) == 0
    swept = simulation_counter["count"]
    assert swept > 0
    for figure in ("fig13", "fig20"):
        assert main(["figures", figure] + _runner_args(tmp_path)
                    + ["--expect-warm"]) == 0, figure
    assert simulation_counter["count"] == swept, \
        "warm sensitivity figures must not simulate"


def test_sweep_rejects_unknown_family(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--families", "nope"] + _runner_args(tmp_path))


# ----------------------------------------------------------------------- bench

def test_bench_cli_writes_report(tmp_path, capsys):
    output = tmp_path / "bench.json"
    assert main(["bench", "--quick", "--families", "sensitivity", "--reps", "2",
                 "--instructions", "400", "--output", str(output)]) == 0
    out = capsys.readouterr().out
    assert "repro bench" in out and str(output) in out
    payload = json.loads(output.read_text(encoding="utf-8"))
    from repro.experiments.bench import BENCH_SCHEMA_VERSION
    assert payload["schema"] == BENCH_SCHEMA_VERSION
    assert payload["identical"] is True
    assert payload["engines"] == ["cycle", "event"]
    assert payload["reps"] == 2 and payload["warmup_discarded"] is True
    assert payload["host"]["cpu_count"] == os.cpu_count()
    family = payload["families"]["sensitivity"]
    assert family["speedup"] > 0
    assert all(job["identical"] for job in family["jobs"])
    for engine in family["totals"].values():
        assert len(engine["wall_samples"]) == 2
        # Warm-up discarded: the summary is the median of the single
        # remaining sample.
        assert engine["wall_seconds"] == engine["wall_samples"][1]
    assert "orchestrator" not in payload, "only --orchestrator adds the section"


def test_bench_reps_distribution_statistics():
    from repro.analysis.stats_utils import median, median_abs_deviation
    from repro.experiments.bench import run_bench

    payload = run_bench(quick=True, families=["sensitivity"],
                        instructions=300, reps=3)
    job = payload["families"]["sensitivity"]["jobs"][0]
    for engine in job["engines"].values():
        samples = engine["wall_samples"]
        assert len(samples) == 3
        measured = samples[1:]  # warm-up discarded by default
        assert engine["wall_seconds"] == pytest.approx(median(measured))
        assert engine["wall_min"] == pytest.approx(min(measured))
        assert engine["wall_mad"] == pytest.approx(
            median_abs_deviation(measured))
    totals = payload["families"]["sensitivity"]["totals"]
    for engine_name, engine in totals.items():
        per_rep = [sum(j["engines"][engine_name]["wall_samples"][rep]
                       for j in payload["families"]["sensitivity"]["jobs"])
                   for rep in range(3)]
        assert engine["wall_samples"] == pytest.approx(per_rep), \
            "family totals must be per-repetition sums, not sums of medians"


def test_bench_reps_env_and_keep_warmup(monkeypatch):
    from repro.experiments.bench import resolve_bench_reps, run_bench

    monkeypatch.setenv("REPRO_BENCH_REPS", "2")
    assert resolve_bench_reps() == 2
    payload = run_bench(quick=True, families=["sensitivity"],
                        instructions=200, discard_warmup=False)
    assert payload["reps"] == 2
    assert payload["warmup_discarded"] is False
    engine = payload["families"]["sensitivity"]["jobs"][0]["engines"]["event"]
    from repro.analysis.stats_utils import median
    assert engine["wall_seconds"] == pytest.approx(median(engine["wall_samples"]))
    monkeypatch.setenv("REPRO_BENCH_REPS", "zero")
    with pytest.warns(RuntimeWarning, match="REPRO_BENCH_REPS"):
        assert resolve_bench_reps() == 3
    monkeypatch.setenv("REPRO_BENCH_REPS", "-1")
    with pytest.warns(RuntimeWarning):
        assert resolve_bench_reps() == 3
    with pytest.raises(ValueError):
        resolve_bench_reps(0)


def test_bench_cli_rejects_unknown_family_and_engine(tmp_path, capsys):
    assert main(["bench", "--families", "nope",
                 "--output", str(tmp_path / "b.json")]) == 2
    assert "families" in capsys.readouterr().err
    assert main(["bench", "--engines", "warp",
                 "--output", str(tmp_path / "b.json")]) == 2
    assert "engine" in capsys.readouterr().err


def test_bench_cli_rejects_workers_without_orchestrator(tmp_path, capsys):
    assert main(["bench", "--workers", "4",
                 "--output", str(tmp_path / "b.json")]) == 2
    assert "--orchestrator" in capsys.readouterr().err


def test_bench_reports_default_into_bench_reports_dir(tmp_path, monkeypatch):
    from repro.experiments.bench import BENCH_REPORTS_DIR, write_bench_report

    monkeypatch.chdir(tmp_path)
    path = write_bench_report({"schema": 2})
    assert path.parent.name == BENCH_REPORTS_DIR
    assert path.name.startswith("BENCH_") and path.suffix == ".json"


def test_bench_report_discovery_skips_loosely_named_files(tmp_path):
    """A stray ``BENCH_notes.json`` (which the old glob matched and — sorting
    after any timestamp — would have been picked as 'latest') is ignored."""
    from repro.experiments.bench import latest_bench_report, load_bench_history

    new_dir = tmp_path / "bench_reports"
    new_dir.mkdir()
    (new_dir / "BENCH_notes.json").write_text("not json at all {",
                                              encoding="utf-8")
    (new_dir / "BENCH_20260101T000000.json").write_text('{}', encoding="utf-8")
    assert latest_bench_report(new_dir) is None, \
        "no strictly named report -> no report (never a scratch file)"
    real = new_dir / "BENCH_20260101T000000Z.json"
    real.write_text('{"schema": 3}', encoding="utf-8")
    path, _ = latest_bench_report(new_dir)
    assert path == real
    history = load_bench_history(new_dir)
    assert [entry["name"] for entry in history] == [real.name]


def _history_report(schema: int, wall: float, **extra) -> str:
    payload = {"schema": schema, "quick": True,
               "families": {"speedup": {
                   "totals": {"event": {"wall_seconds": wall}}}},
               "speedup_geomean": 1.5}
    payload.update(extra)
    return json.dumps(payload)


def test_bench_history_renders_trajectory_across_schemas(tmp_path):
    from repro.experiments.bench import format_bench_history, load_bench_history

    new_dir = tmp_path / "bench_reports"
    new_dir.mkdir()
    # Three report generations: schemas 1, 2 and 3.
    (new_dir / "BENCH_20250101T000000Z.json").write_text(
        _history_report(1, 3.0), encoding="utf-8")
    (new_dir / "BENCH_20260101T000000Z.json").write_text(
        _history_report(2, 2.0, orchestrator={"speedup": 1.25}),
        encoding="utf-8")
    (new_dir / "BENCH_20260601T000000Z.json").write_text(
        _history_report(3, 1.0, reps=3), encoding="utf-8")
    # A malformed strictly-named report is skipped with a warning, not fatal.
    (new_dir / "BENCH_20260701T000000Z.json").write_text("{broken",
                                                        encoding="utf-8")
    with pytest.warns(UserWarning, match="skipping unreadable"):
        entries = load_bench_history(new_dir)
    assert [entry["schema"] for entry in entries] == [1, 2, 3]
    assert entries[0]["name"] < entries[1]["name"] < entries[2]["name"]
    assert [entry["family_walls"]["speedup"] for entry in entries] \
        == [3.0, 2.0, 1.0]
    assert entries[2]["reps"] == 3 and entries[0]["reps"] == 1
    table = format_bench_history(entries)
    assert "bench trajectory (3 reports)" in table
    assert "speedup wall" in table and "3.00s" in table and "1.00s" in table
    assert "1.25x" in table, "the schema-2 orchestrator speedup renders"


def test_bench_history_cli(tmp_path, capsys):
    new_dir = tmp_path / "bench_reports"
    new_dir.mkdir()
    # An empty (or entirely missing) report directory is a normal fresh-clone
    # state: the command says so on stdout and exits 0 so scripts can probe.
    empty = main(["bench", "history", "--dir", str(new_dir)])
    captured = capsys.readouterr()
    assert empty == 0 and "no bench reports accumulated yet" in captured.out
    assert captured.err == ""
    missing = main(["bench", "history", "--dir", str(tmp_path / "nowhere")])
    captured = capsys.readouterr()
    assert missing == 0 and "no bench reports accumulated yet" in captured.out
    for stamp, wall in (("20260101T000000Z", 2.0), ("20260201T000000Z", 1.0)):
        (new_dir / f"BENCH_{stamp}.json").write_text(
            _history_report(3, wall), encoding="utf-8")
    assert main(["bench", "history", "--dir", str(new_dir)]) == 0
    out = capsys.readouterr().out
    assert "bench trajectory (2 reports)" in out
    assert main(["bench", "history", "--json", "--dir", str(new_dir)]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == 2
    assert entries[1]["family_walls"]["speedup"] == 1.0


def test_latest_bench_report_handles_missing_directories(tmp_path):
    """A clone with no bench_reports/ at all (or one that was wiped) yields
    None — the documented nothing-to-compare signal — rather than raising."""
    from repro.experiments.bench import latest_bench_report, load_bench_history

    nowhere = tmp_path / "does-not-exist"
    assert latest_bench_report(nowhere) is None
    assert load_bench_history(nowhere) == []


def _gate_payload(quick: bool, wall: float, mad: float = 0.0) -> dict:
    return {"quick": quick, "families": {
        "speedup": {"totals": {"event": {"wall_seconds": wall,
                                         "wall_mad": mad}}}}}


def test_perf_gate_flags_only_regressions_past_threshold():
    from repro.experiments.bench import perf_gate

    reference = _gate_payload(True, 10.0)
    ok = perf_gate(_gate_payload(True, 14.9), reference)
    assert ok.ok and not ok.vacuous and ok.problems == []
    assert ok.compared == ["speedup", "aggregate"]
    assert "perf gate OK" in ok.describe()
    result = perf_gate(_gate_payload(True, 15.1), reference)
    # Both the family and the aggregate (same numbers here) trip.
    assert not result.ok and not result.vacuous
    assert len(result.problems) == 2 and "speedup/event" in result.problems[0]
    assert "aggregate/event" in result.problems[1]
    assert result.describe().count("PERF REGRESSION") == 2
    with pytest.raises(ValueError):
        perf_gate(_gate_payload(True, 1.0), reference, threshold=1.0)
    with pytest.raises(ValueError):
        perf_gate(_gate_payload(True, 1.0), reference, mad_multiplier=-1.0)


def test_perf_gate_noise_margin_absorbs_spread_within_reference_mad():
    """A rerun within the reference's own measured spread never flags, even
    past the relative threshold; a genuine 2x median slowdown still does."""
    from repro.experiments.bench import perf_gate

    # Reference: 1.0s median with a wide 0.3s MAD (a noisy shared box).
    reference = _gate_payload(True, 1.0, mad=0.3)
    # 1.8s is >1.5x but inside the +3*MAD (= +0.9s) margin: not a regression.
    within_noise = perf_gate(_gate_payload(True, 1.8), reference)
    assert within_noise.ok and within_noise.problems == []
    # 2.0s clears both bars: flagged.
    slowdown = perf_gate(_gate_payload(True, 2.0), reference)
    assert slowdown.problems and "speedup/event" in slowdown.problems[0]
    # A tight reference (MAD 0) degenerates to the old threshold-only check.
    tight = _gate_payload(True, 1.0)
    assert perf_gate(_gate_payload(True, 1.8), tight).problems


def test_perf_gate_vacuous_comparisons_carry_an_explicit_reason():
    from repro.experiments.bench import perf_gate

    reference = _gate_payload(True, 10.0)
    # Cross-budget: vacuous, never ok, reason names the mismatch.
    budget = perf_gate(_gate_payload(False, 99.0), reference)
    assert budget.vacuous and not budget.ok and budget.problems == []
    assert "budget mismatch" in budget.vacuous_reason
    assert "VACUOUS" in budget.describe()
    # Disjoint family sets: vacuous with the no-shared-family reason.
    disjoint = perf_gate({"quick": True, "families": {"other": {}}}, reference)
    assert disjoint.vacuous and "no comparable family" in disjoint.vacuous_reason


def test_perf_gate_ignores_sub_floor_walls_but_gates_the_aggregate():
    from repro.experiments.bench import perf_gate

    # Individually tiny families are timer noise: no per-family verdicts even
    # at a 10x blowup, and the 0.2s aggregate stays under the 0.5s floor —
    # but that is a VACUOUS verdict (nothing compared), not a green one.
    reference = {"quick": True, "families": {
        f: {"totals": {"event": {"wall_seconds": 0.1}}} for f in ("a", "b")}}
    noisy = {"quick": True, "families": {
        f: {"totals": {"event": {"wall_seconds": 1.0}}} for f in ("a", "b")}}
    sub_floor = perf_gate(noisy, reference)
    assert sub_floor.vacuous and "noise floor" in sub_floor.vacuous_reason
    # Enough tiny families to clear the aggregate floor: a broad slowdown
    # spread thinly across them is still caught (aggregate only).
    reference["families"].update(
        {f: {"totals": {"event": {"wall_seconds": 0.1}}}
         for f in ("c", "d", "e")})
    noisy["families"].update(
        {f: {"totals": {"event": {"wall_seconds": 1.0}}}
         for f in ("c", "d", "e")})
    result = perf_gate(noisy, reference)
    assert result.compared == ["aggregate"]
    assert len(result.problems) == 1 and "aggregate/event" in result.problems[0]


def test_perf_gate_accepts_committed_schema1_and_schema2_reports():
    """The committed legacy reports stay usable as gate references: their
    single-shot ``wall_seconds`` reads as a median with zero spread."""
    from repro.experiments.bench import perf_gate

    reports_dir = Path(__file__).resolve().parent.parent / "bench_reports"
    for name in ("BENCH_20260728T122855Z.json", "BENCH_20260728T130454Z.json"):
        reference = json.loads(
            (reports_dir / name).read_text(encoding="utf-8"))
        assert reference["schema"] in (1, 2)
        same = perf_gate(reference, reference)
        assert same.ok, same.describe()
        slowed = json.loads(json.dumps(reference))
        for family in slowed["families"].values():
            for engine in family["totals"].values():
                engine["wall_seconds"] *= 2.5
        assert perf_gate(slowed, reference).problems


def test_perf_gate_min_noise_floor_protects_degenerate_references():
    """Regression: references with no recorded spread used to get a +0 noise
    margin.  Schema-1/2 reports never recorded ``wall_mad`` and a schema-3
    report taken with ``--reps 1`` records MAD exactly 0.0; in both cases the
    margin bar collapsed into the relative bar, so a *tight* threshold let
    pure timer jitter flag a regression.  The ``min_noise_fraction`` floor
    (5% of the reference median) must absorb sub-5% deltas no matter how the
    reference was taken — verified against the actual committed legacy
    reports, not just synthetic payloads."""
    from repro.experiments.bench import perf_gate

    # Synthetic zero-MAD reference at a deliberately tight threshold.
    reference = _gate_payload(True, 1.0, mad=0.0)
    jitter = perf_gate(_gate_payload(True, 1.04), reference, threshold=1.02)
    assert jitter.ok, jitter.describe()
    real = perf_gate(_gate_payload(True, 1.10), reference, threshold=1.02)
    assert real.problems
    # The floor is relative, so it scales with the reference wall.
    big = _gate_payload(True, 100.0, mad=0.0)
    assert perf_gate(_gate_payload(True, 104.0), big, threshold=1.02).ok
    with pytest.raises(ValueError):
        perf_gate(reference, reference, min_noise_fraction=-0.1)

    # The committed legacy reports themselves: a 3% across-the-board drift
    # must never flag, even at a tight threshold.
    reports_dir = Path(__file__).resolve().parent.parent / "bench_reports"
    for name in ("BENCH_20260728T122855Z.json", "BENCH_20260728T130454Z.json"):
        reference = json.loads((reports_dir / name).read_text(encoding="utf-8"))
        assert reference["schema"] in (1, 2), \
            "these fixtures exist to pin the no-spread legacy schemas"
        drifted = json.loads(json.dumps(reference))
        for family in drifted["families"].values():
            for engine in family["totals"].values():
                engine["wall_seconds"] *= 1.03
        result = perf_gate(drifted, reference, threshold=1.02)
        assert result.ok, f"{name}: {result.describe()}"


def _floor_payload(**overrides) -> dict:
    payload = {
        "engines": ["cycle", "event"],
        "speedup_geomean": 1.7,
        "families": {
            "memory_bound": {"speedup": 3.5},
            "speedup": {"speedup": 1.8},
            "smt": {"speedup": 1.3},
            "sensitivity": {"speedup": 1.15},
        },
    }
    payload.update(overrides)
    return payload


def test_speedup_floor_gate_passes_healthy_payloads():
    from repro.experiments.bench import speedup_floor_gate

    result = speedup_floor_gate(_floor_payload())
    assert result.ok, result.describe()
    assert result.compared[-1] == "geomean"
    assert set(result.compared) == {"memory_bound", "speedup", "smt",
                                    "sensitivity", "geomean"}
    # The actual committed schema-3 reference clears the CI floors too.
    reports_dir = Path(__file__).resolve().parent.parent / "bench_reports"
    committed = max(p for p in reports_dir.glob("BENCH_*.json"))
    payload = json.loads(committed.read_text(encoding="utf-8"))
    if payload.get("schema", 0) >= 3:
        result = speedup_floor_gate(payload)
        assert result.ok, f"{committed.name}: {result.describe()}"


def test_speedup_floor_gate_flags_collapsed_wins():
    from repro.experiments.bench import speedup_floor_gate

    # One family falling below parity-ish trips the family floor.
    slow_family = _floor_payload()
    slow_family["families"]["sensitivity"]["speedup"] = 0.80
    result = speedup_floor_gate(slow_family)
    assert not result.ok
    assert len(result.problems) == 1 and "sensitivity" in result.problems[0]
    # A broad collapse trips the geomean floor even with every family >= the
    # per-family bar.
    broad = _floor_payload(speedup_geomean=1.05)
    for family in broad["families"].values():
        family["speedup"] = 1.05
    result = speedup_floor_gate(broad)
    assert result.problems and "geomean" in result.problems[-1]
    with pytest.raises(ValueError):
        speedup_floor_gate(_floor_payload(), geomean_floor=0.0)


def test_speedup_floor_gate_is_vacuous_never_green_when_unmeasurable():
    from repro.experiments.bench import speedup_floor_gate

    # Event-only bench runs measure no speedup: vacuous with a reason.
    single = speedup_floor_gate(_floor_payload(engines=["event"]))
    assert single.vacuous and not single.ok
    assert "cycle" in single.vacuous_reason
    assert "VACUOUS" in single.describe()
    # Both engines listed but no families / no recorded speedups.
    empty = speedup_floor_gate(_floor_payload(families={}))
    assert empty.vacuous and "no family reports" in empty.vacuous_reason
    unmeasured = speedup_floor_gate(
        _floor_payload(families={"speedup": {"totals": {}}}))
    assert unmeasured.vacuous and "speedup" in unmeasured.vacuous_reason


def test_orchestrator_bench_measures_and_verifies(tmp_path):
    from repro.experiments.bench import run_orchestrator_bench

    section = run_orchestrator_bench(quick=True, workers=2, per_suite=1,
                                     instructions=500, reps=2,
                                     figures=("fig11", "fig13"))
    assert section["identical"] is True
    assert section["dedup"]["deduped"] > 0
    assert section["serial_wall_seconds"] > 0
    assert section["orchestrated_wall_seconds"] > 0
    assert len(section["serial_wall_samples"]) == 2
    assert len(section["orchestrated_wall_samples"]) == 2
    assert section["serial_wall_mad"] >= 0.0
    assert section["orchestrated_wall_mad"] >= 0.0
    # Medians come from the post-warm-up samples.
    assert section["serial_wall_seconds"] == section["serial_wall_samples"][1]
    assert section["speedup"] == pytest.approx(
        section["serial_wall_seconds"] / section["orchestrated_wall_seconds"])
    with pytest.raises(ValueError):
        run_orchestrator_bench(figures=("not_a_figure",))
    with pytest.raises(ValueError):
        run_orchestrator_bench(reps=-2)


# --------------------------------------------------------------------- figures

def test_figures_cli_warm_run_performs_zero_simulations(tmp_path, capsys,
                                                        simulation_counter):
    fig_args = ["figures", "fig11"] + _runner_args(tmp_path) + ["--expect-warm"]
    assert main(fig_args) == 2, "a cold run must violate --expect-warm"
    err = capsys.readouterr().err
    assert "--expect-warm violated" in err
    assert "cold orchestrator jobs executed" in err
    assert "cold job: " in err, "the violation must name the jobs that ran cold"
    cold_sims = simulation_counter["count"]
    assert cold_sims > 0
    assert main(fig_args) == 0, "a warm rerun must satisfy --expect-warm"
    assert simulation_counter["count"] == cold_sims
    assert "cold job" not in capsys.readouterr().err


def test_expect_warm_catches_cold_orchestrator_jobs_without_sim_counters():
    """Regression: the orchestrator's own ``executed`` count must trip the
    check even when cache-store counters alone would look warm."""
    from repro.cli import _expect_warm_violated
    from repro.experiments.orchestrator import DedupStats

    warm = DedupStats(planned=4, unique=3, cache_warm=3, executed=0)
    assert _expect_warm_violated(0, 0, warm) is False
    cold = DedupStats(planned=4, unique=3, cache_warm=1, executed=2,
                      cold_jobs=["constable/client_00", "smt:baseline/a+b"])
    assert _expect_warm_violated(0, 0, cold) is True
    assert _expect_warm_violated(0, 0, None) is False, \
        "no wave (serial path) leaves the harness counters in charge"


def test_orchestrated_and_serial_figures_cli_share_cache_bit_identically(
        tmp_path, capsys, simulation_counter):
    """The CLI's shared wave warms a cache that the library harness, run on a
    fresh runner over the same cache, reuses with identical payloads."""
    from repro.experiments.figures import fig11_speedup_nosmt

    assert main(["figures", "fig11", "--json"] + _runner_args(tmp_path)) == 0
    payload, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    simulated = simulation_counter["count"]
    with ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS, suites=SUITES,
                          cache=ResultCache(tmp_path),
                          report_cache=ReportCache(tmp_path)) as runner:
        library = fig11_speedup_nosmt(runner)
    assert simulation_counter["count"] == simulated, "the harness ran warm"
    library.pop("text")
    assert json.loads(json.dumps(library, sort_keys=True, default=str)) \
        == payload["fig11"]


def test_figures_cli_rejects_unknown_figure(tmp_path):
    with pytest.raises(SystemExit):
        main(["figures", "fig999"] + _runner_args(tmp_path))


def test_figures_cli_standalone_harness_runs_without_runner(capsys):
    assert main(["figures", "table1", "--cache-dir", ".unused-cache"]) == 0
    assert "storage" in capsys.readouterr().out.lower()
