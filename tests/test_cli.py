"""Tests for the ``repro`` console entry point and the shard-aware wave.

Covers the cache subcommands (stats/gc/clear/verify round-trip, corrupt- and
orphan-entry detection), shard parsing and partition invariants, the headline
distribution guarantee — ``figures --shard 1/2`` + ``--shard 2/2`` into one
cache directory fold to payloads bit-identical to a cold unsharded run with
zero re-simulation — and the warm-figures contract behind ``--expect-warm``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.experiments.cache import ReportCache, ResultCache, persisted_cache_stats
from repro.experiments.configs import baseline_config
from repro.experiments.orchestrator import FigurePlan, SweepOrchestrator
from repro.experiments.runner import ExperimentRunner, Shard

SUITES = ("Client", "Server")
INSTRUCTIONS = 800


def _runner_args(cache_dir) -> list:
    return ["--cache-dir", str(cache_dir), "--per-suite", "1",
            "--instructions", str(INSTRUCTIONS), "--suites", ",".join(SUITES)]


def _figure_payloads(out: str) -> dict:
    """The ``--json`` figure payloads that open ``repro figures`` output."""
    payloads, decoder, index = {}, json.JSONDecoder(), 0
    while out.startswith("{", index):
        payload, index = decoder.raw_decode(out, index)
        payloads.update(payload)
        index += 1  # the newline print() appends
    return payloads


def _make_runner(cache_dir=None) -> ExperimentRunner:
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                            suites=SUITES, cache=cache)


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
    plan = FigurePlan("fig", configs={"baseline": baseline_config()})
    warm = _make_runner(tmp_path)
    orchestrator = SweepOrchestrator(warm)

    def covered():
        return {name for name, run in warm.workloads().items()
                if "baseline" in run.results}

    first = orchestrator.execute([plan], shard=Shard(1, 2))
    shard_one = covered()
    # A second sharded wave on the same runner plans a residual (empty) job
    # list; its demand must still be exactly shard one's workloads.
    again = orchestrator.execute([plan], shard=Shard(1, 2))
    assert (again.planned, again.executed) == (first.planned, 0)
    assert covered() == shard_one
    # Shard two, on a runner holding shard one, owns exactly the rest.
    second = orchestrator.execute([plan], shard=Shard(2, 2))
    shard_two = covered() - shard_one
    assert second.cold_jobs == [f"sim:baseline/{name}" for name in sorted(shard_two)]
    assert shard_one | shard_two == set(warm.workloads())
    assert shard_one and shard_two


# ---------------------------------------------------- figures: sharded fold

def test_sharded_sweep_union_is_bit_identical_to_serial(tmp_path, capsys,
                                                        simulation_counter):
    """``figures --shard`` runs only its slice and renders nothing; the
    unsharded run then folds the shards warm, payloads bit-identical to a
    cold unsharded run, and every host's wave is counted in the directory."""
    figures = ["figures", "fig14", "fig18", "table1", "--json"]
    for shard in ("1/2", "2/2"):
        assert main(figures + _runner_args(tmp_path) + ["--shard", shard]) == 0
        assert _figure_payloads(capsys.readouterr().out) == {}, \
            "a shard renders no figure, standalone ones included"
    sharded_sims = simulation_counter["count"]
    # fig18: two configs x two workloads; fig14: four SMT configs x one pair.
    assert sharded_sims == 2 * 2 + 4

    assert main(figures + _runner_args(tmp_path) + ["--expect-warm"]) == 0
    folded = _figure_payloads(capsys.readouterr().out)
    assert simulation_counter["count"] == sharded_sims, \
        "folding shard results must not re-simulate"
    assert persisted_cache_stats(tmp_path)["dedup"]["waves"] == 3, \
        "each shard and the fold record their wave"
    assert main(figures + _runner_args(tmp_path / "cold")) == 0
    assert folded == _figure_payloads(capsys.readouterr().out)
    assert sorted(folded) == ["fig14", "fig18", "table1"]


def test_sweep_rejects_malformed_shard(tmp_path, capsys):
    assert main(["figures", "fig17", "--shard", "3/2"] + _runner_args(tmp_path)) == 2
    assert "shard" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--per-suite", "-1", "per_suite must be at least 1"),
    ("--workers", "-3", "workers must be at least 1"),
    ("--workers", "0", "workers must be at least 1"),
    ("--instructions", "0", "instructions must be positive"),
    ("--suites", ",", "suites must name at least one suite"),
    ("--suites", " , ", "suites must name at least one suite"),
])
def test_figures_cli_rejects_out_of_range_runner_sizes(tmp_path, capsys,
                                                       simulation_counter,
                                                       flag, value, message):
    """An out-of-range size or setting exits 2 with the error's one line,
    before any work: ``--workers -3`` and ``--suites " , "`` once ran
    serially and exited 0."""
    assert main(["figures", "fig11"] + _runner_args(tmp_path) + [flag, value]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
    assert simulation_counter == {"count": 0, "traces": 0}


def test_cli_per_suite_zero_means_the_full_suite():
    from repro.cli import _build_runner, build_parser

    args = build_parser().parse_args(["figures", "fig11", "--per-suite", "0",
                                      "--suites", "Client"])
    runner = _build_runner(args)
    assert runner.per_suite is None and len(runner.specs()) == 22


# ----------------------------------------------------------- cache subcommands

def test_cache_stats_gc_clear_round_trip(tmp_path, capsys):
    assert main(["figures", "fig17"] + _runner_args(tmp_path)) == 0
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
    assert main(["figures", "fig17"] + _runner_args(tmp_path)) == 0
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
    assert main(["figures", "fig17"] + _runner_args(tmp_path)) == 0
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
    """Counters from separate figure runs accumulate in the directory ledger."""
    fig17 = ["figures", "fig17"] + _runner_args(tmp_path)
    assert main(fig17) == 0          # cold: stores, no hits
    assert main(fig17) == 0          # warm: pure hits
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    counters = stats["persisted_counters"]
    assert counters["ledgers"] >= 2, "each run must flush its own ledger"
    assert counters["total"]["stores"] == len(SUITES) * 2
    assert counters["total"]["hits"] >= len(SUITES) * 2, \
        "the warm rerun's hits must be visible to a later process"
    # Orchestrated waves also stream their dedup stats in, and the runner
    # flushes its health counters alongside them.
    assert set(counters["by_cache"]) == {"ResultCache", "ReportCache",
                                         "SweepOrchestrator", "SweepSupervisor"}
    assert counters["dedup"]["waves"] == 2
    # Only the cold run ran jobs; the warm rerun's delta is all-zero and
    # deliberately not flushed.
    assert counters["health"]["runs"] == 1
    assert counters["health"]["jobs"] > 0

    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    assert "hit rate" in capsys.readouterr().out


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


def test_dedup_ledger_aggregates_across_waves(tmp_path):
    """Orchestrated waves stream dedup stats into the ledger; aggregation sums
    them across waves (and hosts)."""
    from repro.experiments.cache import (
        DEDUP_LEDGER_CLASS,
        persist_dedup_stats,
        persisted_cache_stats,
    )

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
    # A third wave keeps accumulating.
    persist_dedup_stats(tmp_path, {"planned": 4, "unique": 4,
                                   "cache_warm": 0, "executed": 4})
    assert persisted_cache_stats(tmp_path)["dedup"]["waves"] == 3


def test_orchestrated_sweep_streams_dedup_into_cache_stats(tmp_path, capsys):
    """An orchestrated `repro figures` wave leaves its dedup rates readable
    by a later `repro cache stats` process — the cross-host observability
    contract a sharded sweep relies on."""
    assert main(["figures", "fig17", "fig18"] + _runner_args(tmp_path)) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    dedup = stats["persisted_counters"]["dedup"]
    assert dedup["waves"] == 1
    assert dedup["planned"] > dedup["unique"] > 0, "fig17's constable is fig18's"
    assert dedup["executed"] > 0, "a cold wave executes its jobs"
    # The human-readable rendering surfaces the same block.
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "orchestrated waves" in out and "dedup rate" in out


# ---------------------------------------------------------- sensitivity sweeps

def test_sweep_sensitivity_family_warms_fig13_and_fig20(tmp_path, simulation_counter):
    """The sensitivity figures (13 and 20) shard like any other: their two
    shards, run into one cache directory, let each figure regenerate
    simulation-free on its own."""
    for shard in ("1/2", "2/2"):
        assert main(["figures", "fig13", "fig20", "--shard", shard]
                    + _runner_args(tmp_path)) == 0
    swept = simulation_counter["count"]
    assert swept > 0
    for figure in ("fig13", "fig20"):
        assert main(["figures", figure] + _runner_args(tmp_path)
                    + ["--expect-warm"]) == 0, figure
    assert simulation_counter["count"] == swept, \
        "warm sensitivity figures must not simulate"




# --------------------------------------------------------------------- figures

def test_figures_cli_warm_run_performs_zero_simulations(tmp_path, capsys,
                                                        simulation_counter):
    fig_args = ["figures", "fig11"] + _runner_args(tmp_path) + ["--expect-warm"]
    assert main(fig_args) == 2, "a cold run must violate --expect-warm"
    err = capsys.readouterr().err
    assert "--expect-warm violated" in err
    assert "cold orchestrator jobs executed" in err
    assert "cold job: " in err, "the violation must name the jobs that ran cold"
    cold_sims, cold_traces = simulation_counter["count"], simulation_counter["traces"]
    assert cold_sims > 0 and cold_traces > 0
    assert main(fig_args) == 0, "a warm rerun must satisfy --expect-warm"
    assert simulation_counter["count"] == cold_sims
    assert simulation_counter["traces"] == cold_traces, \
        "a warm rerun reads cached reports and results: it generates no trace"
    assert "cold job" not in capsys.readouterr().err


def test_expect_warm_catches_cold_orchestrator_jobs_without_sim_counters():
    """Regression: the orchestrator's own ``executed`` count must trip the
    check even when cache-store counters alone would look warm."""
    from repro.cli import _expect_warm_violated
    from repro.experiments.orchestrator import DedupStats

    warm = DedupStats(planned=4, unique=3, cache_warm=3, executed=0)
    assert _expect_warm_violated(0, 0, warm) is False
    cold = DedupStats(planned=4, unique=3, cache_warm=1, executed=2,
                      cold_jobs=["sim:constable/client_00", "sim:baseline/a+b"])
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
    for name in ("fig999", "warehouse"):
        with pytest.raises(SystemExit, match=f"unknown figure '{name}'"):
            main(["figures", name] + _runner_args(tmp_path))


def test_figures_cli_standalone_harness_runs_without_runner(capsys):
    assert main(["figures", "table1", "--cache-dir", ".unused-cache"]) == 0
    assert "storage" in capsys.readouterr().out.lower()


def test_figures_cli_standalone_harnesses_follow_the_runner_flags(
        tmp_path, capsys):
    """``fig23`` runs at the flags' budget and suites."""
    from repro.experiments.figures import fig23_fig24_apx_study

    assert main(["figures", "fig23", "--json", "--per-suite", "1",
                 "--instructions", "500", "--suites", "Client",
                 "--cache-dir", str(tmp_path / "fig23")]) == 0
    payload, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    library = fig23_fig24_apx_study(
        ExperimentRunner(per_suite=1, instructions=500, suites=("Client",)))
    library.pop("text")
    assert payload["fig23"] == json.loads(json.dumps(library, sort_keys=True))
