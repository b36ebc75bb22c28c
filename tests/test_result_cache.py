"""Tests for the content-addressed on-disk caches.

Covers the cold/warm protocol for both entry kinds (simulation results of
one workload or an SMT2 pair, and Load Inspector reports — a cold run
populates the store, a warm run returns equal records with zero
recomputation), key
invalidation on configuration and schema changes, corruption tolerance, cache
sharing between the serial and parallel runner flavours, and the LRU size-cap
GC (``REPRO_CACHE_MAX_MB``).  ``tests/golden/cache_keys.json`` pins the
value of every key one small sweep plans, so a fingerprint edit that moves
keys fails here instead of silently turning every existing cache cold.
"""

from __future__ import annotations

import hashlib
import json
import threading
import warnings
from pathlib import Path

import pytest

import repro.experiments.cache as cache_module
from repro.experiments.cache import (
    CACHE_DIR_ENV,
    CACHE_MAX_MB_ENV,
    DEFAULT_CACHE_DIR,
    SCHEMA_VERSION,
    ReportCache,
    ResultCache,
    config_fingerprint,
)
from repro.experiments.configs import baseline_config, constable_config, named_configs
from repro.experiments.figures import plan_fig7
from repro.experiments.parallel import ParallelExperimentRunner
from repro.experiments.runner import ExperimentRunner
from repro.pipeline.config import CoreConfig
from repro.workloads.suites import workload_specs_for_suite

SUITES = ("Client", "Server")
INSTRUCTIONS = 1200

#: The committed keys of :func:`compute_cache_keys`.
CACHE_KEYS_FIXTURE = Path(__file__).parent / "golden" / "cache_keys.json"


def _make_runner(cache: ResultCache) -> ExperimentRunner:
    return ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                            suites=SUITES, cache=cache)


def _run_baseline(runner: ExperimentRunner):
    """Baseline over every workload and every SMT2 pair, keyed by either."""
    results = dict(runner.run_config("baseline", baseline_config()))
    results.update(runner.run_smt_config("baseline", baseline_config()))
    return results


def test_cold_run_populates_store_warm_run_simulates_nothing(tmp_path, simulation_counter):
    cold = _make_runner(ResultCache(tmp_path))
    cold_results = _run_baseline(cold)
    expected_jobs = len(cold.workloads()) + len(cold.smt_pairs())
    assert expected_jobs == 3, "two workloads and one pair"
    assert simulation_counter["count"] == expected_jobs
    assert cold.cache.stats.stores == expected_jobs
    assert len(cold.cache) == expected_jobs

    warm = _make_runner(ResultCache(tmp_path))
    warm_results = _run_baseline(warm)
    assert simulation_counter["count"] == expected_jobs, "warm run must not simulate"
    assert warm.cache.stats.hits == expected_jobs
    assert warm.cache.stats.misses == 0
    assert set(warm_results) == set(cold_results)
    for workload in cold_results:
        # Full-record equality, per-thread records included.
        assert warm_results[workload] == cold_results[workload]


def test_runner_memory_cache_short_circuits_disk(tmp_path, simulation_counter):
    runner = _make_runner(ResultCache(tmp_path))
    first = runner.run_config("baseline", baseline_config())
    hits_after_cold = runner.cache.stats.hits
    second = runner.run_config("baseline", baseline_config())
    # Second call is served from WorkloadRun.results: no new sims, no new disk hits.
    assert simulation_counter["count"] == len(runner.workloads())
    assert runner.cache.stats.hits == hits_after_cold
    for workload in first:
        assert second[workload] is first[workload]


def test_config_field_change_invalidates_key(tmp_path):
    cache = ResultCache(tmp_path)
    spec = workload_specs_for_suite("Client")[0]
    base_key = cache.key_for(baseline_config(), [spec], INSTRUCTIONS, 16)
    assert cache.key_for(baseline_config(), [spec], INSTRUCTIONS, 16) == base_key
    changed = {
        "fetch_width": baseline_config(fetch_width=7),
        "flush_penalty": baseline_config(flush_penalty=11),
        "lvp": baseline_config(lvp="eves"),
        "constable": constable_config(),
        "memory_renaming": baseline_config(enable_memory_renaming=False),
    }
    keys = {name: cache.key_for(config, [spec], INSTRUCTIONS, 16)
            for name, config in changed.items()}
    assert base_key not in keys.values()
    assert len(set(keys.values())) == len(keys), "every field change yields a distinct key"
    # Trace parameters and the workload threads are part of the key too: a
    # pair never shares a key with its first thread, nor with its swap.
    assert cache.key_for(baseline_config(), [spec], INSTRUCTIONS + 1, 16) != base_key
    assert cache.key_for(baseline_config(), [spec], INSTRUCTIONS, 32) != base_key
    other_spec = workload_specs_for_suite("Server")[0]
    threads = {cache.key_for(baseline_config(), specs, INSTRUCTIONS, 16)
               for specs in ([other_spec], [spec, other_spec], [other_spec, spec])}
    assert base_key not in threads and len(threads) == 3


def test_schema_version_invalidates_key_and_entry(tmp_path, simulation_counter,
                                                 monkeypatch):
    spec = workload_specs_for_suite("Client")[0]
    with monkeypatch.context() as old_schema:
        old_schema.setattr(cache_module, "SCHEMA_VERSION", SCHEMA_VERSION - 1)
        old_key = ResultCache.key_for(baseline_config(), [spec], INSTRUCTIONS, 16)
        _make_runner(ResultCache(tmp_path)).run_config("baseline", baseline_config())
    sims_after_cold = simulation_counter["count"]
    assert ResultCache.key_for(baseline_config(), [spec], INSTRUCTIONS, 16) != old_key

    bumped = _make_runner(ResultCache(tmp_path))
    bumped.run_config("baseline", baseline_config())
    assert simulation_counter["count"] == sims_after_cold + len(bumped.workloads()), \
        "a schema bump must invalidate every prior entry"


def test_corrupt_entry_is_a_miss_and_gets_rewritten(tmp_path, simulation_counter):
    cache = ResultCache(tmp_path)
    runner = _make_runner(cache)
    runner.run_config("baseline", baseline_config())
    sims = simulation_counter["count"]

    entry = next(cache.directory.glob("*/*.json"))
    entry.write_text("{not json", encoding="utf-8")

    warm = _make_runner(ResultCache(tmp_path))
    warm.run_config("baseline", baseline_config())
    assert simulation_counter["count"] == sims + 1, "only the corrupt entry re-simulates"
    assert json.loads(entry.read_text(encoding="utf-8"))["schema"] == SCHEMA_VERSION


def test_aliased_warm_hit_carries_the_requested_name(tmp_path, simulation_counter):
    """A warm entry simulated under another name comes back relabelled.

    ``all_loads`` is content-identical to ``constable``, so it hits the entry
    ``constable`` stored — but its results must say ``all_loads``, exactly as
    if they had been simulated under that name.
    """
    _make_runner(ResultCache(tmp_path)).run_config("constable", constable_config())
    simulated = simulation_counter["count"]
    fresh = _make_runner(ResultCache(tmp_path))
    results = fresh.run_config("all_loads", constable_config())
    assert simulation_counter["count"] == simulated, "the alias must hit warm"
    assert results
    assert {result.config_name for result in results.values()} == {"all_loads"}


def test_parallel_runner_shares_cache_with_serial(tmp_path, simulation_counter):
    with ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                  suites=SUITES, max_workers=2,
                                  cache=ResultCache(tmp_path)) as cold:
        cold_results = cold.run_config("baseline", baseline_config())
        assert cold.cache.stats.stores == len(cold_results)

    warm = _make_runner(ResultCache(tmp_path))
    warm_results = warm.run_config("baseline", baseline_config())
    assert simulation_counter["count"] == 0, "parent process never simulated"
    for workload in cold_results:
        assert warm_results[workload] == cold_results[workload]


# ------------------------------------------------------------ report entries

def test_report_cache_cold_run_populates_warm_run_inspects_nothing(tmp_path, monkeypatch):
    from repro.experiments import runner as runner_module

    calls = {"count": 0}
    original = runner_module.inspect_trace

    def counted(trace):
        calls["count"] += 1
        return original(trace)

    monkeypatch.setattr(runner_module, "inspect_trace", counted)

    cold = ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                            suites=SUITES, report_cache=ReportCache(tmp_path))
    cold_workloads = cold.workloads()
    assert calls["count"] == len(cold_workloads)
    assert cold.report_cache.stats.stores == len(cold_workloads)

    warm = ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                            suites=SUITES, report_cache=ReportCache(tmp_path))
    warm_workloads = warm.workloads()
    assert calls["count"] == len(cold_workloads), "warm run must not inspect"
    assert warm.report_cache.stats.hits == len(warm_workloads)
    for name, cold_run in cold_workloads.items():
        warm_run = warm_workloads[name]
        assert warm_run.report.to_dict() == cold_run.report.to_dict()
        assert warm_run.report.global_stable_pcs() == cold_run.report.global_stable_pcs()

    with ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                  suites=SUITES, max_workers=2,
                                  report_cache=ReportCache(tmp_path)) as pool:
        pool_workloads = pool.workloads()
        assert pool.health.jobs == 0, "a warm pool run dispatches no generation task"
    assert {name: run.report.to_dict() for name, run in pool_workloads.items()} \
        == {name: run.report.to_dict() for name, run in cold_workloads.items()}


def test_report_and_result_caches_share_a_directory(tmp_path, simulation_counter):
    runner = ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                              suites=SUITES, cache=ResultCache(tmp_path),
                              report_cache=ReportCache(tmp_path))
    runner.run_config("baseline", baseline_config())
    workloads = len(runner.workloads())
    # Kind-tagged keys: both namespaces coexist without collisions, and either
    # cache instance sees (and budgets) the whole directory.
    assert len(runner.cache) == 2 * workloads
    assert runner.cache.total_bytes() == runner.report_cache.total_bytes()


# ------------------------------------------------------------------------ GC

def test_gc_survivors_still_hit_and_evicted_entries_rebuild(tmp_path, simulation_counter):
    cache = ResultCache(tmp_path)
    runner = _make_runner(cache)
    runner.run_config("baseline", baseline_config())
    sims = simulation_counter["count"]
    total = cache.total_bytes()
    assert total > 0

    removed = cache.gc(max_mb=(total - 1) / (1024 * 1024))
    assert len(removed) == 1, "a cap one byte under the total evicts exactly the LRU entry"
    assert cache.stats.evictions == 1

    warm = _make_runner(ResultCache(tmp_path))
    warm.run_config("baseline", baseline_config())
    survivors = len(warm.workloads()) - 1
    assert warm.cache.stats.hits == survivors, "surviving entries must still validate"
    assert simulation_counter["count"] == sims + 1, "only the evicted entry re-simulates"


def test_gc_of_a_shared_directory_keeps_report_survivors_loadable(tmp_path):
    """GC of a directory shared by result and report entries: the report
    entries that survive still load through ``ReportCache.get``."""
    cache, reports = ResultCache(tmp_path), ReportCache(tmp_path)
    runner = ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                              suites=SUITES, cache=cache, report_cache=reports)
    runner.run_config("baseline", baseline_config())
    entries = cache.entries()
    # Each report hit refreshes its recency, so the result entries become the
    # LRU victims of a cap that fits exactly the report entries.
    report_keys = sorted(path.stem for path, _, _ in entries
                         if reports.get(path.stem) is not None)
    assert report_keys and len(report_keys) < len(entries)
    report_bytes = sum(size for path, _, size in entries if path.stem in report_keys)
    removed = cache.gc(max_mb=(report_bytes + 0.5) / (1024 * 1024))
    assert len(removed) == len(entries) - len(report_keys)
    survivors = sorted(path.stem for path, _, _ in cache.entries())
    assert survivors == report_keys
    fresh = ReportCache(tmp_path)
    assert all(fresh.get(key) is not None for key in survivors)


def test_gc_noop_without_cap_and_below_cap(tmp_path):
    cache = ResultCache(tmp_path)
    runner = _make_runner(cache)
    runner.run_config("baseline", baseline_config())
    entries = len(cache)
    assert cache.gc() == [], "no cap configured: GC must be a no-op"
    assert cache.gc(max_mb=1024) == [], "under the cap: GC must evict nothing"
    assert len(cache) == entries


def test_cache_hit_refreshes_lru_recency(tmp_path):
    import os
    import time

    cache = ResultCache(tmp_path)
    runner = _make_runner(cache)
    results = runner.run_config("baseline", baseline_config())
    ordered = cache.entries()
    oldest_path = ordered[0][0]
    # Age every entry far into the past, then touch the oldest via a hit.
    for index, (path, _, _) in enumerate(ordered):
        os.utime(path, (1_000_000 + index, 1_000_000 + index))
    oldest_key = oldest_path.stem
    assert cache.get(oldest_key) is not None
    assert cache.entries()[-1][0] == oldest_path, "a hit must move the entry to MRU"
    # GC under a tight cap now spares the hit entry.
    size_of_hit = next(size for path, _, size in cache.entries() if path == oldest_path)
    removed = cache.gc(max_mb=size_of_hit / (1024 * 1024))
    assert oldest_path not in removed
    assert cache.get(oldest_key) is not None


def test_undecodable_entry_is_not_promoted_to_mru(tmp_path):
    """A decode failure must not refresh recency, or the dead entry would
    survive every GC while valid entries around it get evicted."""
    import os

    cache = ResultCache(tmp_path)
    runner = _make_runner(cache)
    runner.run_config("baseline", baseline_config())
    entry = cache.entries()[0][0]
    payload = json.loads(entry.read_text(encoding="utf-8"))
    payload["result"] = {"nonsense": True}  # envelope valid, body undecodable
    entry.write_text(json.dumps(payload), encoding="utf-8")
    os.utime(entry, (1, 1))  # oldest entry in the directory

    misses_before = cache.stats.misses
    assert cache.get(entry.stem) is None
    assert cache.stats.misses == misses_before + 1
    assert cache.entries()[0][0] == entry, \
        "failed decode left the entry oldest, so the LRU GC evicts it first"


def test_env_cap_arms_auto_gc_on_put(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    runner = _make_runner(cache)
    runner.run_config("baseline", baseline_config())
    cap_mb = (cache.total_bytes() - 1) / (1024 * 1024)

    monkeypatch.setenv(CACHE_MAX_MB_ENV, str(cap_mb))
    capped = ResultCache(tmp_path)
    assert capped.max_mb == pytest.approx(cap_mb)
    runner2 = _make_runner(capped)
    runner2.run_config("constable", constable_config())
    assert capped.stats.evictions > 0, "puts over the cap must trigger eviction"
    assert capped.total_bytes() <= int(cap_mb * 1024 * 1024)


@pytest.mark.parametrize("raw", ["512MB", "-3", "0", "nan", "inf"])
def test_invalid_env_cap_warns_once_and_disables_the_cap(tmp_path, monkeypatch, raw):
    """A malformed REPRO_CACHE_MAX_MB must not kill runner construction — the
    cap is an optimisation; the variable is ignored with a single warning."""
    from repro.experiments import cache as cache_module

    monkeypatch.setattr(cache_module, "_WARNED_ENV_CAPS", set())
    monkeypatch.setenv(CACHE_MAX_MB_ENV, raw)
    with pytest.warns(RuntimeWarning, match=CACHE_MAX_MB_ENV):
        cache = ResultCache(tmp_path)
    assert cache.max_mb is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = ResultCache(tmp_path)  # second construction: no second warning
    assert again.max_mb is None


def test_empty_cache_dir_env_counts_as_unset(tmp_path, monkeypatch, capsys):
    """An empty ``REPRO_CACHE_DIR`` roots the library caches at
    ``.repro-cache``, as every ``repro`` subcommand does, never at the
    working directory itself."""
    from repro.cli import main

    monkeypatch.setenv(CACHE_DIR_ENV, "")
    monkeypatch.chdir(tmp_path)
    assert ResultCache().directory == ReportCache().directory \
        == Path(DEFAULT_CACHE_DIR)
    assert main(["cache", "stats", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["directory"] == DEFAULT_CACHE_DIR


def test_explicit_invalid_max_mb_still_raises(tmp_path):
    """Leniency covers only the environment; a bad argument is a caller bug.

    A non-finite cap has no byte count: the constructor once accepted one,
    and the first capped store died in the GC check, leaving that entry
    without its warehouse row.
    """
    for cap in (-1, 0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="max_mb must be positive and finite"):
            ResultCache(tmp_path, max_mb=cap)
        with pytest.raises(ValueError, match="max_mb must be positive and finite"):
            ResultCache(tmp_path).gc(max_mb=cap)


# -------------------------------------------------- shared-directory drift

def _synthetic_result(tag: str, padding: int = 0):
    """A minimal decodable SimulationResult (optionally padded to a size)."""
    from repro.pipeline.stats import PipelineStats, SimulationResult

    power_events = {f"pad{i}": i for i in range(padding)}
    return SimulationResult(trace_name=tag, config_name="synthetic", cycles=1,
                            instructions=1, stats=PipelineStats(),
                            power_events=power_events)


def _synthetic_key(tag: str) -> str:
    return hashlib.sha256(tag.encode("utf-8")).hexdigest()


def test_size_estimate_negative_drift_resyncs_from_disk(tmp_path):
    """Shrinking overwrites plus a stale estimate drove the incremental
    bookkeeping negative, which made every future cap comparison meaningless
    and skipped needed GC passes; drift now resyncs from a full scan."""
    cache = ResultCache(tmp_path, max_mb=64)
    key = _synthetic_key("drift")
    cache.put(key, _synthetic_result("drift", padding=400))
    # Pretend another process already evicted most of the directory, then
    # overwrite the big entry with a much smaller one: the delta is negative
    # and larger than the (stale) estimate.
    cache._size_estimate = 1
    cache.put(key, _synthetic_result("drift"))
    assert cache._size_estimate is not None
    assert cache._size_estimate >= 0
    assert cache._size_estimate == cache.total_bytes()


def test_gc_pass_resyncs_estimate_after_external_eviction(tmp_path):
    """A second writer evicting entries behind this cache's back leaves the
    incremental estimate stale-high; the next GC pass rescans and resyncs."""
    writer = ResultCache(tmp_path, max_mb=64)
    for index in range(6):
        writer.put(_synthetic_key(f"w{index}"), _synthetic_result(f"w{index}"))
    other = ResultCache(tmp_path)
    other.gc(max_mb=writer.total_bytes() / 2 / (1024 * 1024))
    stale = writer._size_estimate
    assert stale is not None and stale > writer.total_bytes()
    writer.gc(max_mb=64)
    assert writer._size_estimate == writer.total_bytes()


def test_two_writer_concurrent_gc_stress(tmp_path):
    """Two capped writers sharing one directory, each storing and GC-ing
    concurrently: the estimate must never go negative, no operation may raise,
    and the directory must converge under the cap with only valid entries."""
    cap_mb = 0.02  # ~20 KiB; entries are ~1 KiB, so GC fires constantly
    errors = []
    barrier = threading.Barrier(2)

    def writer(name: str) -> None:
        cache = ResultCache(tmp_path, max_mb=cap_mb)
        barrier.wait()
        try:
            for index in range(60):
                cache.put(_synthetic_key(f"{name}-{index}"),
                          _synthetic_result(f"{name}-{index}", padding=20))
                if cache._size_estimate is not None and cache._size_estimate < 0:
                    raise AssertionError("size estimate went negative")
                if index % 7 == 0:
                    cache.gc()
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=writer, args=(name,)) for name in "AB"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors

    survivor = ResultCache(tmp_path, max_mb=cap_mb)
    survivor.gc()
    assert survivor.total_bytes() <= int(cap_mb * 1024 * 1024)
    report = survivor.verify()
    assert report.ok, report.as_dict()
    assert survivor._size_estimate == survivor.total_bytes()


def test_fingerprint_is_insertion_order_independent():
    config_a = baseline_config(stats_oracle_pcs={1, 2, 3})
    config_b = baseline_config(stats_oracle_pcs={3, 2, 1})
    assert config_fingerprint(config_a) == config_fingerprint(config_b)


def test_cache_clear_removes_entries(tmp_path):
    cache = ResultCache(tmp_path)
    runner = _make_runner(cache)
    runner.run_config("baseline", baseline_config())
    assert len(cache) > 0
    removed = cache.clear()
    assert removed > 0
    assert len(cache) == 0
    assert cache.get(cache.key_for(baseline_config(),
                                   [workload_specs_for_suite("Client")[0]],
                                   INSTRUCTIONS, 16)) is None


def compute_cache_keys(directory: Path) -> dict:
    """Every cache key a runner with a result and a report cache plans on one
    Client and one Enterprise workload at 2,000 instructions: the named
    configs, fig. 7's ideal builders (stats-oracle PCs attached by planning),
    one SMT2 pair job and each workload's report key."""
    runner = ExperimentRunner(per_suite=1, instructions=2000,
                              suites=("Client", "Enterprise"),
                              cache=ResultCache(directory),
                              report_cache=ReportCache(directory))
    configs = {name: factory() for name, factory in named_configs().items()}
    configs.update({name: config for name, config in plan_fig7().configs.items()
                    if not isinstance(config, CoreConfig)})
    jobs = [job for name, config in configs.items()
            for job in runner.plan_jobs(name, config)]
    jobs += runner.plan_smt_jobs("baseline", baseline_config(), max_pairs=1)
    return {
        "jobs": {f"{job.config_name}/{job.workload}": job.cache_key
                 for job in jobs},
        "reports": {spec.name: runner.report_cache.key_for(
                        spec, runner.instructions, runner.num_registers)
                    for spec in runner.specs()},
    }


def test_cache_keys_reproduce(tmp_path):
    """Every planned key equals its committed value.

    A key that moves turns every existing cache directory cold and gives the
    warehouse a second row per job.  When a deliberate config or schema
    change moves keys, regenerate the fixture with
    ``PYTHONPATH=src python tests/test_result_cache.py --refresh`` and name
    that change in the commit.
    """
    expected = json.loads(CACHE_KEYS_FIXTURE.read_text(encoding="utf-8"))
    actual = compute_cache_keys(tmp_path)
    assert len(actual["jobs"]) == 8 * 2 + 3 * 2 + 1
    moved = sorted(name for kind in ("jobs", "reports")
                   for name in set(expected[kind]) | set(actual[kind])
                   if expected[kind].get(name) != actual[kind].get(name))
    assert not moved, f"cache keys moved: {moved}"


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--refresh", action="store_true",
                        help="rewrite tests/golden/cache_keys.json")
    if not parser.parse_args().refresh:
        parser.error("nothing to do; pass --refresh to rewrite the fixture")
    with tempfile.TemporaryDirectory() as directory:
        keys = compute_cache_keys(Path(directory))
    CACHE_KEYS_FIXTURE.write_text(json.dumps(keys, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(f"wrote {CACHE_KEYS_FIXTURE}")
