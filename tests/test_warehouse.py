"""Differential and property battery for the columnar results warehouse.

The warehouse (:mod:`repro.experiments.warehouse`) is a derived analytics
index over the object store, and derived data earns trust only by proof of
losslessness.  Four layers of evidence here:

* **Codec properties** (hypothesis): the columnar encode/decode round-trips
  arbitrary rows exactly — unicode workload names, zero-cycle results,
  adversarial finite floats — and malformed segments are rejected whole
  rather than half-read.
* **The differential core**: after real sweeps at 1, 2 and 4 workers, under
  both execution engines, through a chaos-faulted partial-wave journal and
  its ``--resume``, after compaction and after ``rebuild``, every warehouse
  read must be **bit-identical** to deriving the same rows from full
  object-store decodes (:func:`scan_object_store`) — compared through JSON
  so float bits cannot hide behind repr.
* **Zero-decode instrumentation**: ``repro query`` on a warm warehouse is
  run with ``SimulationResult.from_dict`` patched to explode, proving the
  read path touches no object-store body.
* **Crash-safety**, parametrized over both tables of the shared protocol
  (result rows and counters): torn JSONL tails are skipped, superseded
  compaction leftovers never double-count, stale compaction locks never
  wedge, two concurrent writer+compactor threads cannot corrupt either
  table, a rebuild never loses a row committed while it runs, and ``repro
  warehouse verify`` flags a warehouse that disagrees with the cache
  journal.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments.cache import (SCHEMA_VERSION, ResultCache,
                                     persisted_cache_stats)
from repro.experiments.configs import baseline_config, constable_config
from repro.experiments.faults import FAULT_PLAN_ENV
from repro.experiments.parallel import (
    JOB_TIMEOUT_ENV,
    MAX_RETRIES_ENV,
    ParallelExperimentRunner,
)
from repro.experiments.runner import ExperimentRunner, SweepExecutionError
from repro.experiments.warehouse import (
    COUNTERS_TABLE,
    ROWS_TABLE,
    WAREHOUSE_SCHEMA_VERSION,
    WarehouseRow,
    WarehouseWriter,
    aggregate_rows,
    compact_warehouse,
    decode_rows,
    encode_rows,
    read_rows,
    read_table,
    rebuild_warehouse,
    scan_object_store,
    speedup_summary,
    verify_warehouse,
    warehouse_dir,
    warehouse_present,
    warehouse_stats,
)
from repro.pipeline.cpu import CORE_ENGINE_ENV
from repro.pipeline.stats import PipelineStats, SimulationResult

#: Reduced sweep shared by the differential tests: 2 workloads, short traces.
SUITES = ("Client", "Server")
INSTRUCTIONS = 1200


@pytest.fixture(autouse=True)
def _no_inherited_knobs(monkeypatch):
    """Tests opt into chaos/engine overrides explicitly."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    monkeypatch.delenv(MAX_RETRIES_ENV, raising=False)
    monkeypatch.delenv(JOB_TIMEOUT_ENV, raising=False)
    monkeypatch.delenv(CORE_ENGINE_ENV, raising=False)


def _dump(rows):
    """Rows as a canonical JSON string: float bits compare exactly."""
    return json.dumps([row.to_dict() for row in rows], sort_keys=True)


def _run_sweep(cache_dir, workers=1, pairs=0):
    """One baseline+constable sweep committed to ``cache_dir``, plus the
    baseline over the first ``pairs`` SMT2 pairs."""
    if workers > 1:
        runner = ParallelExperimentRunner(
            per_suite=1, instructions=INSTRUCTIONS, suites=SUITES,
            max_workers=workers, cache=ResultCache(cache_dir))
    else:
        runner = ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                  suites=SUITES, cache=ResultCache(cache_dir))
    with runner:
        for name, factory in (("baseline", baseline_config),
                              ("constable", constable_config)):
            runner.run_config(name, factory())
        if pairs:
            runner.run_smt_config("baseline", baseline_config(), max_pairs=pairs)


def _synthetic_result(workload="client_00", config="baseline", cycles=100,
                      instructions=250):
    stats = PipelineStats()
    stats.loads_renamed = 10
    stats.eliminated_loads_retired = 3
    stats.value_predicted_loads = 1
    return SimulationResult(trace_name=workload, config_name=config,
                            cycles=cycles, instructions=instructions,
                            stats=stats, power_events={"l1d_accesses": 7})


def _synthetic_key(tag: str) -> str:
    import hashlib
    return hashlib.sha256(tag.encode("utf-8")).hexdigest()


def _row_dict():
    return {"key": "ab" + "0" * 62, "kind": "result", "workload": "client_00",
            "suite": "Client", "config": "baseline", "cycles": 100,
            "instructions": 250, "ipc": 2.5, "coverage": 0.4, "power": 1.0,
            "l1d_accesses": 7, "schema": SCHEMA_VERSION}


# ------------------------------------------------------------ codec properties


_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
_NAME = st.text(max_size=24)  # unicode by default, including empty
_ROW = st.builds(
    WarehouseRow,
    key=st.text(alphabet="0123456789abcdef", min_size=8, max_size=64),
    kind=st.sampled_from(["result", "smt"]),
    workload=_NAME, suite=_NAME, config=_NAME,
    cycles=st.integers(min_value=0, max_value=2**63 - 1),
    instructions=st.integers(min_value=0, max_value=2**63 - 1),
    ipc=_FINITE, coverage=_FINITE, power=_FINITE,
    l1d_accesses=st.integers(min_value=0, max_value=2**63 - 1),
    schema=st.integers(min_value=0, max_value=10**6),
)
_COUNTER = st.fixed_dictionaries({
    "cache": st.sampled_from(["ResultCache", "ReportCache", "SweepSupervisor"]),
    "counters": st.dictionaries(
        st.sampled_from(["hits", "misses", "stores", "evictions"]),
        st.integers(min_value=0, max_value=2**31)),
})

#: The crash-safety battery runs over every table of the shared protocol;
#: each case is ``(table, record strategy, one sample record)``.
_TABLE_CASES = {
    "rows": (ROWS_TABLE, _ROW, WarehouseRow.from_dict(_row_dict())),
    "counters": (COUNTERS_TABLE, _COUNTER,
                 {"cache": "ResultCache", "counters": {"hits": 2, "misses": 1}}),
}
each_table = pytest.mark.parametrize("case", list(_TABLE_CASES))


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(_ROW, max_size=20))
def test_codec_round_trip_is_exact(rows):
    """encode → JSON → decode reproduces every row exactly (zero-cycle
    results, unicode names and adversarial finite floats included)."""
    payload = json.loads(json.dumps(encode_rows(rows)))
    assert decode_rows(payload) == rows


@each_table
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_append_compact_equivalence(case, data):
    """Whatever records the writer appended, compaction never changes what
    the table's fold reads (canonical rows; per-class counter sums)."""
    table, strategy, _ = _TABLE_CASES[case]
    records = data.draw(st.lists(strategy, max_size=12))
    with tempfile.TemporaryDirectory() as tmp:
        writer = WarehouseWriter(tmp, table)
        for record in records:
            assert writer.append(record)
        before = table.fold(read_table(tmp, table))
        assert before == table.fold(records)
        compact_warehouse(tmp)
        assert table.fold(read_table(tmp, table)) == before
        # Compacting a compacted table is a no-op.
        assert compact_warehouse(tmp) == 0
        assert table.fold(read_table(tmp, table)) == before


def test_codec_rejects_malformed_segments():
    rows = [WarehouseRow.from_dict(_row_dict())]
    good = encode_rows(rows)
    with pytest.raises(ValueError):
        decode_rows({**good, "warehouse_schema": WAREHOUSE_SCHEMA_VERSION + 1})
    with pytest.raises(ValueError):
        decode_rows({**good, "columns": "nope"})
    ragged = json.loads(json.dumps(good))
    ragged["columns"]["ipc"] = []
    with pytest.raises(ValueError):
        decode_rows(ragged)
    missing = json.loads(json.dumps(good))
    del missing["columns"]["cycles"]
    with pytest.raises(ValueError):
        decode_rows(missing)


# --------------------------------------------------------- differential core


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_warehouse_bit_identical_to_object_store(tmp_path, workers):
    """The tentpole differential: after a real sweep at N workers, SMT2 pair
    included, the warehouse read equals a full object-store decode
    bit-for-bit — and stays equal after compaction and after a rebuild."""
    _run_sweep(tmp_path, workers=workers, pairs=1)
    reference = _dump(scan_object_store(tmp_path, SCHEMA_VERSION))
    assert warehouse_present(tmp_path)
    (pair_row,) = [row for row in read_rows(tmp_path) if row.kind == "smt"]
    assert pair_row.workload == "client_00+server_00"
    assert pair_row.suite == "Client+Server"
    assert _dump(read_rows(tmp_path)) == reference
    compact_warehouse(tmp_path)
    assert _dump(read_rows(tmp_path)) == reference
    rebuild_warehouse(tmp_path, SCHEMA_VERSION)
    assert _dump(read_rows(tmp_path)) == reference
    report = verify_warehouse(tmp_path, SCHEMA_VERSION)
    assert report["missing"] == [] and report["extra"] == []


def test_both_engines_produce_identical_rows(tmp_path, monkeypatch):
    """Engine parity extends to the warehouse: the cycle engine's rows (keys
    included — engines are excluded from cache keys) equal the event
    engine's bit-for-bit."""
    _run_sweep(tmp_path / "event")
    monkeypatch.setenv(CORE_ENGINE_ENV, "cycle")
    _run_sweep(tmp_path / "cycle")
    event_rows = _dump(read_rows(tmp_path / "event"))
    cycle_rows = _dump(read_rows(tmp_path / "cycle"))
    assert event_rows == cycle_rows


def test_chaos_partial_wave_then_resume_agrees_with_journal(tmp_path,
                                                            monkeypatch):
    """A dead-lettered sweep journals its successes — and the warehouse must
    list exactly those journaled entries, before and after ``--resume``."""
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
        "sim:baseline/client_00": {"kind": "raise", "times": 99,
                                   "scope": "anywhere"},
    }))
    with ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                  suites=SUITES, max_workers=2, max_retries=0,
                                  retry_backoff_seconds=0.0,
                                  cache=ResultCache(tmp_path)) as runner:
        with pytest.raises(SweepExecutionError):
            runner.run_config("baseline", baseline_config())

    # Partial wave: only server_00 was journaled; the warehouse agrees.
    partial = verify_warehouse(tmp_path, SCHEMA_VERSION)
    assert partial["entries"] == 1
    assert partial["missing"] == [] and partial["extra"] == []
    assert _dump(read_rows(tmp_path)) == _dump(
        scan_object_store(tmp_path, SCHEMA_VERSION))

    monkeypatch.delenv(FAULT_PLAN_ENV)
    resumed = ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                               suites=SUITES, cache=ResultCache(tmp_path))
    resumed.run_config("baseline", baseline_config())
    assert resumed.cache.stats.hits == 1    # server_00 came from the journal
    assert resumed.cache.stats.stores == 1  # only client_00 re-executed

    final = verify_warehouse(tmp_path, SCHEMA_VERSION)
    assert final["entries"] == 2
    assert final["missing"] == [] and final["extra"] == []
    assert _dump(read_rows(tmp_path)) == _dump(
        scan_object_store(tmp_path, SCHEMA_VERSION))


def test_query_aggregates_bit_identical_to_object_store_path(tmp_path):
    """The aggregates ``repro query`` serves (geomean/median rollups and the
    speedup join) are byte-identical whether the rows came from warehouse
    segments or from full object-store decodes."""
    _run_sweep(tmp_path, workers=2)
    compact_warehouse(tmp_path)
    tabular = read_rows(tmp_path)
    decoded = scan_object_store(tmp_path, SCHEMA_VERSION)
    for metric, agg, group in (("ipc", "geomean", "config"),
                               ("ipc", "median", "suite"),
                               ("coverage", "geomean", "config"),
                               ("power", "median", None),
                               ("cycles", "sum", "workload")):
        left = json.dumps(aggregate_rows(tabular, metric, agg=agg,
                                         group_by=group), sort_keys=True)
        right = json.dumps(aggregate_rows(decoded, metric, agg=agg,
                                          group_by=group), sort_keys=True)
        assert left == right, (metric, agg, group)
    assert (json.dumps(speedup_summary(tabular, group_by="suite"),
                       sort_keys=True)
            == json.dumps(speedup_summary(decoded, group_by="suite"),
                          sort_keys=True))


def test_query_reads_zero_object_store_decodes(tmp_path, monkeypatch, capsys):
    """Acceptance criterion: on a warm multi-sweep cache, ``repro query``
    must read only warehouse files.  The record decoder is patched to
    explode, so a single object-store body read fails the test."""
    _run_sweep(tmp_path, pairs=1)
    compact_warehouse(tmp_path)

    def explode(cls_data):
        raise AssertionError("object-store body decoded on the query path")

    monkeypatch.setattr(SimulationResult, "from_dict", explode)
    for argv in (["query", "--cache-dir", str(tmp_path)],
                 ["query", "--cache-dir", str(tmp_path), "--json"],
                 ["query", "--cache-dir", str(tmp_path), "--metric", "ipc",
                  "--group-by", "suite"],
                 ["query", "--cache-dir", str(tmp_path), "--speedup-over",
                  "baseline", "--group-by", "suite"],
                 ["query", "--cache-dir", str(tmp_path), "--kind", "smt"]):
        assert main(argv) == 0, argv
        assert capsys.readouterr().out


def test_query_falls_back_to_object_store_without_warehouse(tmp_path,
                                                            capsys):
    """A pre-warehouse cache (no rows table) still answers queries via the
    object-store fallback, and ``rebuild`` then migrates it losslessly."""
    _run_sweep(tmp_path)
    for path in warehouse_dir(tmp_path).glob(f"*{ROWS_TABLE.log_suffix}"):
        path.unlink()
    assert not warehouse_present(tmp_path)
    assert main(["query", "--cache-dir", str(tmp_path), "--json"]) == 0
    fallback = capsys.readouterr().out

    rows, replaced = rebuild_warehouse(tmp_path, SCHEMA_VERSION)
    assert rows == 4 and replaced == 0
    assert warehouse_present(tmp_path)
    assert main(["query", "--cache-dir", str(tmp_path), "--json"]) == 0
    assert capsys.readouterr().out == fallback


# ----------------------------------------------------------- crash-safety


@each_table
def test_torn_tail_line_is_skipped(tmp_path, case):
    table, _, record = _TABLE_CASES[case]
    log = WarehouseWriter(tmp_path, table).append(record)
    assert log is not None
    with log.open("a", encoding="utf-8") as handle:
        handle.write('{"torn": "mid-wri')  # crash mid-append
    assert read_table(tmp_path, table) == [record]


@each_table
def test_superseded_leftovers_never_double_count(tmp_path, case):
    """A compactor that died after writing its segment but before unlinking
    the sources leaves both on disk; readers must count each record once,
    and the next compaction removes the leftovers."""
    table, _, record = _TABLE_CASES[case]
    source = WarehouseWriter(tmp_path, table).append(record)
    assert source is not None
    source_text = source.read_text(encoding="utf-8")
    assert compact_warehouse(tmp_path) == 1
    # Resurrect the folded source, as if the unlink never happened.
    source.write_text(source_text, encoding="utf-8")
    assert read_table(tmp_path, table) == [record]
    compact_warehouse(tmp_path)
    assert not source.exists()
    assert read_table(tmp_path, table) == [record]


def test_two_writer_compaction_stress(tmp_path):
    """Two threads, each appending rows and counter flushes through its own
    cache and compacting concurrently: no operation may raise, and every
    key and every counted store must survive."""
    errors = []
    barrier = threading.Barrier(2)

    def worker(name: str) -> None:
        cache = ResultCache(tmp_path)
        barrier.wait()
        try:
            for index in range(40):
                cache.put(_synthetic_key(f"{name}-{index}"),
                          _synthetic_result(config=name))
                if index % 5 == 0:
                    cache.persist_stats()
                if index % 7 == 0:
                    compact_warehouse(tmp_path)
            cache.persist_stats()
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(name,)) for name in "AB"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert not errors, errors

    compact_warehouse(tmp_path)
    rows = read_rows(tmp_path)
    assert len(rows) == 80
    assert {row.key for row in rows} == {
        _synthetic_key(f"{name}-{index}") for name in "AB"
        for index in range(40)}
    assert _dump(rows) == _dump(scan_object_store(tmp_path, SCHEMA_VERSION))
    assert persisted_cache_stats(tmp_path)["total"]["stores"] == 80


def test_rebuild_keeps_rows_committed_while_it_runs(tmp_path, monkeypatch):
    """A put whose append lands after rebuild's object-store scan keeps its
    row: rebuild holds the compaction lock and every log's flock from before
    the scan until after the unlink, so the blocked append then finds its
    log folded and rotates to a fresh one."""
    import repro.experiments.warehouse as warehouse

    cache = ResultCache(tmp_path)
    cache.put(_synthetic_key("before"), _synthetic_result())  # log now open
    late = threading.Thread(target=cache.put, args=(
        _synthetic_key("during"), _synthetic_result(config="constable")))
    real_scan = warehouse.scan_object_store

    def scan_then_put(directory, schema_version):
        rows = real_scan(directory, schema_version)
        late.start()
        late.join(timeout=0.5)  # lands now, or waits on the log's flock
        return rows

    monkeypatch.setattr(warehouse, "scan_object_store", scan_then_put)
    rebuild_warehouse(tmp_path, SCHEMA_VERSION)
    late.join(timeout=30)
    assert not late.is_alive()
    report = verify_warehouse(tmp_path, SCHEMA_VERSION)
    assert report["entries"] == 2
    assert report["missing"] == []


def test_rebuild_fails_loudly_while_another_compactor_runs(tmp_path, capsys):
    """Rebuild takes the compaction lock; losing it is an error, never a
    silent no-op, and the existing rows stay untouched."""
    ResultCache(tmp_path).put(_synthetic_key("kept"), _synthetic_result())
    before = read_rows(tmp_path)
    (warehouse_dir(tmp_path) / ".compact.lock").touch()
    assert main(["warehouse", "rebuild", "--cache-dir", str(tmp_path)]) == 1
    assert "rebuild failed" in capsys.readouterr().err
    assert read_rows(tmp_path) == before


@each_table
def test_stale_compaction_lock_does_not_wedge(tmp_path, case):
    """A lock from a dead compactor blocks one pass, is broken once stale,
    and the following pass proceeds."""
    table, _, record = _TABLE_CASES[case]
    assert WarehouseWriter(tmp_path, table).append(record)
    lock = warehouse_dir(tmp_path) / ".compact.lock"
    lock.touch()
    assert compact_warehouse(tmp_path) == 0  # held: no fold
    assert lock.exists()
    old = 10_000.0
    os.utime(lock, (old, old))
    assert compact_warehouse(tmp_path) == 0  # stale: broken, still no fold
    assert not lock.exists()
    assert compact_warehouse(tmp_path) == 1  # and now the fold happens
    assert read_table(tmp_path, table) == [record]


# ------------------------------------------------------ wiring and CLI layer


def test_cache_clear_removes_warehouse(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(_synthetic_key("gone"), _synthetic_result())
    assert warehouse_present(tmp_path)
    assert cache.clear() >= 2  # the entry and its warehouse row file
    assert not warehouse_present(tmp_path)
    assert read_rows(tmp_path) == []


def test_append_failures_are_absorbed(tmp_path):
    """Warehouse I/O failure must never fail a put: the entry still lands."""
    cache = ResultCache(tmp_path)
    # A file where the warehouse directory should be makes every append fail.
    warehouse_dir(tmp_path).write_text("not a directory", encoding="utf-8")
    cache.put(_synthetic_key("ok"), _synthetic_result())
    assert cache.get(_synthetic_key("ok")) is not None
    assert not cache.warehouse.append(WarehouseRow.from_dict(_row_dict()))


def test_warehouse_verify_cli_exit_codes(tmp_path, capsys):
    _run_sweep(tmp_path)
    assert main(["warehouse", "verify", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()

    # Remove one warehouse row file -> a journaled entry loses its row.
    for path in warehouse_dir(tmp_path).glob("*.rows.jsonl"):
        path.unlink()
    assert main(["warehouse", "verify", "--cache-dir", str(tmp_path)]) == 1
    assert "missing" in capsys.readouterr().out
    assert main(["warehouse", "rebuild", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["warehouse", "verify", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()

    # Evict an entry behind the warehouse's back: benign unless --strict.
    entry = next(iter(tmp_path.glob("*/*.json")))
    entry.unlink()
    assert main(["warehouse", "verify", "--cache-dir", str(tmp_path)]) == 0
    assert "benign" in capsys.readouterr().out
    assert main(["warehouse", "verify", "--strict",
                 "--cache-dir", str(tmp_path)]) == 1
    capsys.readouterr()


def test_cache_stats_reports_warehouse(tmp_path, capsys):
    _run_sweep(tmp_path)
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    assert "warehouse" in capsys.readouterr().out
    assert main(["cache", "stats", "--json",
                 "--cache-dir", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["warehouse"]["present"] is True
    assert payload["warehouse"]["rows"] == 4
    assert payload["warehouse"]["by_kind"] == {"result": 4}
    # entries (envelope scan) and rows (columnar scan) agree.
    assert payload["warehouse"]["rows"] == payload["entries"]


def test_cache_gc_compacts_warehouse(tmp_path, capsys):
    _run_sweep(tmp_path)
    assert warehouse_stats(tmp_path)["row_files"] >= 1
    assert main(["cache", "gc", "--max-mb", "64",
                 "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    summary = warehouse_stats(tmp_path)
    assert summary["row_files"] == 0
    assert summary["segments"] == 1
    assert summary["rows"] == 4


def test_query_rejects_unknown_family(tmp_path):
    with pytest.raises(SystemExit):
        main(["query", "--cache-dir", str(tmp_path), "--family", "nope"])


def test_query_family_filter_selects_config_subset(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    cache.put(_synthetic_key("a"), _synthetic_result(config="baseline"))
    cache.put(_synthetic_key("b"), _synthetic_result(config="constable"))
    cache.put(_synthetic_key("c"), _synthetic_result(config="not-a-family"))
    assert main(["query", "--cache-dir", str(tmp_path), "--family", "main",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["baseline", "constable"]


def test_figures_warehouse_harness(tmp_path, monkeypatch, capsys):
    from repro.experiments.figures import warehouse_speedup_summary
    _run_sweep(tmp_path)
    compact_warehouse(tmp_path)
    result = warehouse_speedup_summary(cache_dir=str(tmp_path))
    assert result["tabular"] is True
    assert result["rows"] == 4
    assert "constable" in result["speedups"]
    assert "GEOMEAN" in result["speedups"]["constable"]
    assert "warehouse" in result["text"]
    # Addressable through the CLI figure registry too.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["figures", "warehouse", "--cache-dir", str(tmp_path),
                 "--per-suite", "1", "--instructions",
                 str(INSTRUCTIONS)]) == 0
    assert "cross-sweep speedups" in capsys.readouterr().out
