"""Differential and property battery for the append-only results warehouse.

The warehouse (:mod:`repro.experiments.warehouse`) is a derived analytics
index over the object store, and derived data earns trust only by proof of
losslessness.  Four layers of evidence here:

* **Round-trip properties** (hypothesis): the rows table's line codec is
  exact, and, over both tables of the shared protocol (result rows and
  counters), whatever records a writer appends read back exactly and in
  order — unicode workload names, zero-cycle results, adversarial finite
  floats.
* **The differential core**: after real sweeps at 1, 2 and 4 workers, under
  both execution engines, through a dead-lettered partial-wave journal and
  the rerun that completes it, and after ``rebuild``, every warehouse read
  must be **bit-identical** to deriving the same rows from full
  object-store decodes (:func:`scan_object_store`) — compared through JSON
  so float bits cannot hide behind repr.
* **Zero-decode instrumentation**: ``repro query`` on a warm warehouse is
  run with ``SimulationResult.from_dict`` patched to explode, proving the
  read path touches no object-store body.
* **Crash-safety**: torn JSONL tails are skipped in both tables, two
  concurrent writer threads cannot corrupt either table, a rebuild never
  loses a row committed while it runs and fails loudly when it cannot
  append, and ``repro warehouse verify`` flags a warehouse that disagrees
  with the cache journal.
"""

from __future__ import annotations

import functools
import json
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.cache as cache_module
from repro.cli import main
from repro.experiments.cache import (SCHEMA_VERSION, ResultCache,
                                     persisted_cache_stats)
from repro.experiments.configs import baseline_config, constable_config
from repro.experiments.parallel import ParallelExperimentRunner
from repro.experiments.runner import ExperimentRunner, SweepExecutionError
from repro.experiments.warehouse import (
    COUNTERS_TABLE,
    ROWS_TABLE,
    WarehouseRow,
    WarehouseWriter,
    aggregate_rows,
    read_rows,
    read_table,
    rebuild_warehouse,
    scan_object_store,
    speedup_summary,
    verify_warehouse,
    warehouse_dir,
)
from repro.pipeline.cpu import OutOfOrderCore
from repro.pipeline.stats import PipelineStats, SimulationResult

#: Reduced sweep shared by the differential tests: 2 workloads, short traces.
SUITES = ("Client", "Server")
INSTRUCTIONS = 1200


def _dump(rows):
    """Rows as a canonical JSON string: float bits compare exactly."""
    return json.dumps([row.to_dict() for row in rows], sort_keys=True)


def _run_sweep(cache_dir, workers=1, pairs=0, smt_configs=("baseline",)):
    """One baseline+constable sweep committed to ``cache_dir``, plus each of
    ``smt_configs`` over the first ``pairs`` SMT2 pairs; returns the closed
    runner, whose committed results stay readable."""
    if workers > 1:
        runner = ParallelExperimentRunner(
            per_suite=1, instructions=INSTRUCTIONS, suites=SUITES,
            max_workers=workers, cache=ResultCache(cache_dir))
    else:
        runner = ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                  suites=SUITES, cache=ResultCache(cache_dir))
    configs = {"baseline": baseline_config, "constable": constable_config}
    with runner:
        for name, factory in configs.items():
            runner.run_config(name, factory())
        if pairs:
            for name in smt_configs:
                runner.run_smt_config(name, configs[name](), max_pairs=pairs)
    return runner


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


# ------------------------------------------------------- round-trip properties


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

#: The round-trip and torn-tail tests run over every table of the shared
#: protocol; each case is ``(table, record strategy, one sample record)``.
_TABLE_CASES = {
    "rows": (ROWS_TABLE, _ROW, WarehouseRow.from_dict(_row_dict())),
    "counters": (COUNTERS_TABLE, _COUNTER,
                 {"cache": "ResultCache", "counters": {"hits": 2, "misses": 1}}),
}
each_table = pytest.mark.parametrize("case", list(_TABLE_CASES))


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(_ROW, max_size=20))
def test_codec_round_trip_is_exact(rows):
    """The rows table's line codec — to_json → JSON text → from_json —
    reproduces every row exactly (zero-cycle results, unicode names and
    adversarial finite floats included)."""
    lines = [json.dumps(ROWS_TABLE.to_json(row), sort_keys=True)
             for row in rows]
    assert [ROWS_TABLE.from_json(json.loads(line)) for line in lines] == rows


@each_table
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_append_read_round_trip_is_exact(case, data):
    """Whatever records the writer appended read back exactly and in order
    (zero-cycle results, unicode names and adversarial finite floats
    included)."""
    table, strategy, _ = _TABLE_CASES[case]
    records = data.draw(st.lists(strategy, max_size=20))
    with tempfile.TemporaryDirectory() as tmp:
        writer = WarehouseWriter(tmp, table)
        for record in records:
            assert writer.append(record)
        assert read_table(tmp, table) == records


# --------------------------------------------------------- differential core


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_warehouse_bit_identical_to_object_store(tmp_path, workers):
    """The tentpole differential: after a real sweep at N workers, SMT2 pair
    included, the warehouse read equals a full object-store decode
    bit-for-bit — and a rebuild finds no row to append."""
    _run_sweep(tmp_path, workers=workers, pairs=1)
    reference = _dump(scan_object_store(tmp_path, SCHEMA_VERSION))
    assert read_rows(tmp_path)
    (pair_row,) = [row for row in read_rows(tmp_path) if row.kind == "smt"]
    assert pair_row.workload == "client_00+server_00"
    assert pair_row.suite == "Client+Server"
    assert _dump(read_rows(tmp_path)) == reference
    assert rebuild_warehouse(tmp_path, SCHEMA_VERSION) == 0
    assert _dump(read_rows(tmp_path)) == reference
    report = verify_warehouse(tmp_path, SCHEMA_VERSION)
    assert report["missing"] == [] and report["extra"] == []


def test_both_engines_produce_identical_rows(tmp_path, monkeypatch):
    """Engine parity extends to the warehouse: the cycle engine's rows (keys
    included — engines are excluded from cache keys) equal the event
    engine's bit-for-bit."""
    _run_sweep(tmp_path / "event")
    monkeypatch.setattr("repro.pipeline.cpu.OutOfOrderCore",
                        functools.partial(OutOfOrderCore, engine="cycle"))
    _run_sweep(tmp_path / "cycle")
    event_rows = _dump(read_rows(tmp_path / "event"))
    cycle_rows = _dump(read_rows(tmp_path / "cycle"))
    assert event_rows == cycle_rows


def test_chaos_partial_wave_then_resume_agrees_with_journal(tmp_path,
                                                            fail_job):
    """A dead-lettered sweep journals its successes — and the warehouse must
    list exactly those journaled entries, before and after the rerun."""
    fail_job("baseline", "client_00")
    with ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                  suites=SUITES, max_workers=2,
                                  cache=ResultCache(tmp_path)) as runner:
        with pytest.raises(SweepExecutionError):
            runner.run_config("baseline", baseline_config())

    # Partial wave: only server_00 was journaled; the warehouse agrees.
    partial = verify_warehouse(tmp_path, SCHEMA_VERSION)
    assert partial["entries"] == 1
    assert partial["missing"] == [] and partial["extra"] == []
    assert _dump(read_rows(tmp_path)) == _dump(
        scan_object_store(tmp_path, SCHEMA_VERSION))

    fail_job.disarm()
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
    logs or from full object-store decodes."""
    _run_sweep(tmp_path, workers=2)
    from_table = read_rows(tmp_path)
    decoded = scan_object_store(tmp_path, SCHEMA_VERSION)
    for metric, agg, group in (("ipc", "geomean", "config"),
                               ("ipc", "median", "suite"),
                               ("coverage", "geomean", "config"),
                               ("power", "median", None),
                               ("cycles", "sum", "workload")):
        left = json.dumps(aggregate_rows(from_table, metric, agg=agg,
                                         group_by=group), sort_keys=True)
        right = json.dumps(aggregate_rows(decoded, metric, agg=agg,
                                          group_by=group), sort_keys=True)
        assert left == right, (metric, agg, group)
    assert (json.dumps(speedup_summary(from_table, group_by="suite"),
                       sort_keys=True)
            == json.dumps(speedup_summary(decoded, group_by="suite"),
                          sort_keys=True))


def test_query_reads_zero_object_store_decodes(tmp_path, monkeypatch, capsys):
    """Acceptance criterion: on a warm multi-sweep cache, ``repro query``
    must read only warehouse files.  The record decoder is patched to
    explode, so a single object-store body read fails the test."""
    _run_sweep(tmp_path, pairs=1)

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


def test_rebuild_restores_a_deleted_rows_table(tmp_path, capsys):
    """Rows lost behind the cache's back are reported, never served from a
    second reader: ``warehouse verify`` names every journaled entry left
    without a row, and ``rebuild`` appends them losslessly, once."""
    _run_sweep(tmp_path)
    assert main(["query", "--cache-dir", str(tmp_path), "--json"]) == 0
    before = capsys.readouterr().out
    for path in warehouse_dir(tmp_path).glob(f"*{ROWS_TABLE.log_suffix}"):
        path.unlink()
    assert read_rows(tmp_path) == []
    assert main(["warehouse", "verify", "--cache-dir", str(tmp_path)]) == 1
    named = {line.split()[-1] for line in capsys.readouterr().out.splitlines()
             if line.startswith("  missing: ")}
    assert named == {path.stem for path in tmp_path.glob("*/*.json")}
    assert len(named) == 4

    assert rebuild_warehouse(tmp_path, SCHEMA_VERSION) == 4
    assert rebuild_warehouse(tmp_path, SCHEMA_VERSION) == 0
    assert main(["query", "--cache-dir", str(tmp_path), "--json"]) == 0
    assert capsys.readouterr().out == before


def test_queries_ignore_rows_of_another_schema(tmp_path, monkeypatch, capsys):
    """Rows a sweep wrote before a ``SCHEMA_VERSION`` bump stay in the table
    but out of every count: the query overview, ``cache stats`` and
    ``warehouse verify`` see the current schema's rows alone, so no
    aggregate mixes two timing models."""
    with monkeypatch.context() as old_schema:
        old_schema.setattr(cache_module, "SCHEMA_VERSION", SCHEMA_VERSION - 1)
        _run_sweep(tmp_path)
    _run_sweep(tmp_path)
    assert len(read_rows(tmp_path)) == 8

    assert main(["query", "--cache-dir", str(tmp_path), "--json"]) == 0
    overview = json.loads(capsys.readouterr().out)
    assert {config: block["rows"] for config, block in overview.items()} == {
        "baseline": 2, "constable": 2}
    assert main(["cache", "stats", "--json",
                 "--cache-dir", str(tmp_path)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["warehouse"]["rows"] == stats["by_kind"]["result"] == 4
    assert len(stats["stale_schema"]) == 4
    assert main(["warehouse", "verify", "--strict",
                 "--cache-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("group_by", ["workload", "kind", "config"])
def test_speedup_over_groups_by_any_label_column(tmp_path, capsys, group_by):
    """``--speedup-over`` adds one geomean per value of the ``--group-by``
    column, whichever label column it names, beside ``GEOMEAN``."""
    runner = _run_sweep(tmp_path)
    assert main(["query", "--cache-dir", str(tmp_path), "--json",
                 "--speedup-over", "baseline", "--group-by", group_by]) == 0
    block = json.loads(capsys.readouterr().out)["constable"]
    overall = block.pop("GEOMEAN")
    expected = {"workload": runner.speedups("constable"),
                "kind": {"result": overall},
                "config": {"constable": overall}}[group_by]
    assert block == pytest.approx(expected, rel=1e-12)


def test_speedup_over_reads_smt_pairs(tmp_path, capsys):
    """``--kind smt --speedup-over`` joins each SMT2 pair to its own
    baseline pair, and without ``--kind`` the table still reads the
    single-thread rows alone."""
    runner = _run_sweep(tmp_path, pairs=1,
                        smt_configs=("baseline", "constable"))
    pair = runner.smt_pairs(1)[0]
    base = runner.smt_results("baseline", 1)[pair]
    config = runner.smt_results("constable", 1)[pair]
    argv = ["query", "--cache-dir", str(tmp_path), "--json",
            "--speedup-over", "baseline"]
    assert main(argv + ["--kind", "smt", "--group-by", "workload"]) == 0
    summary = json.loads(capsys.readouterr().out)
    ratio = base.cycles / config.cycles
    assert list(summary) == ["constable"]
    assert summary["constable"] == pytest.approx(
        {"GEOMEAN": ratio, "+".join(pair): ratio}, rel=1e-12)
    assert main(argv) == 0
    block = json.loads(capsys.readouterr().out)["constable"]
    assert block == pytest.approx(
        {"GEOMEAN": runner.geomean_speedup("constable")}, rel=1e-12)


# ----------------------------------------------------------- crash-safety


@each_table
def test_torn_tail_line_is_skipped(tmp_path, case):
    table, _, record = _TABLE_CASES[case]
    log = WarehouseWriter(tmp_path, table).append(record)
    assert log is not None
    with log.open("a", encoding="utf-8") as handle:
        handle.write('{"torn": "mid-wri')  # crash mid-append
    assert read_table(tmp_path, table) == [record]


def test_two_writer_stress(tmp_path):
    """Two threads, each appending rows and counter flushes through its own
    cache concurrently: no operation may raise, and every key and every
    counted store must survive."""
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

    rows = read_rows(tmp_path)
    assert len(rows) == 80
    assert {row.key for row in rows} == {
        _synthetic_key(f"{name}-{index}") for name in "AB"
        for index in range(40)}
    assert _dump(rows) == _dump(scan_object_store(tmp_path, SCHEMA_VERSION))
    assert persisted_cache_stats(tmp_path)["total"]["stores"] == 80


def test_rebuild_keeps_rows_committed_while_it_runs(tmp_path, monkeypatch):
    """A put whose append lands after rebuild's object-store scan keeps its
    row: rebuild only appends, so nothing it does can remove the late row,
    and the late put never waits on it."""
    import repro.experiments.warehouse as warehouse

    cache = ResultCache(tmp_path)
    cache.put(_synthetic_key("before"), _synthetic_result())  # log now open
    late = threading.Thread(target=cache.put, args=(
        _synthetic_key("during"), _synthetic_result(config="constable")))
    real_scan = warehouse.scan_object_store

    def scan_then_put(directory, schema_version):
        rows = real_scan(directory, schema_version)
        late.start()
        late.join(timeout=30)
        return rows

    monkeypatch.setattr(warehouse, "scan_object_store", scan_then_put)
    rebuild_warehouse(tmp_path, SCHEMA_VERSION)
    late.join(timeout=30)
    assert not late.is_alive()
    report = verify_warehouse(tmp_path, SCHEMA_VERSION)
    assert report["entries"] == 2
    assert report["missing"] == []


def test_rebuild_fails_loudly_when_it_cannot_append(tmp_path, capsys):
    """A rebuild that cannot append a missing row is an error, never a
    silent no-op: a file where ``.warehouse/`` should be makes every append
    fail, so the journaled entry's row stays missing."""
    warehouse_dir(tmp_path).write_text("not a directory", encoding="utf-8")
    ResultCache(tmp_path).put(_synthetic_key("kept"), _synthetic_result())
    assert verify_warehouse(tmp_path, SCHEMA_VERSION)["missing"]
    assert main(["warehouse", "rebuild", "--cache-dir", str(tmp_path)]) == 1
    assert "rebuild failed" in capsys.readouterr().err


# ------------------------------------------------------ wiring and CLI layer


def test_cache_clear_removes_warehouse(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(_synthetic_key("gone"), _synthetic_result())
    assert read_rows(tmp_path)
    assert cache.clear() >= 2  # the entry and its warehouse row file
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
    assert payload["warehouse"]["rows"] == 4
    assert payload["warehouse"]["by_kind"] == {"result": 4}
    # entries (envelope scan) and rows (rows-table scan) agree.
    assert payload["warehouse"]["rows"] == payload["entries"]


def test_query_overview_averages_coverage(tmp_path, capsys):
    """A config that covers no load reads 0 in the overview, not the
    geomean's empty-input 1.0: coverage is averaged, as fig. 16 does."""
    cache = ResultCache(tmp_path)
    for tag, workload, config, covered in (
            ("a", "client_00", "baseline", False),
            ("b", "client_01", "baseline", False),
            ("c", "client_00", "constable", True),
            ("d", "client_01", "constable", False)):
        result = _synthetic_result(workload=workload, config=config)
        if not covered:
            result.stats.eliminated_loads_retired = 0
            result.stats.value_predicted_loads = 0
        cache.put(_synthetic_key(tag), result)
    assert main(["query", "--cache-dir", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["baseline"]["mean_coverage"] == 0.0
    assert payload["constable"]["mean_coverage"] == pytest.approx(0.2)
    assert main(["query", "--cache-dir", str(tmp_path)]) == 0
    assert "mean coverage" in capsys.readouterr().out


def test_figures_warehouse_harness(tmp_path, capsys):
    """The cross-sweep speedup table by suite, the one ``repro figures
    warehouse`` used to print, is ``repro query``'s over the rows table,
    and it agrees with the runner that swept them."""
    runner = _run_sweep(tmp_path)
    argv = ["query", "--cache-dir", str(tmp_path), "--speedup-over",
            "baseline", "--group-by", "suite"]
    assert main(argv + ["--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == json.loads(json.dumps(
        speedup_summary(read_rows(tmp_path), group_by="suite")))
    assert summary["constable"] == pytest.approx(
        runner.speedups_by_suite("constable"), rel=1e-12)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "speedup over baseline" in out and "constable" in out
