"""The append-only tables under a cache directory: results rows and counters.

The object store under a cache directory holds one JSON blob per simulation
(:mod:`repro.experiments.cache`), which is the right shape for *replaying* a
result but the wrong shape for *analytics*: every ``repro cache stats`` or
cross-sweep aggregation ("geomean speedup by suite across all cached sweeps")
would otherwise re-decode thousands of full per-entry payloads.  This module
keeps append-only tables next to the object store, under
``<cache-dir>/.warehouse/``, so aggregation reads records instead of blobs:

* **The rows table** (:data:`ROWS_TABLE`) holds one flat, engine-independent
  :class:`WarehouseRow` per committed entry, appended by
  :class:`ResultCache.put` (``cache.py``).  Every commit path
  funnels through that method (serial and parallel runners,
  orchestrated waves, partial-wave journals, the rerun of a failed wave), so
  the rows can never disagree with the cache journal: a journaled entry and
  its row are written by the same ``put`` call.
* **The counters table** (:data:`COUNTERS_TABLE`) holds the cache hit/miss,
  orchestrator dedup and runner health (job, dead-letter) counter records
  that ``cache.py`` flushes and ``repro cache stats`` sums.

Both tables share one protocol:

* **Append.**  :class:`WarehouseWriter` appends one JSON line per record to
  a per-process log that no other writer touches.  I/O failures are
  absorbed: both tables are observability, never a correctness
  requirement.
* **Read.**  :func:`read_table` parses every log of a table, skipping torn
  or malformed lines and unreadable files.
* **Rebuild.**  :func:`rebuild_warehouse` appends a row for each journaled
  entry that has none (``repro warehouse rebuild``), which repairs rows
  lost or deleted.  Nothing is rewritten or removed, so no writer ever
  waits on another.  Row derivation is a pure function of ``(key, entry
  payload)`` — identical on the write path and the rebuild path — which is
  what the differential suite in ``tests/test_warehouse.py`` proves
  bit-for-bit.

:func:`load_rows` serves ``repro query`` and ``repro cache stats`` from the
rows table alone (zero object-store decodes), counting only the rows of the
current ``SCHEMA_VERSION``; ``repro warehouse verify`` reports entries that
have no row.

File suffixes are deliberately never ``.json``: the object store's entry
scans glob ``*/*.json`` and must not mistake table files for entries.

Bump :data:`WAREHOUSE_SCHEMA_VERSION` whenever the row layout changes;
RL003 pins :meth:`WarehouseRow.to_dict`'s key set against it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import uuid
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from repro.analysis.stats_utils import filtered_geomean, median
from repro.pipeline.stats import SimulationResult
from repro.power.power_model import CorePowerModel
from repro.workloads.suites import get_workload_spec

#: Subdirectory of a cache directory holding every table's files.
WAREHOUSE_SUBDIR = ".warehouse"

#: Version of the warehouse row layout; bump on any row-shape change
#: (RL003 gates :meth:`WarehouseRow.to_dict` drift on this constant).
WAREHOUSE_SCHEMA_VERSION = 1

#: The coercion of each declared column type (the annotations are strings).
_COLUMN_TYPES = {"str": str, "int": int, "float": float}


@dataclasses.dataclass
class WarehouseRow:
    """One flat, engine-independent analytics row per cached result.

    Every field derives purely from the cache key and the entry payload, so
    the write path (live result object) and :func:`rebuild_warehouse`
    (decoded payload) produce bit-identical rows.  ``key`` is the cache key
    (already engine-independent by the RL002 purity contract), ``kind`` is
    ``result`` for one thread and ``smt`` for an SMT2 pair, ``schema`` the
    ``SCHEMA_VERSION`` of the source cache entry.
    """

    key: str
    kind: str
    workload: str
    suite: str
    config: str
    cycles: int
    instructions: int
    ipc: float
    coverage: float
    power: float
    l1d_accesses: int
    schema: int

    def to_dict(self) -> Dict[str, object]:
        """The row as a plain dictionary (the JSON object of its log line)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WarehouseRow":
        """Rebuild a row from :meth:`to_dict` output, coercing each field to
        its declared type (missing keys raise)."""
        return cls(**{field.name: _COLUMN_TYPES[field.type](data[field.name])
                      for field in dataclasses.fields(cls)})


#: Column order of the flat row schema: the row's fields.
ROW_COLUMNS = tuple(field.name for field in dataclasses.fields(WarehouseRow))

#: Metrics ``repro query`` can aggregate: the numeric columns but ``schema``.
QUERY_METRICS = tuple(field.name for field in dataclasses.fields(WarehouseRow)
                      if field.type != "str" and field.name != "schema")


# ------------------------------------------------------------- row derivation


def suite_of(workload: str) -> str:
    """The suite label a workload name resolves to via the registry.

    SMT pair names (``a+b``) resolve each thread and join with ``+``.  Names
    outside the registry — custom specs constructed in tests — resolve to the
    empty string.  Both the write path and the rebuild path derive suites
    through this one function, so the two can never disagree on a row.
    """
    suites = []
    for part in workload.split("+"):
        try:
            suites.append(get_workload_spec(part).suite)
        except KeyError:
            suites.append("")
    return "+".join(suites) if any(suites) else ""


def _coverage_of(result: SimulationResult) -> float:
    """Fraction of renamed loads eliminated or value-predicted (0.0 if none)."""
    stats = result.stats
    covered = stats.eliminated_loads_retired + stats.value_predicted_loads
    if stats.loads_renamed <= 0:
        return 0.0
    return covered / stats.loads_renamed


def row_for_result(key: str, result: SimulationResult,
                   schema_version: int) -> WarehouseRow:
    """The warehouse row of one result entry; its kind follows the thread count."""
    return WarehouseRow(
        key=key,
        kind="smt" if len(result.per_thread) > 1 else "result",
        workload=result.trace_name,
        suite=suite_of(result.trace_name),
        config=result.config_name,
        cycles=result.cycles,
        instructions=result.instructions,
        ipc=result.ipc,
        coverage=_coverage_of(result),
        power=CorePowerModel().evaluate(result.power_events).total,
        l1d_accesses=int(result.power_events.get("l1d_accesses", 0)),
        schema=schema_version,
    )


def canonical_rows(rows: Sequence[WarehouseRow]) -> List[WarehouseRow]:
    """Deduplicate by key and impose the canonical row order.

    Entries are content-addressed, so two rows sharing a key are identical;
    the first occurrence wins.  The order — ``(kind, config, workload, key)``
    — is a pure function of row content, so the same logical warehouse always
    reads back identically however its rows are spread over logs (the
    bit-identity anchor of the differential suite).
    """
    seen: Dict[str, WarehouseRow] = {}
    for row in rows:
        seen.setdefault(row.key, row)
    return sorted(seen.values(),
                  key=lambda r: (r.kind, r.config, r.workload, r.key))


# -------------------------------------------------------------------- tables


def _counter_record(data: Dict[str, object]) -> Dict[str, object]:
    """Validate one counters-table record; raises when it is malformed.

    A record is ``{"cache": <source class>, <block>: {<counter>: int}, ...}``:
    ``counters`` for a cache's hit/miss/store/eviction deltas, ``dedup`` for
    an orchestrated wave, ``health`` for a runner's job and dead-letter
    counters.
    """
    record: Dict[str, object] = {"cache": str(data["cache"])}
    for block, counters in data.items():
        if block != "cache":
            record[block] = {str(name): int(value)
                             for name, value in counters.items()}
    return record


@dataclasses.dataclass(frozen=True)
class Table:
    """One append-only table under ``<cache-dir>/.warehouse/``.

    Every table shares one protocol: :class:`WarehouseWriter` appends and
    :func:`read_table` reads.  A table only declares its log suffix and its
    codec.  Records go to ``*<log_suffix>`` JSONL logs, one record per line;
    no table's suffix matches another table's glob.
    """

    log_suffix: str
    #: One record as the JSON object of its log line, and back (raising on
    #: a malformed line, which readers then skip).
    to_json: Callable[[object], Dict[str, object]]
    from_json: Callable[[Dict[str, object]], object]


#: One :class:`WarehouseRow` per cached result.
ROWS_TABLE = Table(log_suffix=".rows.jsonl", to_json=WarehouseRow.to_dict,
                   from_json=WarehouseRow.from_dict)

#: Counter records (see :func:`_counter_record`), which their readers sum.
COUNTERS_TABLE = Table(log_suffix=".counters.jsonl", to_json=dict,
                       from_json=_counter_record)


# ---------------------------------------------------------------- write path


def warehouse_dir(directory: Union[str, Path]) -> Path:
    """The warehouse subdirectory of a cache directory."""
    return Path(directory) / WAREHOUSE_SUBDIR


class WarehouseWriter:
    """Appends records to one per-process JSONL log of a table.

    Each writer owns one log: :class:`~repro.experiments.cache.ResultCache`
    keeps one for its rows, and each process keeps one per directory for
    every counter flush of its caches and waves.  The
    file name embeds the pid and a fresh UUID, so any number of concurrent
    processes (the N hosts of a sharded sweep) append without contention.
    No other writer writes, renames or deletes the log; if ``repro cache
    clear`` deletes it, the next append recreates it.  Each append is a
    single ``O_APPEND``-mode line write, so a crash can tear at most the
    final line — which the readers skip — and every line before it stays
    intact.  Append I/O failures are absorbed: both tables are
    observability, never a correctness requirement.
    """

    def __init__(self, directory: Union[str, Path],
                 table: Table = ROWS_TABLE):
        self.directory = warehouse_dir(directory)
        self.table = table
        self._path: Optional[Path] = None

    def append(self, record: object) -> Optional[Path]:
        """Append one record; returns its log file, or None on I/O failure."""
        line = (json.dumps(self.table.to_json(record), sort_keys=True)
                .encode("utf-8") + b"\n")
        if self._path is None:
            self._path = self.directory / (
                f"{os.getpid()}-{uuid.uuid4().hex}{self.table.log_suffix}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(self._path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
        except OSError:
            return None
        return self._path


# ----------------------------------------------------------------- read path


def read_table(directory: Union[str, Path], table: Table) -> List[object]:
    """Every record of ``table``, in file order.

    Reads only the table's logs — never an object-store entry.  Torn or
    malformed lines are skipped, and so are unreadable files: one bad writer
    must never poison analytics for every host sharing the directory.
    """
    records: List[object] = []
    for path in sorted(warehouse_dir(directory).glob(f"*{table.log_suffix}")):
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, ValueError):
            continue
        for line in text.splitlines():
            try:
                records.append(table.from_json(json.loads(line)))
            except (ValueError, KeyError, TypeError, AttributeError):
                continue
    return records


def read_rows(directory: Union[str, Path]) -> List[WarehouseRow]:
    """Every warehouse row, deduplicated and in canonical order.

    Reads only warehouse files — never an object-store entry — so this is
    the zero-decode path the acceptance criterion instruments.
    """
    return canonical_rows(read_table(directory, ROWS_TABLE))


def load_rows(directory: Union[str, Path], schema_version: int) -> List[WarehouseRow]:
    """The rows of entries written under ``schema_version``, for analytics.

    Reads the rows table alone (zero object-store decodes).  Rows of any
    other schema, left by sweeps from before a ``SCHEMA_VERSION`` bump, are
    not counted, so no aggregate mixes two timing models.
    """
    return [row for row in read_rows(directory) if row.schema == schema_version]


def _journal_entries(directory: Union[str, Path], schema_version: int
                     ) -> Iterator[Tuple[str, Dict[str, object]]]:
    """``(key, payload)`` of every result entry of ``schema_version`` in the
    object store, in path order; unreadable, report and other-schema
    entries are skipped."""
    for path in sorted(Path(directory).glob("*/*.json")):
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            continue
        if (isinstance(payload, dict)
                and payload.get("schema") == schema_version
                and payload.get("kind", "result") == "result"):
            yield str(payload.get("key", path.stem)), payload


def scan_object_store(directory: Union[str, Path],
                      schema_version: int) -> List[WarehouseRow]:
    """Derive every row straight from the object store (full JSON decodes).

    The slow path, and the source of ``repro warehouse rebuild``.  Undecodable
    payloads are skipped along with the entries :func:`_journal_entries`
    skips, matching what the write path would have appended.
    """
    rows: List[WarehouseRow] = []
    for key, payload in _journal_entries(directory, schema_version):
        try:
            rows.append(row_for_result(
                key, SimulationResult.from_dict(payload["result"]),
                schema_version))
        except (ValueError, KeyError, TypeError):
            continue
    return canonical_rows(rows)


# ------------------------------------------------------------ rebuild / clear


def rebuild_warehouse(directory: Union[str, Path], schema_version: int) -> int:
    """Append a row for each journaled entry of ``schema_version`` that has
    none (``repro warehouse rebuild``); returns the number appended.

    The rows come from :func:`scan_object_store`, and all of them go to one
    new log.  Nothing is rewritten or removed, so a put that lands while a
    rebuild runs keeps its row; if both append the same row,
    :func:`canonical_rows` reads it once.  Raises ``OSError`` when an append
    fails: unlike a put, an explicitly requested rebuild must fail loudly.
    """
    present = {row.key for row in load_rows(directory, schema_version)}
    writer = WarehouseWriter(directory)
    appended = 0
    for row in scan_object_store(directory, schema_version):
        if row.key in present:
            continue
        if writer.append(row) is None:
            raise OSError(f"cannot append to {writer.directory}")
        appended += 1
    return appended


def clear_warehouse(directory: Union[str, Path]) -> int:
    """Delete every file under ``.warehouse/`` (``repro cache clear``),
    whatever an earlier version left there too; returns the count."""
    removed = 0
    for path in warehouse_dir(directory).glob("*"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


# ------------------------------------------------------------------ analytics


def warehouse_stats(directory: Union[str, Path],
                    schema_version: int) -> Dict[str, object]:
    """Summary of the rows table for ``repro cache stats``: files, rows, kinds.

    Reads the table alone (zero object-store decodes).  The files and bytes
    cover the whole table; the row counts cover the rows of
    ``schema_version``, as :func:`load_rows` does.
    """
    summary: Dict[str, object] = {
        "row_files": 0, "total_bytes": 0, "rows": 0, "by_kind": {},
        "by_config": {},
    }
    for path in warehouse_dir(directory).glob(f"*{ROWS_TABLE.log_suffix}"):
        summary["row_files"] += 1
        try:
            summary["total_bytes"] += path.stat().st_size
        except OSError:
            pass
    rows = load_rows(directory, schema_version)
    summary["rows"] = len(rows)
    for row in rows:
        summary["by_kind"][row.kind] = summary["by_kind"].get(row.kind, 0) + 1
        summary["by_config"][row.config] = (
            summary["by_config"].get(row.config, 0) + 1)
    return summary


def verify_warehouse(directory: Union[str, Path],
                     schema_version: int) -> Dict[str, object]:
    """Compare warehouse keys against the object-store journal (envelope-only).

    Both sides count ``schema_version`` alone.  ``missing`` keys — journaled
    entries with no warehouse row — mean the warehouse disagrees with the
    journal and ``repro warehouse verify`` exits non-zero.  ``extra`` keys
    are rows whose entries were since GC-evicted: the warehouse deliberately
    keeps history, so they fail only ``--strict``.
    """
    entry_keys = {key for key, _ in _journal_entries(directory, schema_version)}
    row_keys = {row.key for row in load_rows(directory, schema_version)}
    return {
        "entries": len(entry_keys),
        "rows": len(row_keys),
        "missing": sorted(entry_keys - row_keys),
        "extra": sorted(row_keys - entry_keys),
    }


def filter_rows(rows: Sequence[WarehouseRow],
                kind: Optional[str] = None,
                suite: Optional[str] = None,
                config: Optional[str] = None,
                workload: Optional[str] = None) -> List[WarehouseRow]:
    """Rows matching every given filter (None matches everything).

    ``suite`` matches any ``+``-joined component, so ``Client`` selects the
    SMT rows of ``Client+Server`` pairs too.
    """
    selected = []
    for row in rows:
        if kind is not None and row.kind != kind:
            continue
        if suite is not None and suite not in row.suite.split("+"):
            continue
        if config is not None and row.config != config:
            continue
        if workload is not None and row.workload != workload:
            continue
        selected.append(row)
    return selected


#: Aggregation functions ``repro query --agg`` selects from.  ``geomean``
#: and ``median`` share their implementations with every other aggregation
#: path in the repo, so query output is bit-comparable with figure output.
QUERY_AGGREGATES = {
    "geomean": filtered_geomean,
    "median": median,
    "mean": lambda values: (sum(values) / len(values)) if values else 0.0,
    "sum": sum,
    "count": len,
    "min": lambda values: min(values) if values else 0.0,
    "max": lambda values: max(values) if values else 0.0,
}


def aggregate_rows(rows: Sequence[WarehouseRow], metric: str,
                   agg: str = "geomean",
                   group_by: Optional[str] = None) -> Dict[str, float]:
    """Aggregate one metric column, optionally grouped by a label column.

    ``metric`` must be one of :data:`QUERY_METRICS` and ``agg`` a key of
    :data:`QUERY_AGGREGATES`; ``group_by`` is ``suite``/``config``/
    ``workload``/``kind`` (None aggregates everything under ``"all"``).
    Groups come back sorted, so output is deterministic.
    """
    if metric not in QUERY_METRICS:
        raise ValueError(f"unknown metric {metric!r}; "
                         f"available: {list(QUERY_METRICS)}")
    if agg not in QUERY_AGGREGATES:
        raise ValueError(f"unknown aggregate {agg!r}; "
                         f"available: {sorted(QUERY_AGGREGATES)}")
    grouped: Dict[str, List[float]] = {}
    for row in rows:
        group = getattr(row, group_by) if group_by else "all"
        grouped.setdefault(group, []).append(float(getattr(row, metric)))
    reduce = QUERY_AGGREGATES[agg]
    return {group: float(reduce(values))
            for group, values in sorted(grouped.items())}


def speedup_summary(rows: Sequence[WarehouseRow],
                    baseline: str = "baseline",
                    group_by: Optional[str] = None
                    ) -> Dict[str, Dict[str, float]]:
    """Geomean speedups of every config against ``baseline`` from rows alone.

    Each row is joined to the baseline row of the same ``(kind, workload,
    instructions)`` — every config of one sweep retires the same trace, so
    the triple identifies the job across sweeps of different budgets, and
    an SMT2 pair only ever meets its own baseline pair — and the ratio is
    ``baseline cycles / config cycles``, skipping degenerate zero-cycle runs
    exactly like :meth:`ExperimentRunner.speedups`.  Pass one kind's rows to
    keep single-thread and SMT2 ratios out of one geomean.  Returns
    ``{config: {group: geomean}}`` with group ``GEOMEAN`` always present (the
    overall geomean); ``group_by`` adds one geomean per value of that label
    column, as :func:`aggregate_rows` groups.
    """
    base_cycles = {(row.kind, row.workload, row.instructions): row.cycles
                   for row in rows if row.config == baseline}
    summary: Dict[str, Dict[str, float]] = {}
    ratios: Dict[str, List[Tuple[str, float]]] = {}
    for row in rows:
        if row.config == baseline:
            continue
        base = base_cycles.get((row.kind, row.workload, row.instructions))
        if base is None or base <= 0 or row.cycles <= 0:
            continue
        group = getattr(row, group_by) if group_by else ""
        ratios.setdefault(row.config, []).append((group, base / row.cycles))
    for config in sorted(ratios):
        values = ratios[config]
        block = {"GEOMEAN": filtered_geomean([v for _, v in values])}
        if group_by:
            grouped: Dict[str, List[float]] = {}
            for group, value in values:
                grouped.setdefault(group, []).append(value)
            for group in sorted(grouped):
                block[group] = filtered_geomean(grouped[group])
        summary[config] = block
    return summary
