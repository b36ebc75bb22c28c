"""The crash-safe tables under a cache directory: results rows and counters.

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
  orchestrated waves, partial-wave journals, ``--resume`` re-execution), so
  the rows can never disagree with the cache journal: a journaled entry and
  its row are written by the same ``put`` call.
* **The counters table** (:data:`COUNTERS_TABLE`) holds the cache hit/miss,
  orchestrator dedup and supervision-health counter records that
  ``cache.py`` flushes and ``repro cache stats`` sums.

Both tables share one protocol:

* **Append.**  :class:`WarehouseWriter` appends one JSON line per record to
  a per-process log.  I/O failures are absorbed: both tables are
  observability, never a correctness requirement.
* **Read.**  :func:`read_table` returns a table's live records from its logs
  and segments, excluding leftovers a crashed compactor had already folded.
* **Compact.**  :func:`compact_warehouse` folds each table's files into one
  segment: an ``O_EXCL`` lock serialises compactors, every log is
  ``flock``-ed for the fold, the segment lists the sources it ``folded`` so
  readers exclude leftover originals, and a failed write rolls back to the
  originals.  The rows fold is :func:`canonical_rows`; the counters fold
  sums each counter per source class.
* **Rebuild.**  :func:`rebuild_warehouse` is the same locked fold of the rows
  table, with a fold that re-derives every row from the object store
  (``repro warehouse rebuild``), so pre-warehouse caches migrate losslessly.
  Row derivation is a pure function of ``(key, entry payload)`` — identical
  on the write path and the rebuild path — which is what the differential
  suite in ``tests/test_warehouse.py`` proves bit-for-bit.

:func:`load_rows` serves ``repro query``, ``repro cache stats`` and the
``warehouse`` figure harness from the rows table alone (zero object-store
decodes); when the table is absent it falls back to an in-memory
object-store scan, so analytics never require a migration first.

File suffixes are deliberately never ``.json``: the object store's entry
scans glob ``*/*.json`` and must not mistake table files for entries.

Bump :data:`WAREHOUSE_SCHEMA_VERSION` whenever the row layout changes;
RL003 pins :meth:`WarehouseRow.to_dict`'s key set against it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import json
import os
import tempfile
import time
import uuid
from pathlib import Path
from typing import (IO, Callable, Dict, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union)

from repro.analysis.stats_utils import filtered_geomean, median
from repro.pipeline.stats import SimulationResult
from repro.power.power_model import CorePowerModel
from repro.workloads.suites import get_workload_spec

#: Subdirectory of a cache directory holding every table's files.
WAREHOUSE_SUBDIR = ".warehouse"

#: Version of the warehouse row/segment layout; bump on any row-shape change
#: (RL003 gates :meth:`WarehouseRow.to_dict` drift on this constant).
WAREHOUSE_SCHEMA_VERSION = 1

#: A compaction lock older than this is from a dead compactor and may be broken.
_COMPACT_LOCK_STALE_SECONDS = 3600.0

#: Column order of the flat row schema.  ``key`` is the cache key (already
#: engine-independent by the RL002 purity contract), ``kind`` is ``result``
#: for one thread and ``smt`` for an SMT2 pair, ``schema`` the
#: ``SCHEMA_VERSION`` of the source cache entry.
ROW_COLUMNS = ("key", "kind", "workload", "suite", "config", "cycles",
               "instructions", "ipc", "coverage", "power", "l1d_accesses",
               "schema")

#: Metrics ``repro query`` can aggregate (numeric row columns).
QUERY_METRICS = ("ipc", "cycles", "instructions", "coverage", "power",
                 "l1d_accesses")


@dataclasses.dataclass
class WarehouseRow:
    """One flat, engine-independent analytics row per cached result.

    Every field derives purely from the cache key and the entry payload, so
    the write path (live result object) and :func:`rebuild_warehouse`
    (decoded payload) produce bit-identical rows.
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
        """The row as a plain dictionary (JSONL/columnar form)."""
        return {
            "key": self.key,
            "kind": self.kind,
            "workload": self.workload,
            "suite": self.suite,
            "config": self.config,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "coverage": self.coverage,
            "power": self.power,
            "l1d_accesses": self.l1d_accesses,
            "schema": self.schema,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WarehouseRow":
        """Rebuild a row from :meth:`to_dict` output (missing keys raise)."""
        return cls(
            key=str(data["key"]),
            kind=str(data["kind"]),
            workload=str(data["workload"]),
            suite=str(data["suite"]),
            config=str(data["config"]),
            cycles=int(data["cycles"]),
            instructions=int(data["instructions"]),
            ipc=float(data["ipc"]),
            coverage=float(data["coverage"]),
            power=float(data["power"]),
            l1d_accesses=int(data["l1d_accesses"]),
            schema=int(data["schema"]),
        )


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
    reads back identically whatever mixture of row files and segments holds
    it (the bit-identity anchor of the differential suite).
    """
    seen: Dict[str, WarehouseRow] = {}
    for row in rows:
        seen.setdefault(row.key, row)
    return sorted(seen.values(),
                  key=lambda r: (r.kind, r.config, r.workload, r.key))


# ------------------------------------------------------------- columnar codec


def encode_rows(rows: Sequence[WarehouseRow]) -> Dict[str, object]:
    """Encode rows into the columnar (struct-of-arrays) segment payload."""
    dicts = [row.to_dict() for row in rows]
    return {
        "warehouse_schema": WAREHOUSE_SCHEMA_VERSION,
        "rows": len(dicts),
        "columns": {name: [entry[name] for entry in dicts]
                    for name in ROW_COLUMNS},
    }


def decode_rows(payload: Dict[str, object]) -> List[WarehouseRow]:
    """Decode one columnar segment payload back into rows.

    Raises ``ValueError`` on a schema mismatch or ragged/missing columns, so
    callers treat a malformed segment as absent rather than half-reading it.
    """
    if payload.get("warehouse_schema") != WAREHOUSE_SCHEMA_VERSION:
        raise ValueError("warehouse schema mismatch")
    columns = payload.get("columns")
    if not isinstance(columns, dict):
        raise ValueError("segment carries no columns")
    count = int(payload.get("rows", -1))
    series: List[List[object]] = []
    for name in ROW_COLUMNS:
        column = columns.get(name)
        if not isinstance(column, list) or len(column) != count:
            raise ValueError(f"column {name!r} missing or ragged")
        series.append(column)
    return [WarehouseRow.from_dict(dict(zip(ROW_COLUMNS, values)))
            for values in zip(*series)] if count else []


# -------------------------------------------------------------------- tables


def _counter_record(data: Dict[str, object]) -> Dict[str, object]:
    """Validate one counters-table record; raises when it is malformed.

    A record is ``{"cache": <source class>, <block>: {<counter>: int}, ...}``:
    ``counters`` for a cache's hit/miss/store/eviction deltas, ``dedup`` for
    an orchestrated wave, ``health`` for a runner's supervision counters.
    """
    record: Dict[str, object] = {"cache": str(data["cache"])}
    for block, counters in data.items():
        if block != "cache":
            record[block] = {str(name): int(value)
                             for name, value in counters.items()}
    return record


def _sum_counters(records: Sequence[Dict[str, object]]
                  ) -> List[Dict[str, object]]:
    """The counters fold: one record per source class, every counter summed.

    Counters are plain sums, so the folded records aggregate exactly like
    their originals; classes come back sorted, so folding is idempotent.
    """
    folded: Dict[str, Dict[str, object]] = {}
    for record in records:
        target = folded.setdefault(record["cache"], {"cache": record["cache"]})
        for block, counters in record.items():
            if block == "cache":
                continue
            bucket = target.setdefault(block, {})
            for name, value in counters.items():
                bucket[name] = bucket.get(name, 0) + value
    return [folded[name] for name in sorted(folded)]


@dataclasses.dataclass(frozen=True)
class Table:
    """One append-only table under ``<cache-dir>/.warehouse/``.

    Every table shares one crash-safe protocol: :class:`WarehouseWriter`
    appends, :func:`read_table` reads and :func:`compact_warehouse` folds.  A
    table only declares its file suffixes, its codecs and its fold.  Live
    records go to ``*<log_suffix>`` JSONL logs, one record per line, and
    compaction writes ``*<segment_suffix>`` segments; no table's suffix
    matches another table's globs.
    """

    log_suffix: str
    segment_suffix: str
    #: One record as the JSON object of its log line, and back (raising on
    #: a malformed line, which readers then skip).
    to_json: Callable[[object], Dict[str, object]]
    from_json: Callable[[Dict[str, object]], object]
    #: Records as a segment payload, and back (raising on a malformed
    #: segment, which readers then skip whole).
    encode: Callable[[Sequence[object]], Dict[str, object]]
    decode: Callable[[Dict[str, object]], List[object]]
    #: What compaction writes for the live records.
    fold: Callable[[Sequence[object]], List[object]]


#: One :class:`WarehouseRow` per cached result, in columnar segments.
ROWS_TABLE = Table(log_suffix=".rows.jsonl", segment_suffix=".whseg",
                   to_json=WarehouseRow.to_dict,
                   from_json=WarehouseRow.from_dict,
                   encode=encode_rows, decode=decode_rows,
                   fold=canonical_rows)

#: Counter records (see :func:`_counter_record`), folded per source class.
COUNTERS_TABLE = Table(
    log_suffix=".counters.jsonl", segment_suffix=".counters.seg",
    to_json=dict, from_json=_counter_record,
    encode=lambda records: {"records": list(records)},
    decode=lambda payload: [_counter_record(data)
                            for data in payload["records"]],
    fold=_sum_counters)

#: Every table under a cache directory, in the order compaction folds them.
TABLES = (ROWS_TABLE, COUNTERS_TABLE)


# ---------------------------------------------------------------- write path


def warehouse_dir(directory: Union[str, Path]) -> Path:
    """The warehouse subdirectory of a cache directory."""
    return Path(directory) / WAREHOUSE_SUBDIR


class WarehouseWriter:
    """Appends records to one per-process JSONL log of a table.

    Each writer owns one log: :class:`~repro.experiments.cache.ResultCache`
    keeps one for its rows and every cache one for its counter flushes.  The
    file name embeds the pid and a fresh UUID, so any number of concurrent
    processes (the N hosts of a sharded sweep) append without contention.
    Each append is a single ``O_APPEND``-mode line write, so a crash can tear
    at most the final line — which the readers skip — and every line before
    it stays intact.  Append I/O failures are absorbed: both tables are
    observability, never a correctness requirement.

    Appends and compaction coordinate through an advisory ``flock`` per log:
    the compactor locks every log before its final read and unlink, and an
    appender that acquires the lock only to find its file already folded
    (the path no longer names its inode) rotates to a fresh file and retries
    — so a record can never land in the window between a compactor's read
    and its unlink and silently vanish.
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
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            # Bounded retry: each miss means a compactor folded our file
            # around this append, and the next round rotates to a fresh name.
            # A folded *name* is never reused (O_EXCL on a new UUID, never
            # O_CREAT on the old path): segments list folded names to hide
            # leftover sources, so recreating one would hide live records.
            for _ in range(4):
                if self._path is None:
                    self._path = self.directory / (
                        f"{os.getpid()}-{uuid.uuid4().hex}"
                        f"{self.table.log_suffix}")
                    fd = os.open(self._path,
                                 os.O_WRONLY | os.O_APPEND | os.O_CREAT
                                 | os.O_EXCL)
                else:
                    try:
                        fd = os.open(self._path, os.O_WRONLY | os.O_APPEND)
                    except FileNotFoundError:
                        # A compactor folded and unlinked our file.
                        self._path = None
                        continue
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                    if os.fstat(fd).st_nlink == 0:
                        # Unlinked between our open and our lock: this inode
                        # was already folded; the record must go elsewhere.
                        self._path = None
                        continue
                    os.write(fd, line)
                    return self._path
                finally:
                    os.close(fd)
            return None
        except OSError:
            return None


def _write_segment(directory: Path, payload: Dict[str, object],
                   name: str) -> None:
    """Atomically write one segment file (temp file + rename).

    The temp prefix starts with a dot, so a compactor that dies mid-write
    leaves an orphan the ``repro cache verify`` scan surfaces (and
    ``--purge`` cleans).  Raises ``OSError`` once the temp file is removed.
    """
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=directory,
        prefix=".wh.", suffix=".tmp", delete=False)
    try:
        with handle:
            json.dump(payload, handle)
        os.replace(handle.name, directory / name)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------- read path


def _parse_log(text: str, table: Table) -> List[object]:
    """Records of one JSONL log; torn or malformed lines are skipped."""
    records: List[object] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            records.append(table.from_json(json.loads(line)))
        except (ValueError, KeyError, TypeError, AttributeError):
            continue
    return records


def _sources(base: Path, table: Table,
             locked: Optional[List[IO[str]]] = None
             ) -> Tuple[List[Tuple[Path, List[object]]], List[Path]]:
    """Every parseable file of ``table`` as ``(live sources, leftovers)``.

    A segment lists the files it ``folded``; any of those still on disk (a
    compactor died between writing its segment and unlinking the sources)
    is excluded from the live set and returned separately, so the crash
    window can never double-count.  Unreadable files are skipped: one bad
    writer must never poison analytics for every host sharing the directory.
    With ``locked``, each log is ``flock``-ed before its read and its open
    handle appended to ``locked``, for a compactor to hold until its fold
    commits.
    """
    parsed: List[Tuple[Path, List[object]]] = []
    superseded: Set[str] = set()
    # Segments are immutable once renamed into place: read them plainly.
    for path in sorted(base.glob(f"*{table.segment_suffix}")):
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
            records = table.decode(payload)
            folded = [str(name) for name in payload.get("folded", [])]
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            continue
        superseded.update(folded)
        parsed.append((path, records))
    for path in sorted(base.glob(f"*{table.log_suffix}")):
        try:
            handle = path.open("r", encoding="utf-8")
        except OSError:
            continue
        try:
            if locked is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            records = _parse_log(handle.read(), table)
        except (OSError, ValueError):
            handle.close()
            continue
        if locked is None:
            handle.close()
        else:
            locked.append(handle)
        parsed.append((path, records))
    stale = [path for path, _ in parsed if path.name in superseded]
    live = [(path, records) for path, records in parsed
            if path.name not in superseded]
    return live, stale


def read_table(directory: Union[str, Path], table: Table) -> List[object]:
    """Every live record of ``table``, in file order.

    Reads only the table's files — never an object-store entry — and
    excludes leftovers a crashed compactor had already folded.
    """
    live, _ = _sources(warehouse_dir(directory), table)
    return [record for _, records in live for record in records]


def warehouse_present(directory: Union[str, Path]) -> bool:
    """Whether any rows-table file exists under the cache directory."""
    base = warehouse_dir(directory)
    return any(next(base.glob(f"*{suffix}"), None) is not None
               for suffix in (ROWS_TABLE.segment_suffix,
                              ROWS_TABLE.log_suffix))


def read_rows(directory: Union[str, Path]) -> List[WarehouseRow]:
    """Every live warehouse row, deduplicated and in canonical order.

    Reads only warehouse files — never an object-store entry — so this is
    the zero-decode path the acceptance criterion instruments.
    """
    return canonical_rows(read_table(directory, ROWS_TABLE))


def scan_object_store(directory: Union[str, Path],
                      schema_version: int) -> List[WarehouseRow]:
    """Derive every row straight from the object store (full JSON decodes).

    The slow path: used by ``repro warehouse rebuild`` to migrate existing
    caches and by :func:`load_rows` as the fallback when no warehouse files
    exist yet.  Entries with a different schema version, report entries and
    undecodable payloads are skipped, matching what the write path would
    have appended.
    """
    rows: List[WarehouseRow] = []
    base = Path(directory)
    if not base.is_dir():
        return rows
    for path in sorted(base.glob("*/*.json")):
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            continue
        if not isinstance(payload, dict):
            continue
        if (payload.get("schema") != schema_version
                or payload.get("kind", "result") != "result"):
            continue
        key = str(payload.get("key", path.stem))
        try:
            rows.append(row_for_result(
                key, SimulationResult.from_dict(payload["result"]),
                schema_version))
        except (ValueError, KeyError, TypeError):
            continue
    return canonical_rows(rows)


def load_rows(directory: Union[str, Path], schema_version: int,
              allow_fallback: bool = True) -> List[WarehouseRow]:
    """Rows for analytics: warehouse segments first, object store as fallback.

    When any rows-table file exists the read is tabular-only (zero object
    decodes); a cache with no rows table — written before this layer
    existed — falls back to :func:`scan_object_store` unless
    ``allow_fallback`` is off.
    """
    if warehouse_present(directory):
        return read_rows(directory)
    if allow_fallback:
        return scan_object_store(directory, schema_version)
    return []


# ------------------------------------------------------- compaction / rebuild


@contextlib.contextmanager
def _compaction_lock(base: Path) -> Iterator[bool]:
    """Hold the directory's ``O_EXCL`` compaction lock for the ``with`` body.

    Yields False, without waiting, when another compactor holds the lock.
    A lock older than :data:`_COMPACT_LOCK_STALE_SECONDS` is from a dead
    compactor: it is broken — after a re-stat, so a lock refreshed since is
    left alone — and the *next* caller takes it.
    """
    lock = base / ".compact.lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        try:
            if time.time() - lock.stat().st_mtime > _COMPACT_LOCK_STALE_SECONDS:
                lock.unlink()
        except OSError:
            pass
        fd = None
    except OSError:
        fd = None
    if fd is None:
        yield False
        return
    try:
        yield True
    finally:
        os.close(fd)
        try:
            lock.unlink()
        except OSError:
            pass


def _fold_table(base: Path, table: Table,
                fold: Callable[[Sequence[object]], List[object]],
                force: bool = False) -> Tuple[int, int]:
    """Replace every file of ``table`` by one segment of ``fold(records)``.

    The caller holds the compaction lock.  Every log is ``flock``-ed before
    its final read and held until the fold commits: an appender either lands
    its record before that read (it is folded) or finds its file gone and
    rotates to a fresh one (it survives the fold) — never in between.  Only
    files read here are replaced; one created after the glob keeps its
    records.  The segment lists every file it replaces as ``folded``, so
    readers exclude leftovers of a compactor that dies before unlinking
    them.  A failed segment write raises ``OSError`` and leaves the
    originals authoritative.  Unless ``force``, a table already held in at
    most one segment is left alone.  Returns ``(files removed, records
    written)``.
    """
    locked: List[IO[str]] = []
    try:
        live, stale = _sources(base, table, locked)
        files = [path for path, _ in live] + stale
        settled = len(files) <= 1 and not any(
            path.name.endswith(table.log_suffix) for path in files)
        if settled and not force:
            return 0, 0
        records = fold([record for _, batch in live for record in batch])
        payload = table.encode(records)
        payload.update({"pid": os.getpid(), "written_at": time.time(),
                        "compacted": True,
                        "folded": [path.name for path in files]})
        _write_segment(base, payload,
                       f"compacted-{uuid.uuid4().hex}{table.segment_suffix}")
        removed = 0
        for path in files:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed, len(records)
    finally:
        for handle in locked:
            handle.close()


def compact_warehouse(directory: Union[str, Path]) -> int:
    """Fold each table's live files into one segment per table.

    Each process appends its own logs, so a long-lived shared directory
    accumulates them; ``repro cache gc`` and ``repro warehouse compact``
    call this to keep the file count at one per table.  Concurrent
    compactors are serialised by one ``O_EXCL`` lock (the loser is a no-op),
    and a table whose segment write fails keeps its originals.  Readers
    racing a compaction of the counters table may transiently double- or
    under-count — acceptable for advisory counters.  Returns files removed.
    """
    base = warehouse_dir(directory)
    removed = 0
    with _compaction_lock(base) as held:
        if held:
            for table in TABLES:
                try:
                    removed += _fold_table(base, table, table.fold)[0]
                except OSError:
                    pass  # rolled back: this table's originals stay live
    return removed


def rebuild_warehouse(directory: Union[str, Path],
                      schema_version: int) -> Tuple[int, int]:
    """Regenerate the rows table from the object store.

    A compaction of the rows table whose fold discards the table's records
    for :func:`scan_object_store`.  The scan runs under the compaction lock
    and the log flocks, so a row appended meanwhile either reached its log
    before the fold (its entry was committed first, so the scan sees it) or
    rotates to a fresh log that survives.  Returns ``(rows written, files
    replaced)``.  Raises ``OSError`` when another compactor holds the lock
    or the segment cannot be written: unlike compaction, an explicitly
    requested rebuild must fail loudly.
    """
    base = warehouse_dir(directory)
    base.mkdir(parents=True, exist_ok=True)
    with _compaction_lock(base) as held:
        if not held:
            raise OSError(f"another compaction of {base} is in progress")
        replaced, rows = _fold_table(
            base, ROWS_TABLE,
            lambda _: scan_object_store(directory, schema_version),
            force=True)
    return rows, replaced


def clear_warehouse(directory: Union[str, Path]) -> int:
    """Delete every table's files (``repro cache clear``); returns count."""
    base = warehouse_dir(directory)
    removed = 0
    for table in TABLES:
        for suffix in (table.segment_suffix, table.log_suffix):
            for path in base.glob(f"*{suffix}"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
    return removed


# ------------------------------------------------------------------ analytics


def warehouse_stats(directory: Union[str, Path]) -> Dict[str, object]:
    """Summary of the rows table for ``repro cache stats``: files, rows, kinds.

    Tabular-only (zero object-store decodes); ``present`` is False when no
    rows-table file exists, which is how the stats path knows to say so
    instead of printing an empty table.
    """
    base = warehouse_dir(directory)
    summary: Dict[str, object] = {
        "present": warehouse_present(directory),
        "segments": 0, "row_files": 0, "total_bytes": 0,
        "rows": 0, "by_kind": {}, "by_config": {},
    }
    if not summary["present"]:
        return summary
    for pattern, field in ((f"*{ROWS_TABLE.segment_suffix}", "segments"),
                           (f"*{ROWS_TABLE.log_suffix}", "row_files")):
        for path in base.glob(pattern):
            summary[field] += 1
            try:
                summary["total_bytes"] += path.stat().st_size
            except OSError:
                pass
    rows = read_rows(directory)
    summary["rows"] = len(rows)
    for row in rows:
        summary["by_kind"][row.kind] = summary["by_kind"].get(row.kind, 0) + 1
        summary["by_config"][row.config] = (
            summary["by_config"].get(row.config, 0) + 1)
    return summary


def verify_warehouse(directory: Union[str, Path],
                     schema_version: int) -> Dict[str, object]:
    """Compare warehouse keys against the object-store journal (envelope-only).

    ``missing`` keys — journaled entries with no warehouse row — mean the
    warehouse disagrees with the journal and ``repro warehouse verify`` exits
    non-zero.  ``extra`` keys are rows whose entries were since GC-evicted:
    the warehouse deliberately keeps history, so they fail only ``--strict``.
    """
    entry_keys: Set[str] = set()
    base = Path(directory)
    if base.is_dir():
        for path in base.glob("*/*.json"):
            try:
                with path.open("r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                continue
            if not isinstance(payload, dict):
                continue
            if (payload.get("schema") != schema_version
                    or payload.get("kind", "result") != "result"):
                continue
            entry_keys.add(str(payload.get("key", path.stem)))
    row_keys = {row.key for row in read_rows(directory)}
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
                workload: Optional[str] = None,
                configs: Optional[Set[str]] = None) -> List[WarehouseRow]:
    """Rows matching every given filter (None matches everything).

    ``suite`` matches any ``+``-joined component, so ``Client`` selects the
    SMT rows of ``Client+Server`` pairs too; ``configs`` restricts to a set
    of config labels (how ``repro query --family`` selects a sweep family).
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
        if configs is not None and row.config not in configs:
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

    Single-thread rows are joined per ``(workload, instructions)`` — every
    config of one sweep retires the same trace, so the pair identifies the
    job across sweeps of different budgets — and the per-workload ratio is
    ``baseline cycles / config cycles``, skipping degenerate zero-cycle runs
    exactly like :meth:`ExperimentRunner.speedups`.  Returns ``{config:
    {group: geomean}}`` with group ``GEOMEAN`` always present (the overall
    geomean); ``group_by="suite"`` adds per-suite geomeans.
    """
    result_rows = [row for row in rows if row.kind == "result"]
    base_cycles = {(row.workload, row.instructions): row.cycles
                   for row in result_rows if row.config == baseline}
    summary: Dict[str, Dict[str, float]] = {}
    ratios: Dict[str, List[Tuple[str, float]]] = {}
    for row in result_rows:
        if row.config == baseline:
            continue
        base = base_cycles.get((row.workload, row.instructions))
        if base is None or base <= 0 or row.cycles <= 0:
            continue
        ratios.setdefault(row.config, []).append((row.suite, base / row.cycles))
    for config in sorted(ratios):
        values = ratios[config]
        block = {"GEOMEAN": filtered_geomean([v for _, v in values])}
        if group_by == "suite":
            by_suite: Dict[str, List[float]] = {}
            for suite, value in values:
                by_suite.setdefault(suite, []).append(value)
            for suite in sorted(by_suite):
                block[suite] = filtered_geomean(by_suite[suite])
        summary[config] = block
    return summary
