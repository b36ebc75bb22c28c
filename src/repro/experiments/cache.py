"""Content-addressed on-disk caches for simulation results and inspector reports.

A cache entry is keyed by a SHA-256 fingerprint of everything that determines
its content: the fully materialised :class:`CoreConfig` (for simulations),
the :class:`WorkloadSpec` of each thread, the trace-generation parameters
(instruction budget, architectural register count, each thread's base PC) and
a schema version.  Workload traces are regenerated deterministically from the
spec's seed, so the trace itself never needs to be stored — two runs that
fingerprint identically simulate identically.

Two entry kinds share one store format and directory layout:

* :class:`SimulationResult` records (:meth:`ResultCache.get` /
  :meth:`ResultCache.put`) of one workload or of an SMT2 pair, keyed over
  every thread's spec in order, and
* Load Inspector :class:`~repro.analysis.load_inspector.GlobalStableReport`
  records (:class:`ReportCache`), keyed over the workload spec and trace
  parameters alone — reports depend only on the trace, never on a core config.

Bumping :data:`SCHEMA_VERSION` invalidates every existing entry; bump it
whenever the timing model or a persisted record's layout changes in a way that
makes old entries incomparable.

The cache directory defaults to ``.repro-cache`` in the working directory and
can be redirected with the ``REPRO_CACHE_DIR`` environment variable; an empty
value counts as unset (:func:`resolve_cache_dir`, the one resolver every cache
and every ``repro`` subcommand shares).  Entries
are plain JSON files laid out as ``<dir>/<key[:2]>/<key>.json`` with atomic
(write-to-temp, rename) stores, so a cache directory may safely be shared by
several concurrent figure harnesses — and by result and report caches at once,
which also makes the size cap below a property of the directory, not of any
one cache instance.

**Size cap / GC.**  Setting ``REPRO_CACHE_MAX_MB`` (or passing ``max_mb``)
arms an LRU-by-mtime garbage collector: after every store the cache evicts the
least-recently-used entries until the directory fits under the cap.  Cache
hits refresh an entry's mtime, so hot entries survive; a GC pass never touches
anything while the directory is already within the cap.  A malformed or
non-positive ``REPRO_CACHE_MAX_MB`` value warns once and leaves the cache
uncapped instead of raising — the cap is an optimisation, never a correctness
requirement — while an explicit ``max_mb`` that is not positive and finite
raises.  :meth:`JsonDiskCache.verify` scans a (possibly shared) directory
for corrupt, stale-schema, misplaced and orphaned entries, which backs the
``repro cache verify`` CLI subcommand.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import math
import os
import tempfile
import time
import warnings
from dataclasses import field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.load_inspector import GlobalStableReport
from repro.experiments.warehouse import (COUNTERS_TABLE, WarehouseWriter,
                                         clear_warehouse, read_table,
                                         row_for_result)
from repro.pipeline.config import CoreConfig
from repro.pipeline.stats import SimulationResult
from repro.workloads.generator import DEFAULT_BASE_PC, THREAD_BASE_PCS
from repro.workloads.suites import WorkloadSpec

#: Version of the cached-entry schema; bump to invalidate all prior entries.
SCHEMA_VERSION = 2

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable arming the LRU size cap (in megabytes).
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: The four cache counters a flush records (mirrors :meth:`CacheStats.as_dict`).
_LEDGER_COUNTERS = ("hits", "misses", "stores", "evictions")

#: Counter names of the health block (see :func:`persist_health_stats`);
#: ``runs`` counts runner flushes.
_HEALTH_COUNTERS = ("runs", "jobs", "dead_lettered")

#: The counters of an orchestrated wave's dedup block.  ``waves`` counts the
#: wave records (1 per flush), so summed blocks still say how many waves
#: they cover.
_DEDUP_COUNTERS = ("waves", "planned", "unique", "cache_warm", "executed")

#: Per-class runtime fields excluded from fingerprints: they accumulate while
#: a simulation runs and say nothing about what will be simulated.
_FINGERPRINT_EXCLUDE: Dict[str, frozenset] = {
    "IdealOracle": frozenset({"_seen", "loads_covered", "loads_seen"}),
}

def resolve_cache_dir(directory: Optional[Union[str, Path]] = None
                      ) -> Union[str, Path]:
    """The cache directory: ``directory`` when given, else a non-empty
    ``REPRO_CACHE_DIR``, else :data:`DEFAULT_CACHE_DIR`."""
    return directory or os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


#: Raw ``REPRO_CACHE_MAX_MB`` values already warned about in this process, so a
#: sweep constructing dozens of cache instances emits the warning exactly once.
_WARNED_ENV_CAPS: Set[str] = set()


def _max_mb_from_env() -> Optional[float]:
    """The LRU cap from ``REPRO_CACHE_MAX_MB``, leniently parsed.

    A malformed or non-positive value (``"512MB"``, ``"-3"``, ``"nan"``) must
    not kill every runner and figure harness at cache construction — the cap is
    an optimisation, not a correctness knob — so invalid values warn once per
    process and are ignored, leaving the cache uncapped.
    """
    raw = os.environ.get(CACHE_MAX_MB_ENV, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value) or value <= 0:
        if raw not in _WARNED_ENV_CAPS:
            _WARNED_ENV_CAPS.add(raw)
            warnings.warn(
                f"ignoring invalid {CACHE_MAX_MB_ENV}={raw!r}: expected a "
                f"positive number of megabytes; cache size cap disabled",
                RuntimeWarning, stacklevel=3)
        return None
    return value


#: JSON scalars, matched by exact type so a ``bool`` or an ``IntEnum`` is
#: never mistaken for a plain ``int``.
_SCALAR_TYPES = frozenset({type(None), bool, int, float, str})


@functools.lru_cache(maxsize=None)
def _field_names(kind: type) -> Optional[Tuple[str, ...]]:
    """``kind``'s fields after :data:`_FINGERPRINT_EXCLUDE`; None for a non-dataclass."""
    if not dataclasses.is_dataclass(kind):
        return None
    excluded = _FINGERPRINT_EXCLUDE.get(kind.__name__, frozenset())
    return tuple(f.name for f in dataclasses.fields(kind) if f.name not in excluded)


def canonical_value(value: object) -> object:
    """Reduce ``value`` to a deterministic JSON-serializable form.

    Dataclasses become sorted field dictionaries, enums their values, sets
    sorted lists; insertion order never leaks into the result, so logically
    equal configurations always fingerprint identically.
    """
    kind = type(value)
    if kind in _SCALAR_TYPES:
        return value
    names = _field_names(kind)
    if names is not None:
        return {name: canonical_value(getattr(value, name)) for name in names}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (set, frozenset)):
        return sorted(canonical_value(item) for item in value)
    if isinstance(value, dict):
        return {str(key): canonical_value(val)
                for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, (int, float, str)):
        return value
    raise TypeError(f"cannot fingerprint value of type {type(value).__name__}: {value!r}")


def config_fingerprint(config: CoreConfig) -> Dict[str, object]:
    """Canonical dictionary of every outcome-relevant field of a core config."""
    return canonical_value(config)


def _digest(payload: Dict[str, object]) -> str:
    """The SHA-256 of ``payload``'s canonical JSON text (an entry key)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CacheStats:
    """Hit/miss/store/eviction counters for one cache instance."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    def as_dict(self) -> Dict[str, int]:
        """The four counters as a plain dictionary (ledger/JSON form)."""
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "evictions": self.evictions}


def persisted_cache_stats(directory: Union[str, Path]) -> Dict[str, object]:
    """Aggregate the counters table under ``directory``.

    Returns ``{"ledgers": n, "total": {hits, misses, stores, evictions},
    "by_cache": {<cache class>: {...}}, "dedup": {waves, planned, unique,
    deduped, cache_warm, executed}, "health": {runs, jobs, dead_lettered}}``
    summed over every live counter record (``ledgers`` counts them) — i.e.
    over every process (and every shard host writing to a shared directory)
    that flushed its counters via :meth:`JsonDiskCache.persist_stats`, plus
    every orchestrated wave streamed in via :func:`persist_dedup_stats` and
    every runner close streamed in via :func:`persist_health_stats`.  An
    empty or missing directory aggregates to all-zero counters.
    """
    zero = {name: 0 for name in _LEDGER_COUNTERS}
    dedup_total = {name: 0 for name in _DEDUP_COUNTERS}
    health_total = {name: 0 for name in _HEALTH_COUNTERS}
    summary: Dict[str, object] = {"ledgers": 0, "total": dict(zero),
                                  "by_cache": {}}
    for record in read_table(directory, COUNTERS_TABLE):
        summary["ledgers"] += 1
        bucket = summary["by_cache"].setdefault(record["cache"], dict(zero))
        counters = record.get("counters", {})
        for name in _LEDGER_COUNTERS:
            bucket[name] += counters.get(name, 0)
            summary["total"][name] += counters.get(name, 0)
        for block, totals in (("dedup", dedup_total), ("health", health_total)):
            values = record.get(block, {})
            for name in totals:
                totals[name] += values.get(name, 0)
    dedup_total["deduped"] = dedup_total["planned"] - dedup_total["unique"]
    summary["dedup"] = dedup_total
    summary["health"] = health_total
    return summary


#: The counters-table writer of each (process, directory).  Every cache and
#: every dedup or health flush of one process appends to the same log; the
#: pid in the key gives a forked child its own writer, and so its own log.
_COUNTER_WRITERS: Dict[Tuple[int, str], WarehouseWriter] = {}


def _counters_writer(directory: Union[str, Path]) -> WarehouseWriter:
    """This process's writer of the counters table under ``directory``."""
    key = (os.getpid(), os.path.abspath(directory))
    writer = _COUNTER_WRITERS.get(key)
    if writer is None:
        writer = _COUNTER_WRITERS[key] = WarehouseWriter(directory,
                                                         COUNTERS_TABLE)
    return writer


#: Source class under which orchestrator waves record dedup stats.
DEDUP_LEDGER_CLASS = "SweepOrchestrator"


def persist_dedup_stats(directory: Union[str, Path],
                        dedup: Dict[str, object]) -> Optional[Path]:
    """Append one orchestrated wave's dedup stats to the counters table.

    ``dedup`` is a :meth:`~repro.experiments.orchestrator.DedupStats.to_dict`
    payload; its planned/unique/cache_warm/executed counts are appended as
    one record of class :data:`DEDUP_LEDGER_CLASS`.
    :func:`persisted_cache_stats` sums the records, which is how ``repro
    cache stats`` reports cross-host dedup rates for a shared sweep
    directory.  Returns the log appended to, or None on I/O failure.
    """
    block = {name: int(dedup.get(name, 0)) for name in _DEDUP_COUNTERS}
    block["waves"] = 1
    return _counters_writer(directory).append(
        {"cache": DEDUP_LEDGER_CLASS, "dedup": block})


#: Source class under which runners record their health counters.
HEALTH_LEDGER_CLASS = "SweepSupervisor"


def persist_health_stats(directory: Union[str, Path],
                         health: Dict[str, object]) -> Optional[Path]:
    """Append one runner's health-counter deltas to the counters table.

    ``health`` carries :data:`_HEALTH_COUNTERS` deltas (a
    :meth:`~repro.experiments.runner.SweepHealthReport.counters` payload, or
    the delta since the runner's previous flush); each flush counts as one
    ``runs``.  The block is appended as one record of class
    :data:`HEALTH_LEDGER_CLASS` and :func:`persisted_cache_stats` sums it,
    which is how ``repro cache stats`` reports cross-host job and
    dead-letter counts for a shared sweep directory.  Returns the log
    appended to, or None on I/O failure.
    """
    block = {name: int(health.get(name, 0)) for name in _HEALTH_COUNTERS}
    block["runs"] = 1
    return _counters_writer(directory).append(
        {"cache": HEALTH_LEDGER_CLASS, "health": block})


#: How to decode each entry kind's record body; result entries carry no
#: ``kind`` field, so they decode under the implicit kind "result".
_ENTRY_DECODERS: Dict[str, Callable[[Dict[str, object]], object]] = {
    "result": lambda payload: SimulationResult.from_dict(payload["result"]),
    "report": lambda payload: GlobalStableReport.from_dict(payload["report"]),
}


@dataclasses.dataclass
class CacheVerifyReport:
    """Outcome of one full-directory integrity scan (:meth:`JsonDiskCache.verify`).

    ``entries``/``total_bytes`` cover every ``*.json`` file found; ``by_kind``
    counts only entries that decoded cleanly under the current schema.  The
    problem buckets are disjoint: an entry lands in the first one that applies.
    """

    directory: str
    schema_version: int
    entries: int = 0
    total_bytes: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    #: Unreadable / non-JSON files, unknown kinds, undecodable record bodies.
    corrupt: List[str] = field(default_factory=list)
    #: Valid entries written under a different SCHEMA_VERSION (benign misses).
    stale_schema: List[str] = field(default_factory=list)
    #: Entries whose embedded key or shard directory disagrees with their path.
    key_mismatch: List[str] = field(default_factory=list)
    #: Leftover temp files from writers that died mid-store.
    orphan_temp: List[str] = field(default_factory=list)
    purged: int = 0

    @property
    def ok(self) -> bool:
        """True when nothing needs operator attention (stale entries are fine)."""
        return not (self.corrupt or self.key_mismatch or self.orphan_temp)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-serializable form of the report (``--json`` CLI output)."""
        return dataclasses.asdict(self)


class JsonDiskCache:
    """Shared store machinery: keyed JSON files, atomic writes, LRU size cap.

    Subclasses provide the domain types (what a payload contains and how keys
    are derived); this base owns the directory layout, schema validation,
    hit/miss accounting, mtime-based recency and the GC policy.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None,
                 max_mb: Optional[float] = None):
        self.directory = Path(resolve_cache_dir(directory))
        # Fail fast rather than after the first (expensive) simulation's put().
        if self.directory.exists() and not self.directory.is_dir():
            raise NotADirectoryError(
                f"cache path {self.directory} exists and is not a directory")
        if max_mb is None:
            max_mb = _max_mb_from_env()
        elif not math.isfinite(max_mb) or max_mb <= 0:
            raise ValueError("max_mb must be positive and finite")
        self.max_mb = max_mb
        self.stats = CacheStats()
        # Counter values already flushed to the counters table; persist_stats
        # writes only the delta since the last flush, so calling it from both
        # a runner's close() and a CLI epilogue never double-counts.
        self._persisted_counters: Dict[str, int] = {}
        # Running directory-size estimate for the auto-GC: initialised by one
        # full scan on the first capped store, then maintained incrementally
        # so puts stay O(1) while the directory is under the cap.  A GC pass
        # rescans and resyncs it, which also absorbs other processes' writes.
        self._size_estimate: Optional[int] = None

    # ------------------------------------------------------------------- layout

    def _path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------ raw i/o

    def _read_payload(self, key: str, kind: Optional[str] = None) -> Optional[Dict[str, object]]:
        """Load and validate one entry envelope; corrupt entries are misses.

        Recency is *not* refreshed here: callers decode the record body first
        and call :meth:`_mark_hit` only when the whole entry proved usable, so
        a permanently undecodable entry ages out through the LRU GC instead of
        being promoted to most-recently-used on every failed read.
        """
        path = self._path_for(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("schema") != SCHEMA_VERSION:
                raise ValueError("schema mismatch")
            if kind is not None and payload.get("kind") != kind:
                raise ValueError("entry kind mismatch")
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.misses += 1
            return None
        return payload

    def _mark_hit(self, key: str) -> None:
        """Count a hit and refresh the entry's mtime so the LRU GC keeps it."""
        try:
            os.utime(self._path_for(key), None)
        except OSError:
            pass
        self.stats.hits += 1

    def _write_payload(self, key: str, payload: Dict[str, object]) -> None:
        """Store ``payload`` under ``key`` atomically (temp file + rename)."""
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            replaced_size = path.stat().st_size
        except OSError:
            replaced_size = 0
        handle = tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", dir=path.parent,
            prefix=f".{key[:8]}.", suffix=".tmp", delete=False)
        try:
            with handle:
                json.dump(payload, handle)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        if self.max_mb is not None:
            if self._size_estimate is None:
                self._size_estimate = self.total_bytes()
            else:
                try:
                    self._size_estimate += path.stat().st_size - replaced_size
                except OSError:
                    pass
                if self._size_estimate < 0:
                    # Incremental bookkeeping drifted — another process evicted
                    # or overwrote entries in the shared directory.  Resync
                    # from a full scan rather than skipping needed GC passes.
                    self._size_estimate = self.total_bytes()
            if self._size_estimate > int(self.max_mb * 1024 * 1024):
                self.gc()

    # --------------------------------------------------------------- management

    def entries(self) -> List[Tuple[Path, float, int]]:
        """Every entry as ``(path, mtime, size_bytes)``, least recent first.

        Ties on mtime break on the path so GC eviction order is deterministic.
        """
        found: List[Tuple[Path, float, int]] = []
        if not self.directory.is_dir():
            return found
        for path in self.directory.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            found.append((path, stat.st_mtime, stat.st_size))
        found.sort(key=lambda entry: (entry[1], str(entry[0])))
        return found

    def total_bytes(self) -> int:
        """Total on-disk size of every entry in the directory."""
        return sum(size for _, _, size in self.entries())

    def gc(self, max_mb: Optional[float] = None) -> List[Path]:
        """Evict least-recently-used entries until the directory fits the cap.

        Returns the evicted paths (empty when the directory is already within
        the cap, or when no cap is configured).  The cap applies to the whole
        directory, so result and report caches sharing one directory share one
        budget.
        """
        cap_mb = max_mb if max_mb is not None else self.max_mb
        if cap_mb is None:
            return []
        if not math.isfinite(cap_mb) or cap_mb <= 0:
            raise ValueError("max_mb must be positive and finite")
        cap_bytes = int(cap_mb * 1024 * 1024)
        entries = self.entries()
        total = sum(size for _, _, size in entries)
        removed: List[Path] = []
        for path, _, size in entries:
            if total <= cap_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed.append(path)
            self.stats.evictions += 1
        # ``total`` came from a fresh directory scan, so assigning it here
        # resyncs the incremental estimate after every pass; the clamp guards
        # against entries another process shrank between scan and unlink.
        self._size_estimate = max(0, total)
        return removed

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))

    def persist_stats(self) -> Optional[Path]:
        """Append this instance's counter deltas to the counters table.

        :func:`persisted_cache_stats` sums the table, which is how ``repro
        cache stats`` reports real cross-process hit rates instead of just
        the calling process's counters.  Only the delta since the previous
        flush is appended, so the method is safe to call any number of
        times; a no-delta flush writes nothing.  Returns the log appended
        to, or None when there was nothing to flush or the append failed.
        """
        counters = self.stats.as_dict()
        delta = {name: value - self._persisted_counters.get(name, 0)
                 for name, value in counters.items()}
        if not any(delta.values()):
            return None
        path = _counters_writer(self.directory).append(
            {"cache": type(self).__name__, "counters": delta})
        if path is not None:
            self._persisted_counters = counters
        return path

    def clear(self) -> int:
        """Delete every entry and every table; returns files removed."""
        removed = 0
        self._size_estimate = None
        for path in self.directory.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        # A cleared store must not leave warehouse rows describing entries
        # that no longer exist (the rows-without-entries case ``repro
        # warehouse verify --strict`` flags), nor counters of its history.
        return removed + clear_warehouse(self.directory)

    #: ``*.tmp`` files younger than this are assumed to belong to a live
    #: writer mid-store and are never reported (or purged) as orphans.
    ORPHAN_TEMP_AGE_SECONDS = 3600.0

    def verify(self, purge: bool = False,
               decode_bodies: bool = True) -> CacheVerifyReport:
        """Scan every entry in the directory and classify its integrity.

        Each entry must parse as JSON, carry the current schema version, decode
        through its kind's record type (simulation result or inspector
        report — all kinds are checked regardless of which cache
        class runs the scan, since the kinds may share one directory) and live
        at the path its embedded key dictates.  Leftover ``*.tmp`` files from
        writers that died between create and rename are reported as orphans —
        but only once older than :data:`ORPHAN_TEMP_AGE_SECONDS`, so scanning
        a directory that live writers are storing into neither misreports
        their in-flight temp files nor (with ``purge``) deletes them mid-write.

        ``decode_bodies=False`` skips the record-body decode (the expensive
        part on large directories) and checks only envelope, schema and
        placement — the right trade-off for ``repro cache stats``.

        With ``purge=True`` every corrupt, stale, mismatched or orphaned file
        is deleted; healthy entries are never touched.
        """
        report = CacheVerifyReport(directory=str(self.directory),
                                   schema_version=SCHEMA_VERSION)
        for path, _, size in self.entries():
            report.entries += 1
            report.total_bytes += size
            try:
                with path.open("r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                if not isinstance(payload, dict):
                    raise ValueError("entry is not a JSON object")
            except (OSError, ValueError):
                report.corrupt.append(str(path))
                continue
            if payload.get("schema") != SCHEMA_VERSION:
                report.stale_schema.append(str(path))
                continue
            kind = str(payload.get("kind", "result"))
            decoder = _ENTRY_DECODERS.get(kind)
            if decoder is None:
                report.corrupt.append(str(path))
                continue
            if decode_bodies:
                try:
                    decoder(payload)
                except (ValueError, KeyError, TypeError):
                    report.corrupt.append(str(path))
                    continue
            if payload.get("key") != path.stem or path.parent.name != path.stem[:2]:
                report.key_mismatch.append(str(path))
                continue
            report.by_kind[kind] = report.by_kind.get(kind, 0) + 1
        if self.directory.is_dir():
            oldest_live = time.time() - self.ORPHAN_TEMP_AGE_SECONDS
            for path in sorted(self.directory.glob("*/.*.tmp")):
                try:
                    if path.stat().st_mtime > oldest_live:
                        continue
                except OSError:
                    continue
                report.orphan_temp.append(str(path))
        if purge:
            for name in (report.corrupt + report.stale_schema
                         + report.key_mismatch + report.orphan_temp):
                try:
                    os.unlink(name)
                    report.purged += 1
                except OSError:
                    pass
            if report.purged:
                self._size_estimate = None
        return report


class ResultCache(JsonDiskCache):
    """Content-addressed store of :class:`SimulationResult` records.

    Every successful :meth:`put` also appends one flat analytics row to the
    warehouse's rows table under ``.warehouse/`` (see
    :mod:`repro.experiments.warehouse`).  Because all cache writes are
    parent-side — the serial runner's commit loop, the parallel runner's
    result drain, orchestrated wave commits, partial-wave journals and the
    rerun that completes a failed wave all funnel through this method — the
    warehouse stays in lockstep with the resume journal by construction.
    The row is appended *after* the entry write succeeds, so the warehouse
    can trail the journal by at most the in-flight put (repaired by ``repro
    warehouse rebuild``) but never lists a row for an entry that was never
    committed.  Row appends absorb I/O errors; they are analytics, never
    correctness.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None,
                 max_mb: Optional[float] = None):
        super().__init__(directory, max_mb)
        self.warehouse = WarehouseWriter(self.directory)

    @staticmethod
    def key_for(config: CoreConfig, specs: Sequence[WorkloadSpec],
                instructions: int, num_registers: int) -> str:
        """The content hash identifying one (config, workload threads, trace) job.

        ``specs`` holds one spec per hardware thread, in thread order; thread
        ``i`` runs at ``THREAD_BASE_PCS[i]``.
        """
        payload = {
            "schema": SCHEMA_VERSION,
            "config": config_fingerprint(config),
            "workloads": [spec.to_dict() for spec in specs],
            "trace": {
                "instructions": instructions,
                "num_registers": num_registers,
                "base_pcs": list(THREAD_BASE_PCS[:len(specs)]),
            },
        }
        return _digest(payload)

    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result for ``key``, or None (corrupt entries are misses)."""
        payload = self._read_payload(key)
        if payload is None:
            return None
        try:
            result = SimulationResult.from_dict(payload["result"])
        except (ValueError, KeyError, TypeError):
            self.stats.misses += 1
            return None
        self._mark_hit(key)
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Store ``result`` under ``key`` atomically (temp file + rename)."""
        self._write_payload(key, {"schema": SCHEMA_VERSION, "key": key,
                                  "result": result.to_dict()})
        self.warehouse.append(row_for_result(key, result, SCHEMA_VERSION))

    #: Names older callers (and the perfbench layer tracer) look up.
    get_smt = get
    put_smt = put


class ReportCache(JsonDiskCache):
    """Content-addressed store of Load Inspector :class:`GlobalStableReport`.

    Keys cover only what determines a report — the workload spec and the trace
    parameters — so every configuration sweep over a workload shares one report
    entry.  A report cache may share its directory with a :class:`ResultCache`:
    keys embed an entry kind, so the two namespaces cannot collide, and the LRU
    size cap then covers both.
    """

    @staticmethod
    def key_for(spec: WorkloadSpec, instructions: int, num_registers: int) -> str:
        """The content hash identifying one workload's inspector report."""
        payload = {
            "schema": SCHEMA_VERSION,
            "kind": "report",
            "workload": spec.to_dict(),
            "trace": {
                "instructions": instructions,
                "num_registers": num_registers,
                "base_pc": DEFAULT_BASE_PC,
            },
        }
        return _digest(payload)

    def get(self, key: str) -> Optional[GlobalStableReport]:
        """The cached report for ``key``, or None (corrupt entries are misses)."""
        payload = self._read_payload(key, kind="report")
        if payload is None:
            return None
        try:
            report = GlobalStableReport.from_dict(payload["report"])
        except (ValueError, KeyError, TypeError):
            self.stats.misses += 1
            return None
        self._mark_hit(key)
        return report

    def put(self, key: str, report: GlobalStableReport) -> None:
        """Store ``report`` under ``key`` atomically."""
        self._write_payload(key, {"schema": SCHEMA_VERSION, "kind": "report",
                                  "key": key, "report": report.to_dict()})
