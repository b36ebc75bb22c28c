"""Memory Renaming (MRN): store-to-load dependence prediction at rename.

MRN (Tyson & Austin; Moshovos & Sohi) learns stable store->load communication
pairs.  When a load with a confident pairing is renamed while the paired store
is in flight, the load's data dependence is broken immediately: its dependents
are fed from the store's data instead of waiting for the load to execute.  The
load still executes to verify the forwarding - which is exactly the resource
dependence Constable removes and MRN does not (paper §3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass
class MemoryRenamingConfig:
    """MRN table geometry and confidence thresholds."""

    table_entries: int = 1024
    confidence_threshold: int = 4
    confidence_max: int = 15
    store_window: int = 4096   # how far back (in instructions) a store may be paired


@dataclass
class _PairEntry:
    store_pc: int
    confidence: int = 0


class MemoryRenamer:
    """Learns load-PC -> store-PC communication pairs with confidence."""

    def __init__(self, config: Optional[MemoryRenamingConfig] = None):
        self.config = config or MemoryRenamingConfig()
        self._pairs: Dict[int, _PairEntry] = {}
        # Most recent store seen for each word address: (store_pc, seq).
        self._recent_stores: Dict[int, Tuple[int, int]] = {}

    # ---------------------------------------------------------------- training

    def observe_store(self, store_pc: int, address: int, seq: int) -> None:
        """Record an executed store so later loads can learn the pairing."""
        self._recent_stores[address & ~0x7] = (store_pc, seq)

    def observe_load(self, load_pc: int, address: int, seq: int) -> None:
        """Train the pairing table when a load reads a recently stored word."""
        recent = self._recent_stores.get(address & ~0x7)
        entry = self._pairs.get(load_pc)
        if recent is not None and seq - recent[1] <= self.config.store_window:
            store_pc = recent[0]
            if entry is None:
                if len(self._pairs) >= self.config.table_entries:
                    self._pairs.pop(next(iter(self._pairs)))
                self._pairs[load_pc] = _PairEntry(store_pc=store_pc, confidence=1)
            elif entry.store_pc == store_pc:
                entry.confidence = min(entry.confidence + 1, self.config.confidence_max)
            else:
                entry.confidence -= 1
                if entry.confidence <= 0:
                    self._pairs[load_pc] = _PairEntry(store_pc=store_pc, confidence=1)
        elif entry is not None:
            entry.confidence = max(entry.confidence - 1, 0)

    # -------------------------------------------------------------- prediction

    def predicted_store_pc(self, load_pc: int) -> Optional[int]:
        """The store PC predicted to forward to this load, if confident."""
        entry = self._pairs.get(load_pc)
        if entry is not None and entry.confidence >= self.config.confidence_threshold:
            return entry.store_pc
        return None
