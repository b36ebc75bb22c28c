"""Stable Load Detector (SLD): PC-indexed table of likely-stable load candidates.

Each entry carries the last-computed address, last-fetched value, a 5-bit
stability confidence level and the ``can_eliminate`` flag (paper §6.2, Table 1).
On every completed (non-eliminated) load the confidence is incremented when
both address and value match the previous execution and halved otherwise.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import ConstableConfig


class SldEntry:
    """One SLD way."""

    __slots__ = ("pc", "last_address", "last_value", "confidence", "can_eliminate")

    def __init__(self, pc: int):
        self.pc = pc
        self.last_address: Optional[int] = None
        self.last_value: Optional[int] = None
        self.confidence = 0
        self.can_eliminate = False

    def matches(self, address: int, value: int) -> bool:
        """True if the completed load repeated its previous address and value."""
        return self.last_address == address and self.last_value == value


class StableLoadDetector:
    """Set-associative, LRU-replaced SLD."""

    def __init__(self, config: Optional[ConstableConfig] = None):
        self.config = config or ConstableConfig()
        self._sets: List[List[SldEntry]] = [[] for _ in range(self.config.sld_sets)]
        self.lookups = 0
        self.allocations = 0
        self.evictions = 0
        self.confidence_resets = 0

    # ------------------------------------------------------------------ helpers

    def _set_index(self, pc: int) -> int:
        return (pc >> 2) % self.config.sld_sets

    def _touch(self, sld_set: List[SldEntry], entry: SldEntry) -> None:
        sld_set.remove(entry)
        sld_set.append(entry)

    # ------------------------------------------------------------------- access

    def lookup(self, pc: int, update_lru: bool = True) -> Optional[SldEntry]:
        """Find the entry for ``pc`` (None if not tracked)."""
        self.lookups += 1
        sld_set = self._sets[self._set_index(pc)]
        for entry in sld_set:
            if entry.pc == pc:
                if update_lru:
                    self._touch(sld_set, entry)
                return entry
        return None

    def lookup_or_allocate(self, pc: int) -> SldEntry:
        """Find the entry for ``pc``, allocating (and possibly evicting) if absent."""
        entry = self.lookup(pc)
        if entry is not None:
            return entry
        sld_set = self._sets[self._set_index(pc)]
        if len(sld_set) >= self.config.sld_ways:
            sld_set.pop(0)
            self.evictions += 1
        entry = SldEntry(pc)
        sld_set.append(entry)
        self.allocations += 1
        return entry

    # ------------------------------------------------------------------ updates

    def record_execution(self, pc: int, address: int, value: int) -> SldEntry:
        """Update confidence with the outcome of a completed, non-eliminated load."""
        entry = self.lookup_or_allocate(pc)
        if entry.last_address is None:
            entry.confidence = 0
        elif entry.matches(address, value):
            entry.confidence = min(entry.confidence + 1, self.config.confidence_max)
        else:
            entry.confidence //= 2
        entry.last_address = address
        entry.last_value = value
        return entry

    def reset_elimination(self, pc: int) -> bool:
        """Clear ``can_eliminate`` for ``pc``; returns True if an entry was updated."""
        entry = self.lookup(pc, update_lru=False)
        if entry is None:
            return False
        if entry.can_eliminate:
            entry.can_eliminate = False
            self.confidence_resets += 1
            return True
        return False

    def punish(self, pc: int) -> None:
        """Halve confidence and clear elimination (memory-ordering violation, §6.8)."""
        entry = self.lookup(pc, update_lru=False)
        if entry is None:
            return
        entry.confidence //= 2
        entry.can_eliminate = False

    # -------------------------------------------------------------------- stats

    def tracked_loads(self) -> int:
        """Number of load PCs currently tracked across all sets."""
        return sum(len(s) for s in self._sets)
