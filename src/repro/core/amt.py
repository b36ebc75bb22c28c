"""Address Monitor Table (AMT): watches stores and snoops to eliminated-load lines.

Indexed by physical address at cacheline granularity (paper §6.6).  Each entry
lists up to four (hashed) load PCs currently being eliminated that read the
line.  A store address generation or an incoming snoop consumes the entry and
resets the listed loads' ``can_eliminate`` flags (Condition 2, §6.4.3/§6.4.4).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import ConstableConfig


class _AmtEntry:
    __slots__ = ("line_address", "load_pcs")

    def __init__(self, line_address: int):
        self.line_address = line_address
        self.load_pcs: List[int] = []


class AddressMonitorTable:
    """Set-associative, LRU-replaced AMT."""

    def __init__(self, config: Optional[ConstableConfig] = None):
        self.config = config or ConstableConfig()
        self._sets: List[List[_AmtEntry]] = [[] for _ in range(self.config.amt_sets)]
        self.insertions = 0
        self.entry_evictions = 0
        self.pc_evictions = 0
        self.consumes = 0

    # ------------------------------------------------------------------ helpers

    def line_address(self, address: int) -> int:
        """The cacheline-aligned base address containing ``address``."""
        return address - (address % self.config.cacheline_size)

    def _set_index(self, line_address: int) -> int:
        return (line_address // self.config.cacheline_size) % self.config.amt_sets

    def _find(self, line_address: int) -> Optional[_AmtEntry]:
        for entry in self._sets[self._set_index(line_address)]:
            if entry.line_address == line_address:
                return entry
        return None

    # ------------------------------------------------------------------- access

    def insert(self, address: int, load_pc: int) -> List[int]:
        """Track ``load_pc`` under the line of ``address``.

        Returns load PCs displaced by capacity (either because the per-entry PC
        list was full or because a whole entry had to be evicted); the caller
        must reset their elimination status to stay safe.
        """
        line = self.line_address(address)
        index = self._set_index(line)
        amt_set = self._sets[index]
        displaced: List[int] = []
        entry = self._find(line)
        if entry is None:
            if len(amt_set) >= self.config.amt_ways:
                victim = amt_set.pop(0)
                displaced.extend(victim.load_pcs)
                self.entry_evictions += 1
            entry = _AmtEntry(line)
            amt_set.append(entry)
        else:
            amt_set.remove(entry)
            amt_set.append(entry)
        if load_pc not in entry.load_pcs:
            if len(entry.load_pcs) >= self.config.amt_pcs_per_entry:
                displaced.append(entry.load_pcs.pop(0))
                self.pc_evictions += 1
            entry.load_pcs.append(load_pc)
            self.insertions += 1
        return displaced

    def consume(self, address: int) -> List[int]:
        """Remove the entry for the line of ``address`` and return its load PCs."""
        line = self.line_address(address)
        entry = self._find(line)
        if entry is None:
            return []
        self._sets[self._set_index(line)].remove(entry)
        self.consumes += 1
        return list(entry.load_pcs)

    def lookup(self, address: int) -> List[int]:
        """Read the load PCs tracked for the line of ``address`` without removing them."""
        entry = self._find(self.line_address(address))
        return list(entry.load_pcs) if entry is not None else []

    def tracked_lines(self) -> int:
        """Number of cachelines currently tracked across all sets."""
        return sum(len(s) for s in self._sets)
