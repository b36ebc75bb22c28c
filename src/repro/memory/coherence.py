"""Directory-based coherence bookkeeping: core-valid (CV) bits and CV-bit pinning.

Constable relies on snoop requests to learn about remote writes (Condition 2).
In a directory protocol, a clean eviction from a core-private cache clears the
core's CV bit, after which the directory stops forwarding snoops to that core.
The paper's fix (§6.6) is to *pin* the CV bit of any cacheline accessed by an
eliminated load so snoops keep arriving even after a clean eviction.  This
module models exactly that bookkeeping; the actual invalidation traffic comes
from the workload's snoop events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set


@dataclass
class _DirectoryEntry:
    """Per-cacheline directory state: which cores hold it, which cores pinned it."""

    cv_bits: Set[int] = field(default_factory=set)
    pinned: Set[int] = field(default_factory=set)


class Directory:
    """Per-cacheline CV-bit tracking for a small multi-core system."""

    def __init__(self, num_cores: int = 2, line_size: int = 64):
        if num_cores <= 0:
            raise ValueError("num_cores must be positive")
        self.num_cores = num_cores
        self.line_size = line_size
        self._entries: Dict[int, _DirectoryEntry] = {}
        self.snoops_forwarded = 0
        self.snoops_filtered = 0
        self.pins = 0

    # ------------------------------------------------------------------ helpers

    def _line(self, address: int) -> int:
        return address - (address % self.line_size)

    def _entry(self, address: int) -> _DirectoryEntry:
        line = self._line(address)
        entry = self._entries.get(line)
        if entry is None:
            entry = _DirectoryEntry()
            self._entries[line] = entry
        return entry

    # ------------------------------------------------------------------- events

    def record_fill(self, address: int, core: int) -> None:
        """A core brought the line into its private cache: set its CV bit."""
        self._entry(address).cv_bits.add(core)

    def record_eviction(self, address: int, core: int) -> None:
        """A core evicted the line: clear its CV bit unless it pinned the line."""
        entry = self._entry(address)
        if core not in entry.pinned:
            entry.cv_bits.discard(core)

    def pin(self, address: int, core: int) -> None:
        """Pin the core's CV bit for this line (paper §6.6, eliminated-load lines)."""
        entry = self._entry(address)
        if core not in entry.pinned:
            self.pins += 1
        entry.pinned.add(core)
        entry.cv_bits.add(core)

    def snoop_reaches_core(self, address: int, core: int) -> bool:
        """Would a snoop for ``address`` be forwarded to ``core``?

        A snoop is forwarded only when the core's CV bit is set.  Delivering the
        snoop clears the CV bit and the pin, per the normal directory protocol.
        """
        entry = self._entry(address)
        if core in entry.cv_bits:
            entry.cv_bits.discard(core)
            entry.pinned.discard(core)
            self.snoops_forwarded += 1
            return True
        self.snoops_filtered += 1
        return False

    def is_pinned(self, address: int, core: int) -> bool:
        """True when ``core`` has ``address``'s line pinned."""
        return core in self._entry(address).pinned

    def has_cv_bit(self, address: int, core: int) -> bool:
        """True when ``core`` holds the CV bit for ``address``'s line."""
        return core in self._entry(address).cv_bits
