"""Three-level cache hierarchy with prefetchers, DTLB, DRAM and eviction callbacks.

Geometry defaults follow the paper's baseline (Table 2): 48 KB/12-way L1-D with
a 5-cycle latency and a stride prefetcher; 2 MB/16-way L2 with stride+streamer;
3 MB/12-way LLC; DDR4-like main memory.  The hierarchy reports, per access, the
total load-to-use latency and which level serviced it, and exposes L1-D access
counts (used by Fig. 18b and the MEU power breakdown of Fig. 19).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.memory.cache import SetAssociativeCache
from repro.memory.dram import DramModel
from repro.memory.prefetcher import StridePrefetcher, StreamPrefetcher
from repro.memory.tlb import Tlb
from repro.pipeline.config import MemoryHierarchyConfig

#: How many of the shared stride table's candidates the L1-D prefetches.
L1_STRIDE_DEGREE = 2


class MemoryHierarchy:
    """L1-D / L2 / LLC / DRAM with simple prefetching and eviction callbacks."""

    def __init__(self, config: Optional[MemoryHierarchyConfig] = None):
        self.config = config or MemoryHierarchyConfig()
        self.l1d = SetAssociativeCache(self.config.l1d)
        self.l2 = SetAssociativeCache(self.config.l2)
        self.llc = SetAssociativeCache(self.config.llc)
        self.dram = DramModel(self.config.dram)
        self.dtlb = Tlb(self.config.tlb)
        # The L1 and L2 stride prefetchers observe the same demand stream
        # with the same table geometry, so one table serves both: the L2
        # fills its four candidates, the L1 the first two.
        self.stride = StridePrefetcher(degree=4)
        self.l2_streamer = StreamPrefetcher(degree=2)
        #: Callbacks invoked with the line address of every L1-D eviction
        #: (used by the coherence directory and the Constable-AMT-I variant).
        self.l1_eviction_listeners: List[Callable[[int], None]] = []
        #: Callbacks invoked with the line address of every L1-D demand fill.
        self.l1_fill_listeners: List[Callable[[int], None]] = []
        self.level_counts: Dict[str, int] = {"L1D": 0, "L2": 0, "LLC": 0, "DRAM": 0}

    # ------------------------------------------------------------------ helpers

    def _notify_eviction(self, line: Optional[int]) -> None:
        if line is None:
            return
        for listener in self.l1_eviction_listeners:
            listener(line)

    def _notify_fill(self, line: int) -> None:
        for listener in self.l1_fill_listeners:
            listener(line)

    def _fill_l1(self, address: int, from_prefetch: bool = False) -> None:
        evicted = self.l1d.fill(address, from_prefetch=from_prefetch)
        self._notify_eviction(evicted)
        if not from_prefetch:
            self._notify_fill(self.l1d.line_address(address))

    def _run_prefetchers(self, pc: int, address: int) -> None:
        if not self.config.enable_prefetchers:
            return
        lines = self.stride.observe(pc, address)
        if lines:
            for line in lines[:L1_STRIDE_DEGREE]:
                self._fill_l1(line, from_prefetch=True)
            # Neither L2 prefetcher reads the L2, so filling the stride
            # candidates before the streamer observes matches observing both
            # first.
            for line in lines:
                self.l2.fill(line, from_prefetch=True)
        for line in self.l2_streamer.observe(pc, address):
            self.l2.fill(line, from_prefetch=True)

    # ------------------------------------------------------------------- access

    def load_access(self, address: int, pc: int = 0) -> Tuple[int, str]:
        """Perform a demand load; returns ``(latency_cycles, servicing_level)``."""
        latency = self.dtlb.translate(address)
        cfg = self.config
        if self.l1d.access(address):
            self._run_prefetchers(pc, address)
            self.level_counts["L1D"] += 1
            return latency + cfg.l1d.latency, "L1D"
        if self.l2.access(address):
            level, extra = "L2", cfg.l2.latency
            self.level_counts["L2"] += 1
        elif self.llc.access(address):
            level, extra = "LLC", cfg.llc.latency
            self.level_counts["LLC"] += 1
        else:
            level, extra = "DRAM", cfg.llc.latency + self.dram.access_latency(address)
            self.level_counts["DRAM"] += 1
            self.llc.fill(address)
        self.l2.fill(address)
        self._fill_l1(address)
        self._run_prefetchers(pc, address)
        return latency + cfg.l1d.latency + extra, level

    def store_access(self, address: int, pc: int = 0) -> int:
        """Perform a store commit (write-allocate); returns its L1 latency."""
        latency = self.dtlb.translate(address)
        if not self.l1d.access(address, is_write=True):
            if not self.l2.access(address, is_write=True):
                if not self.llc.access(address, is_write=True):
                    self.llc.fill(address)
                self.l2.fill(address)
            self._fill_l1(address)
        self._run_prefetchers(pc, address)
        return latency + self.config.l1d.latency

    def invalidate_line(self, address: int) -> None:
        """Invalidate a line across all levels (snoop-induced)."""
        self.l1d.invalidate(address)
        self.l2.invalidate(address)
        self.llc.invalidate(address)

    # -------------------------------------------------------------------- stats

    def stats_summary(self) -> Dict[str, object]:
        """Per-level cache/TLB/DRAM counters as one nested dictionary."""
        return {
            "l1d": self.l1d.stats.as_dict(),
            "l2": self.l2.stats.as_dict(),
            "llc": self.llc.stats.as_dict(),
            "dram_accesses": self.dram.accesses(),
            "dtlb_accesses": self.dtlb.accesses,
            "dtlb_hit_rate": self.dtlb.hit_rate(),
            "service_levels": dict(self.level_counts),
        }
