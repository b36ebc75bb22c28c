"""Data TLB model: a small fully-counted set-associative translation cache.

Only the access counts (for the MEU power breakdown of Fig. 19) and a modest
miss penalty matter; page-table walks are modelled as a fixed latency.
"""

from __future__ import annotations

from typing import List

from repro.pipeline.config import TlbConfig


class Tlb:
    """LRU set-associative DTLB."""

    def __init__(self, config: TlbConfig = TlbConfig()):
        self.config = config
        self._num_sets = config.entries // config.ways
        self._sets: List[List[int]] = [[] for _ in range(self._num_sets)]
        self.accesses = 0
        self.hits = 0
        self.misses = 0

    def translate(self, address: int) -> int:
        """Access the TLB for ``address``; returns the extra latency (0 on hit)."""
        self.accesses += 1
        page = address // self.config.page_size
        index = page % self._num_sets
        tlb_set = self._sets[index]
        if page in tlb_set:
            self.hits += 1
            tlb_set.remove(page)
            tlb_set.append(page)
            return 0
        self.misses += 1
        if len(tlb_set) >= self.config.ways:
            tlb_set.pop(0)
        tlb_set.append(page)
        return self.config.miss_penalty

    def hit_rate(self) -> float:
        """Hits as a fraction of accesses (0.0 when idle)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses
