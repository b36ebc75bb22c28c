"""Main-memory latency model.

A full DDR4 timing model is unnecessary for Constable's results (its benefit
comes from the core, not from DRAM); what matters is that LLC misses are
expensive and that row-buffer locality makes streaming cheaper than random
access.  The model keeps an open row per bank and charges tCAS for row hits
and tRP+tRCD+tCAS for row misses, in core cycles.
"""

from __future__ import annotations

from typing import Dict

from repro.pipeline.config import DramConfig


class DramModel:
    """Open-row DRAM latency model."""

    def __init__(self, config: DramConfig = DramConfig()):
        self.config = config
        self._open_rows: Dict[int, int] = {}
        self.row_hits = 0
        self.row_misses = 0

    def _bank_and_row(self, address: int) -> (int, int):
        cfg = self.config
        row = address // cfg.row_size_bytes
        bank = row % (cfg.channels * cfg.banks_per_channel)
        return bank, row

    def access_latency(self, address: int) -> int:
        """Latency (core cycles) of one memory access at ``address``."""
        cfg = self.config
        bank, row = self._bank_and_row(address)
        if self._open_rows.get(bank) == row:
            self.row_hits += 1
            latency = cfg.row_hit_latency
        else:
            self.row_misses += 1
            latency = cfg.row_miss_latency
            self._open_rows[bank] = row
        return latency + cfg.bus_latency

    def accesses(self) -> int:
        """Total DRAM accesses (row hits plus row misses)."""
        return self.row_hits + self.row_misses
