"""Register File Prefetching (RFP, Shukla et al., ISCA 2022).

RFP predicts a load's address at rename (stride-style, PC-indexed) and
prefetches the data into the register file.  If the predicted address matches
when the load executes, the memory latency is already paid and the load
completes as soon as it issues; otherwise the load executes normally.  Either
way, the load still consumes an RS entry, an AGU port and a load port - so RFP
mitigates data dependence but not resource dependence (paper §7, §9.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass
class RfpConfig:
    """RFP prefetch-table geometry (paper Table 2: 2K-entry prefetch table)."""

    prefetch_table_entries: int = 2048
    confidence_threshold: int = 2
    confidence_max: int = 7
    inflight_limit: int = 128


class _RfpEntry:
    __slots__ = ("last_address", "stride", "confidence")

    def __init__(self, last_address: int):
        self.last_address = last_address
        self.stride = 0
        self.confidence = 0


class RegisterFilePrefetcher:
    """PC-indexed address predictor driving register-file prefetches."""

    def __init__(self, config: Optional[RfpConfig] = None):
        self.config = config or RfpConfig()
        self._table: Dict[int, _RfpEntry] = {}

    def predict_address(self, pc: int) -> Optional[int]:
        """Predicted effective address for the next instance of the load at ``pc``."""
        entry = self._table.get(pc)
        if entry is not None and entry.confidence >= self.config.confidence_threshold:
            return entry.last_address + entry.stride
        return None

    def issue_prefetch(self, pc: int) -> Optional[int]:
        """Issue a register-file prefetch at rename; returns the prefetched address."""
        return self.predict_address(pc)

    def verify(self, prefetched_address: Optional[int], actual_address: int) -> bool:
        """Check the prefetch against the executed load's address."""
        return prefetched_address is not None and prefetched_address == actual_address

    def train(self, pc: int, actual_address: int) -> None:
        """Train the address predictor with the executed load's address."""
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.config.prefetch_table_entries:
                self._table.pop(next(iter(self._table)))
            self._table[pc] = _RfpEntry(actual_address)
            return
        stride = actual_address - entry.last_address
        if stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, self.config.confidence_max)
        else:
            entry.confidence = max(entry.confidence - 1, 0)
            entry.stride = stride
        entry.last_address = actual_address
