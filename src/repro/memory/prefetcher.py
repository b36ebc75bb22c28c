"""Hardware data prefetchers: PC-based stride and next-line streamer.

The baseline system of the paper runs a stride prefetcher at L1-D and
stride + streamer (+SPP) at L2.  Prefetchers here generate candidate line
addresses that the hierarchy fills into the target cache; their effect on the
results is indirect (they shape the load-latency distribution of the baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: What ``observe`` returns when there is nothing to prefetch, which is most
#: calls: one shared empty tuple instead of a new list per demand access.
_NO_PREFETCHES: Tuple[int, ...] = ()


@dataclass(slots=True)
class _StrideEntry:
    last_address: int
    stride: int = 0
    confidence: int = 0


class StridePrefetcher:
    """PC-indexed stride prefetcher (Fu et al., MICRO 1992 style)."""

    def __init__(self, table_size: int = 256, degree: int = 2,
                 confidence_threshold: int = 2, line_size: int = 64):
        if table_size <= 0 or degree <= 0:
            raise ValueError("table_size and degree must be positive")
        self.table_size = table_size
        self.degree = degree
        self.confidence_threshold = confidence_threshold
        self.line_size = line_size
        self._table: Dict[int, _StrideEntry] = {}

    def observe(self, pc: int, address: int) -> Sequence[int]:
        """Observe a demand access and return line addresses to prefetch.

        The candidates run from one stride ahead to ``degree`` strides ahead,
        dropping negative targets.  Trace addresses are non-negative (the VM
        masks them to 64 bits), so a dropped target can only trail the list,
        and its first ``n`` entries are exactly what a degree-``n`` table over
        the same stream returns.
        """
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.table_size:
                # Evict an arbitrary (oldest-inserted) entry.
                self._table.pop(next(iter(self._table)))
            self._table[pc] = _StrideEntry(last_address=address)
            return _NO_PREFETCHES
        stride = address - entry.last_address
        if stride != 0 and stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, 7)
        else:
            entry.confidence = max(entry.confidence - 1, 0)
            entry.stride = stride
        entry.last_address = address
        if entry.confidence < self.confidence_threshold or entry.stride == 0:
            return _NO_PREFETCHES
        prefetches: List[int] = []
        for k in range(1, self.degree + 1):
            target = address + entry.stride * k
            if target >= 0:
                prefetches.append(target - (target % self.line_size))
        return prefetches


class StreamPrefetcher:
    """Simple next-line streamer: prefetches the next N lines of an accessed region."""

    def __init__(self, degree: int = 1, line_size: int = 64):
        if degree <= 0:
            raise ValueError("degree must be positive")
        self.degree = degree
        self.line_size = line_size
        self._last_line: Optional[int] = None

    def observe(self, pc: int, address: int) -> Sequence[int]:
        """Observe a demand access and return line addresses to prefetch."""
        del pc
        line = address - (address % self.line_size)
        last_line = self._last_line
        self._last_line = line
        if last_line is None or not 0 < line - last_line <= 2 * self.line_size:
            return _NO_PREFETCHES
        return [line + k * self.line_size for k in range(1, self.degree + 1)]
