"""Set-associative cache model with LRU replacement.

The cache tracks presence only (tags, not data): the functional values come
from the trace, so the timing model needs hit/miss behaviour, occupancy and
eviction notifications (the latter feed the coherence directory and the
Constable-AMT-I variant of Fig. 22).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.pipeline.config import CacheConfig


@dataclass
class CacheStats:
    """Access counters for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    prefetch_fills: int = 0
    invalidations: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dictionary (stats-summary form)."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "prefetch_fills": self.prefetch_fills,
            "invalidations": self.invalidations,
        }


class SetAssociativeCache:
    """An LRU set-associative cache tracking line presence.

    Sets are made on first fill: a core builds one cache per level for every
    simulated job, and a short job touches a few hundred of the thousands of
    sets an L2 or LLC has.  A set that was never filled is a miss for
    :meth:`probe`, :meth:`access` and :meth:`invalidate`.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._num_sets = config.num_sets
        self._line_size = config.line_size
        self._ways = config.ways
        # Set index -> line addresses, most recently used last.
        self._sets: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------ helpers

    def line_address(self, address: int) -> int:
        """Align ``address`` down to its cache line."""
        return address - (address % self._line_size)

    # ------------------------------------------------------------------- access

    def probe(self, address: int) -> bool:
        """Check presence without updating replacement state or statistics."""
        line_size = self._line_size
        line = address - (address % line_size)
        cache_set = self._sets.get((line // line_size) % self._num_sets)
        return cache_set is not None and line in cache_set

    def access(self, address: int, is_write: bool = False) -> bool:
        """Look up ``address``; returns True on hit.  Misses do not fill."""
        del is_write  # presence-only model: loads and stores behave identically
        stats = self.stats
        stats.accesses += 1
        line_size = self._line_size
        line = address - (address % line_size)
        cache_set = self._sets.get((line // line_size) % self._num_sets)
        if cache_set is not None and line in cache_set:
            stats.hits += 1
            cache_set.remove(line)
            cache_set.append(line)
            return True
        stats.misses += 1
        return False

    def fill(self, address: int, from_prefetch: bool = False) -> Optional[int]:
        """Insert the line containing ``address``; returns the evicted line, if any."""
        line_size = self._line_size
        line = address - (address % line_size)
        index = (line // line_size) % self._num_sets
        cache_set = self._sets.get(index)
        evicted = None
        if cache_set is None:
            self._sets[index] = [line]
        elif line in cache_set:
            cache_set.remove(line)
            cache_set.append(line)
            return None
        else:
            if len(cache_set) >= self._ways:
                evicted = cache_set.pop(0)
                self.stats.evictions += 1
            cache_set.append(line)
        if from_prefetch:
            self.stats.prefetch_fills += 1
        return evicted

    def invalidate(self, address: int) -> bool:
        """Remove the line containing ``address``; returns True if it was present."""
        line_size = self._line_size
        line = address - (address % line_size)
        cache_set = self._sets.get((line // line_size) % self._num_sets)
        if cache_set is not None and line in cache_set:
            cache_set.remove(line)
            self.stats.invalidations += 1
            return True
        return False

    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(len(s) for s in self._sets.values())
