"""Memory dependence prediction (store-set style) for aggressive OOO load issue.

The baseline issues loads out of order past unresolved stores (Table 2,
"aggressive out-of-order load scheduling with memory dependence prediction").
When that speculation is wrong - a store later resolves to the same address as
a younger, already-executed load - the pipeline flushes from the load and the
offending load PC is trained to wait next time.  Constable's incorrectly
eliminated loads reuse exactly this recovery path (paper §6.5, Fig. 21).
"""

from __future__ import annotations

from typing import Dict


class MemoryDependencePredictor:
    """Tracks load PCs that have violated memory ordering and should wait."""

    def __init__(self, capacity: int = 1024, confidence_max: int = 15,
                 forget_interval: int = 50_000):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.confidence_max = confidence_max
        self.forget_interval = forget_interval
        self._conflicting: Dict[int, int] = {}
        self._observations = 0
        self.violations_trained = 0

    def should_wait_for_stores(self, load_pc: int) -> bool:
        """True if the load at ``load_pc`` must wait for all older store addresses."""
        return self._conflicting.get(load_pc, 0) > 0

    def train_violation(self, load_pc: int) -> None:
        """Record a memory-ordering violation caused by ``load_pc``."""
        self.violations_trained += 1
        if load_pc not in self._conflicting and len(self._conflicting) >= self.capacity:
            self._conflicting.pop(next(iter(self._conflicting)))
        current = self._conflicting.get(load_pc, 0)
        self._conflicting[load_pc] = min(current + 4, self.confidence_max)

    def observe_safe_execution(self, load_pc: int) -> None:
        """Decay the wait bias when the load executes without conflict."""
        self._observations += 1
        if load_pc in self._conflicting:
            remaining = self._conflicting[load_pc] - 1
            if remaining <= 0:
                del self._conflicting[load_pc]
            else:
                self._conflicting[load_pc] = remaining
        if self.forget_interval and self._observations % self.forget_interval == 0:
            self._conflicting.clear()
