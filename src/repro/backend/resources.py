"""Counted pipeline resources: ROB, reservation station, load/store buffers, xPRF.

Occupancy-limited resources are what make load *resource* dependence visible:
a load that cannot get an RS entry or a load port stalls allocation for
everything behind it.  Each pool counts allocations (Fig. 18a reports the
reduction in RS allocations) and allocation-stall events.
"""

from __future__ import annotations

from dataclasses import dataclass


class ResourcePool:
    """A capacity-limited resource with allocation statistics."""

    def __init__(self, name: str, capacity: int):
        if capacity <= 0:
            raise ValueError(f"{name}: capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.occupied = 0
        self.total_allocations = 0
        self.allocation_stalls = 0
        self.peak_occupancy = 0

    def can_allocate(self, count: int = 1) -> bool:
        """True if ``count`` entries can be allocated right now."""
        return self.occupied + count <= self.capacity

    def allocate(self, count: int = 1) -> bool:
        """Allocate ``count`` entries; returns False (and records a stall) if full."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if not self.can_allocate(count):
            self.allocation_stalls += 1
            return False
        self.occupied += count
        self.total_allocations += count
        if self.occupied > self.peak_occupancy:
            self.peak_occupancy = self.occupied
        return True

    def release(self, count: int = 1) -> None:
        """Free ``count`` previously allocated entries."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count > self.occupied:
            raise ValueError(f"{self.name}: releasing more entries than occupied")
        self.occupied -= count

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"ResourcePool({self.name}, {self.occupied}/{self.capacity}, "
                f"allocations={self.total_allocations})")


@dataclass
class BackendSizes:
    """Convenience bundle of backend buffer sizes (paper Table 2 defaults)."""

    rob: int = 512
    rs: int = 248
    load_buffer: int = 240
    store_buffer: int = 112
    xprf: int = 32

    def scaled(self, factor: float) -> "BackendSizes":
        """Scale the window depth (Fig. 20b pipeline-depth sensitivity)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return BackendSizes(
            rob=max(16, int(self.rob * factor)),
            rs=max(8, int(self.rs * factor)),
            load_buffer=max(8, int(self.load_buffer * factor)),
            store_buffer=max(8, int(self.store_buffer * factor)),
            xprf=self.xprf,
        )
