"""Counted pipeline resources: ROB, reservation station, load/store buffers, xPRF.

Occupancy-limited resources are what make load *resource* dependence visible:
a load that cannot get an RS entry or a load port stalls allocation for
everything behind it.  The core claims and frees pool entries inline (rename
checks capacity and claims, issue, retire and flush free), counts the
allocations itself (Fig. 18a reports the reduction in RS allocations), and
folds each pool's occupancy into its peak at the end of every rename sweep
that renamed something.
"""

from __future__ import annotations

from dataclasses import dataclass


class ResourcePool:
    """A capacity-limited resource: occupancy, its peak and allocation stalls."""

    def __init__(self, name: str, capacity: int):
        if capacity <= 0:
            raise ValueError(f"{name}: capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.occupied = 0
        self.allocation_stalls = 0
        self.peak_occupancy = 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"ResourcePool({self.name}, {self.occupied}/{self.capacity}, "
                f"peak={self.peak_occupancy})")


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
