"""Extra physical register file (xPRF) holding values of in-flight eliminated loads.

The paper uses a 32-entry xPRF so that breaking the load data dependence does
not require extra write ports on the main PRF (§6.3).  If no xPRF register is
free, the load is simply not eliminated (observed in only ~0.2% of instances).
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import ConstableConfig


class ExtraRegisterFile:
    """Occupancy-counted xPRF."""

    def __init__(self, config: Optional[ConstableConfig] = None):
        self.config = config or ConstableConfig()
        self.capacity = self.config.xprf_entries
        self.occupied = 0
        self.total_allocations = 0
        self.allocation_failures = 0
        self.peak_occupancy = 0

    def try_allocate(self) -> bool:
        """Reserve one xPRF register; returns False (and counts a failure) when full."""
        if self.occupied >= self.capacity:
            self.allocation_failures += 1
            return False
        self.occupied += 1
        self.total_allocations += 1
        if self.occupied > self.peak_occupancy:
            self.peak_occupancy = self.occupied
        return True

    def release(self) -> None:
        """Free one xPRF register (at retirement of the eliminated load)."""
        if self.occupied <= 0:
            raise ValueError("xPRF release without a matching allocation")
        self.occupied -= 1
