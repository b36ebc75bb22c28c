"""Execution-port model: per-cycle issue bandwidth for ALU, load and store pipes.

The baseline (Table 2) issues six micro-ops per cycle to twelve ports: five
ALU, three load (AGU + load port pairs), two store-address and two store-data.
Constable's headline effect is freeing the *load* ports, so per-cycle load-port
occupancy is also tracked for the Fig. 6 analysis.

The per-kind availability lives in plain integer slots rather than a dict
keyed by :class:`PortKind` — :meth:`new_cycle` runs every simulated cycle and
:meth:`issue` runs on every issued micro-op, so the enum-hashing dictionary
rebuild used to dominate the per-cycle sweep.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class PortKind(enum.Enum):
    """Issue port categories."""

    ALU = "alu"
    LOAD = "load"
    STORE_ADDRESS = "store_address"
    STORE_DATA = "store_data"


@dataclass
class PortConfig:
    """Number of ports of each kind and the overall issue width."""

    issue_width: int = 6
    alu: int = 5
    load: int = 3
    store_address: int = 2
    store_data: int = 2

    def count(self, kind: PortKind) -> int:
        """Number of ports of ``kind`` in this configuration."""
        return {
            PortKind.ALU: self.alu,
            PortKind.LOAD: self.load,
            PortKind.STORE_ADDRESS: self.store_address,
            PortKind.STORE_DATA: self.store_data,
        }[kind]


class ExecutionPorts:
    """Per-cycle port arbitration with utilisation statistics."""

    def __init__(self, config: PortConfig = PortConfig()):
        self.config = config
        self._issued_this_cycle = 0
        self.cycles = 0
        self.load_port_busy_cycles = 0       # cycles with >= 1 load port in use
        self.load_port_uses = 0              # total load issues
        #: Earliest scheduled completion among micro-ops issued through the
        #: ports that is still in flight (None when nothing is outstanding or
        #: the stored timer has already expired).  Fed by
        #: :meth:`note_inflight`; read by :meth:`next_release_cycle`.
        self._earliest_inflight: Optional[int] = None
        self._avail_alu = config.alu
        self._avail_load = config.load
        self._avail_sa = config.store_address
        self._avail_sd = config.store_data
        self.new_cycle()

    def new_cycle(self) -> None:
        """Start a new cycle: refresh port availability and issue bandwidth."""
        config = self.config
        if self._avail_load < config.load:
            # At least one load port was claimed during the cycle that just ended.
            self.load_port_busy_cycles += 1
        self._avail_alu = config.alu
        self._avail_load = config.load
        self._avail_sa = config.store_address
        self._avail_sd = config.store_data
        self._issued_this_cycle = 0
        self.cycles += 1

    def issue(self, kind: PortKind) -> bool:
        """Claim a port of ``kind`` for this cycle; returns False if none is free."""
        if self._issued_this_cycle >= self.config.issue_width:
            return False
        if kind is PortKind.ALU:
            if self._avail_alu <= 0:
                return False
            self._avail_alu -= 1
        elif kind is PortKind.LOAD:
            if self._avail_load <= 0:
                return False
            self._avail_load -= 1
            self.load_port_uses += 1
        elif kind is PortKind.STORE_ADDRESS:
            if self._avail_sa <= 0:
                return False
            self._avail_sa -= 1
        else:
            if self._avail_sd <= 0:
                return False
            self._avail_sd -= 1
        self._issued_this_cycle += 1
        return True

    def skip_idle_cycles(self, cycles: int) -> None:
        """Account ``cycles`` cycles in which no micro-op issued.

        Used by the event-driven core when it jumps over an idle gap: each
        skipped cycle would have started with a fresh (fully available) port
        set and issued nothing, so the only state the per-cycle reference
        would have changed is the cycle count.  The availability snapshot is
        left untouched — it already reflects an idle cycle, so the busy-cycle
        check in the next :meth:`new_cycle` stays a no-op, exactly as it
        would after stepping the gap cycle by cycle.
        """
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self.cycles += cycles

    def note_inflight(self, completion_cycle: int) -> None:
        """Record that a micro-op issued through the ports completes at
        ``completion_cycle``.

        The core calls this at issue time with the same completion cycle it
        pushes onto its completion heap, which makes the port model a genuine
        owner of its forward timer: :meth:`next_release_cycle` can answer the
        event-driven scheduler from local state instead of ``None``.
        """
        earliest = self._earliest_inflight
        if earliest is None or completion_cycle < earliest:
            self._earliest_inflight = completion_cycle

    def next_release_cycle(self, now: int) -> Optional[int]:
        """Earliest known future cycle at which an in-flight micro-op that
        went through the ports completes, or None.

        Port *bandwidth* renews every cycle (:meth:`new_cycle` restores full
        availability), so the timer tracks the resource's in-flight work
        rather than a cross-cycle reservation: the earliest completion
        recorded by :meth:`note_inflight` that is still in the future.  A
        timer at or before ``now`` has expired and is dropped (the next
        earliest completion is unknown locally — the core's completion heap
        still bounds the skip, so forgetting is safe).
        """
        earliest = self._earliest_inflight
        if earliest is None:
            return None
        if earliest <= now:
            self._earliest_inflight = None
            return None
        return earliest
