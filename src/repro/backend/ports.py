"""Execution-port model: per-cycle issue bandwidth for ALU, load and store pipes.

The baseline (Table 2) issues six micro-ops per cycle to twelve ports: five
ALU, three load (AGU + load port pairs), two store-address and two store-data.
Constable's headline effect is freeing the *load* ports; the core's issue
sweep counts load-port utilisation for the Fig. 6 analysis
(``PipelineStats.load_utilized_cycles``).

The per-kind availability lives in plain integer slots rather than a dict
keyed by :class:`PortKind` — :meth:`new_cycle` runs every issue sweep and
:meth:`issue` runs on every issued micro-op, so the enum-hashing dictionary
rebuild used to dominate the sweep.

:meth:`issue` is the only reader of the load-port count, so the most load
ports one sweep ever claimed (:meth:`ExecutionPorts.load_peak`) bounds which
load widths would have run the same sweeps; the core's capacity witness
records it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


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
    """Per-cycle port arbitration for the issue sweep."""

    def __init__(self, config: PortConfig = PortConfig()):
        self.config = config
        self._issued_this_cycle = 0
        self._avail_alu = config.alu
        self._avail_load = config.load
        self._avail_sa = config.store_address
        self._avail_sd = config.store_data
        # The most load ports any sweep before the current one claimed.
        self._load_peak = 0

    def new_cycle(self) -> None:
        """Refresh port availability and issue bandwidth.

        The issue sweep is the only client and runs at most once per cycle,
        so the core calls this at the start of each sweep.  The previous
        sweep's load-port claims are folded into the peak first.
        """
        config = self.config
        claimed = config.load - self._avail_load
        if claimed > self._load_peak:
            self._load_peak = claimed
        self._avail_alu = config.alu
        self._avail_load = config.load
        self._avail_sa = config.store_address
        self._avail_sd = config.store_data
        self._issued_this_cycle = 0

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

    def load_peak(self) -> int:
        """The most load ports one sweep has claimed, the current one included."""
        return max(self._load_peak, self.config.load - self._avail_load)
