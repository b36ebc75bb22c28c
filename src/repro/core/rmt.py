"""Register Monitor Table (RMT): watches source registers of eliminated loads.

Indexed by architectural register.  Each entry lists the PCs of loads that are
currently being eliminated and use that register as an address source.  When
any instruction writes the register, the listed loads lose their
``can_eliminate`` status (Condition 1, paper §5/§6.4.2).  Stack registers
(RSP/RBP) get deeper lists because stack-relative loads are the most common
stable category (Table 1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import ConstableConfig
from repro.isa.registers import STACK_REGISTERS


class RegisterMonitorTable:
    """Architectural-register-indexed lists of eliminated-load PCs."""

    def __init__(self, config: Optional[ConstableConfig] = None, num_registers: int = 16):
        self.config = config or ConstableConfig()
        self.num_registers = num_registers
        self._entries: Dict[int, List[int]] = {r: [] for r in range(num_registers)}
        self.insertions = 0
        self.capacity_evictions = 0
        self.consumes = 0

    def capacity(self, register: int) -> int:
        """Maximum tracked load PCs for ``register``."""
        if register in STACK_REGISTERS:
            return self.config.rmt_stack_capacity
        return self.config.rmt_other_capacity

    def insert(self, register: int, load_pc: int) -> List[int]:
        """Track ``load_pc`` under ``register``; returns PCs displaced by capacity."""
        if register >= self.num_registers:
            raise ValueError(f"register {register} out of range")
        entry = self._entries[register]
        displaced: List[int] = []
        if load_pc in entry:
            return displaced
        if len(entry) >= self.capacity(register):
            displaced.append(entry.pop(0))
            self.capacity_evictions += 1
        entry.append(load_pc)
        self.insertions += 1
        return displaced

    def consume(self, register: int) -> List[int]:
        """Return and clear the load PCs tracked under ``register`` (on a write to it)."""
        if register >= self.num_registers:
            return []
        entry = self._entries[register]
        if not entry:
            return []
        self.consumes += 1
        pcs = list(entry)
        entry.clear()
        return pcs

    def remove_pc(self, load_pc: int) -> None:
        """Remove ``load_pc`` from every register entry (when it stops being eliminated)."""
        for entry in self._entries.values():
            if load_pc in entry:
                entry.remove(load_pc)
