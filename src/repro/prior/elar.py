"""Early Load Address Resolution (ELAR, Bekerman et al., ISCA 2000).

ELAR tracks the stack-pointer value with a small adder in the decode stage,
so the effective address of most stack loads is known non-speculatively before
rename.  The load can start its memory access early, hiding the address
generation latency - but it still performs the memory access and still
occupies the load execution resources, which is why the paper finds it adds
little on a baseline that already folds RSP updates (§9.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from repro.isa.instruction import AddressingMode, DynamicInstruction
from repro.isa.registers import RBP, RSP


@dataclass
class ElarConfig:
    """ELAR behaviour knobs."""

    #: Cycles of load latency hidden when the address is resolved early
    #: (address generation + issue-to-execute latency).
    early_cycles: int = 3
    #: Track RBP-based frame accesses as well as RSP-based ones.
    track_frame_pointer: bool = True


class EarlyLoadAddressResolver:
    """Classifies loads whose address is resolvable in the decode stage."""

    def __init__(self, config: ElarConfig = ElarConfig()):
        self.config = config
        self._trackable: Set[int] = {RSP}
        if config.track_frame_pointer:
            self._trackable.add(RBP)

    def can_resolve_early(self, dyn: DynamicInstruction) -> bool:
        """True if this load's address is available right after decode."""
        if not dyn.is_load:
            return False
        if dyn.static.addressing_mode() is AddressingMode.PC_RELATIVE:
            return True
        regs = dyn.static.mem.address_registers()
        return bool(regs) and all(r in self._trackable for r in regs)

    def latency_savings(self) -> int:
        """Cycles of load latency hidden for an early-resolved load."""
        return self.config.early_cycles
