"""Rename-stage dynamic instruction optimizations of the baseline core.

The paper's baseline already performs move elimination, zero elimination,
constant folding and branch folding at rename (Table 2, bold entries); these
remove the execution of many non-memory micro-ops, which is precisely why the
remaining load resource dependence matters.  The optimizer classifies each
micro-op: an optimized micro-op completes at rename, consumes no reservation
station entry and no execution port.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.isa.instruction import DynamicInstruction, OpClass


class OptimizationKind(enum.Enum):
    """Which rename-stage optimization (if any) applies to a micro-op."""

    NONE = "none"
    MOVE_ELIMINATION = "move_elimination"
    ZERO_ELIMINATION = "zero_elimination"
    CONSTANT_FOLDING = "constant_folding"
    BRANCH_FOLDING = "branch_folding"
    NOP_ELIMINATION = "nop_elimination"


@dataclass
class RenameOptimizationConfig:
    """Enable/disable individual baseline optimizations."""

    move_elimination: bool = True
    zero_elimination: bool = True
    constant_folding: bool = True
    branch_folding: bool = True


#: Dense per-kind counter index.
_KIND_INDEX: Dict[OptimizationKind, int] = {
    kind: index for index, kind in enumerate(OptimizationKind)}


class RenameOptimizer:
    """Classifies micro-ops for rename-stage elimination/folding."""

    def __init__(self, config: Optional[RenameOptimizationConfig] = None):
        self.config = config or RenameOptimizationConfig()
        self._counts = [0] * len(OptimizationKind)

    @property
    def counts(self) -> Dict[OptimizationKind, int]:
        """Per-kind classification counts (reporting view)."""
        return {kind: self._counts[index]
                for kind, index in _KIND_INDEX.items()}

    def classify(self, dyn: DynamicInstruction) -> OptimizationKind:
        """Return the optimization applied to ``dyn`` (NONE if it must execute).

        The answer depends only on ``dyn.static`` and the config, so the core
        classifies each static instruction once, when it first decodes it;
        :attr:`counts` then counts classified static instructions.
        """
        kind = self._classify(dyn)
        self._counts[_KIND_INDEX[kind]] += 1
        return kind

    def _classify(self, dyn: DynamicInstruction) -> OptimizationKind:
        cfg = self.config
        opclass = dyn.static.opclass
        if opclass is OpClass.NOP:
            return OptimizationKind.NOP_ELIMINATION
        if opclass is OpClass.MOVE_REG and cfg.move_elimination:
            # reg-reg moves are eliminated by remapping in the RAT.
            return OptimizationKind.MOVE_ELIMINATION
        if opclass is OpClass.MOVE_IMM:
            if dyn.static.imm == 0 and cfg.zero_elimination:
                return OptimizationKind.ZERO_ELIMINATION
            if cfg.constant_folding:
                return OptimizationKind.CONSTANT_FOLDING
        if opclass is OpClass.ALU and cfg.constant_folding and not dyn.static.srcs:
            # Immediate-only ALU results are known at rename.
            return OptimizationKind.CONSTANT_FOLDING
        if opclass is OpClass.JUMP and cfg.branch_folding:
            # Unconditional direct jumps are folded in the front end.
            return OptimizationKind.BRANCH_FOLDING
        return OptimizationKind.NONE

    def optimized_count(self) -> int:
        """Total micro-ops removed from the execution stream."""
        return sum(count for kind, count in self.counts.items()
                   if kind is not OptimizationKind.NONE)
