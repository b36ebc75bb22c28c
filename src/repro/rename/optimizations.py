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
from typing import Optional

from repro.isa.instruction import DynamicInstruction, OpClass
from repro.pipeline.config import RenameOptimizationConfig


class OptimizationKind(enum.Enum):
    """Which rename-stage optimization (if any) applies to a micro-op."""

    NONE = "none"
    MOVE_ELIMINATION = "move_elimination"
    ZERO_ELIMINATION = "zero_elimination"
    CONSTANT_FOLDING = "constant_folding"
    BRANCH_FOLDING = "branch_folding"
    NOP_ELIMINATION = "nop_elimination"


class RenameOptimizer:
    """Classifies micro-ops for rename-stage elimination/folding."""

    def __init__(self, config: Optional[RenameOptimizationConfig] = None):
        self.config = config or RenameOptimizationConfig()

    def classify(self, dyn: DynamicInstruction) -> OptimizationKind:
        """Return the optimization applied to ``dyn`` (NONE if it must execute).

        The answer depends only on ``dyn.static`` and the config, so the core
        classifies each static instruction once, when it first decodes it.
        """
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
