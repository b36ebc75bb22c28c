"""Trace container: the dynamic instruction stream plus cross-core snoop events."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.isa.instruction import DynamicInstruction, SnoopEvent
from repro.isa.program import Program


class Trace:
    """A workload trace: dynamic instructions, snoop events and metadata.

    The trace is the interface between the functional world (the VM that
    produced it) and the timing world (the out-of-order core model).  Every
    dynamic instruction carries the functionally correct effective address and
    load value, which the golden check uses at retirement (paper §8.5).
    """

    def __init__(self, name: str, category: str,
                 instructions: List[DynamicInstruction],
                 snoops: Optional[List[SnoopEvent]] = None,
                 program: Optional[Program] = None,
                 num_registers: int = 16,
                 metadata: Optional[Dict[str, object]] = None):
        if not instructions:
            raise ValueError("a trace must contain at least one instruction")
        self.name = name
        self.category = category
        self.instructions = instructions
        # Stored as an immutable tuple: every hardware thread simulating this
        # trace shares the sequence (indexing into it) instead of copying it.
        self.snoops = tuple(sorted(snoops or (), key=lambda s: s.after_seq))
        self.program = program
        self.num_registers = num_registers
        self.metadata = dict(metadata or {})

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterable[DynamicInstruction]:
        return iter(self.instructions)

    # ------------------------------------------------------------------ queries

    def loads(self) -> List[DynamicInstruction]:
        """All dynamic load instructions."""
        return [d for d in self.instructions if d.is_load]

    def slice(self, start: int, stop: int) -> "Trace":
        """Return a sub-trace over instruction indices ``[start, stop)``."""
        sub = self.instructions[start:stop]
        if not sub:
            raise ValueError("empty trace slice")
        lo, hi = sub[0].seq, sub[-1].seq
        snoops = [s for s in self.snoops if lo <= s.after_seq <= hi]
        return Trace(
            name=f"{self.name}[{start}:{stop}]", category=self.category,
            instructions=sub, snoops=snoops, program=self.program,
            num_registers=self.num_registers, metadata=dict(self.metadata),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"Trace(name={self.name!r}, category={self.category!r}, "
                f"instructions={len(self.instructions)})")
