"""Register alias table: architectural-register to producer mapping.

The timing model does not need explicit physical registers for correctness
(functional values come from the trace); what it needs is the *dependence*
structure: which in-flight micro-op produces the value of each architectural
register.  The RAT keeps that mapping and supports checkpoint-free recovery by
rebuilding from the surviving window after a flush.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterable, Optional, TypeVar

ProducerT = TypeVar("ProducerT")


class RegisterAliasTable(Generic[ProducerT]):
    """Maps architectural registers to their most recent in-flight producer."""

    def __init__(self, num_registers: int):
        if num_registers <= 0:
            raise ValueError("num_registers must be positive")
        self.num_registers = num_registers
        #: Register -> its newest in-flight producer (None: the value is
        #: architectural).  The core reads and writes it directly at rename
        #: and retire.
        self.producers: Dict[int, Optional[ProducerT]] = {r: None for r in range(num_registers)}

    def clear_producer(self, register: int, producer: ProducerT) -> None:
        """Clear the mapping if ``producer`` is still the newest writer (at retire)."""
        if self.producers[register] is producer:
            self.producers[register] = None

    def clear_all(self) -> None:
        """Reset every mapping (full pipeline flush)."""
        for register in self.producers:
            self.producers[register] = None

    def rebuild(self, producers: Iterable[ProducerT], dest_of) -> None:
        """Rebuild the table from the surviving in-flight micro-ops, oldest first.

        ``dest_of`` maps a producer to its destination architectural register
        (or None).  Used after a mid-window flush.
        """
        self.clear_all()
        for producer in producers:
            dest = dest_of(producer)
            if dest is not None:
                self.producers[dest] = producer
