"""In-flight micro-op record used by the out-of-order core."""

from __future__ import annotations

from typing import List, Optional

from repro.isa.instruction import DynamicInstruction


class InflightOp:
    """One micro-op travelling through the out-of-order window."""

    __slots__ = (
        "dyn", "thread", "trace_index",
        "seq", "pc", "opclass", "dest",
        "depends_on", "port_kind", "exec_latency",
        "complete", "complete_cycle", "value_ready_cycle",
        "issued", "squashed", "in_rs", "rs_slot", "waiters",
        # loads
        "is_load", "is_store",
        "eliminated", "likely_stable", "constable_value", "constable_address",
        "ideal_covered",
        "lvp_prediction", "mrn_store", "mrn_predicted",
        "rfp_address", "elar_early",
        "oracle_stable", "reexecuted", "value_obtained_cycle",
        # stores
        "store_record",
    )

    def __init__(self, dyn: DynamicInstruction, thread: int, trace_index: int):
        self.dyn = dyn
        self.thread = thread
        self.trace_index = trace_index
        # Flattened static decode: the retire/issue loops touch these every
        # cycle, so they are plain slots instead of ``dyn.static.*`` chases.
        self.seq = dyn.seq
        self.pc = dyn.pc
        self.opclass = dyn.opclass
        self.dest = dyn.static.dest
        # Producers still pending at rename; rename allocates the list only
        # when it finds one.
        self.depends_on: Optional[List["InflightOp"]] = None
        self.port_kind = None
        # Issue-time execution latency, precomputed at rename for non-load
        # RS-bound uops (loads derive theirs from the memory hierarchy).
        self.exec_latency = 0
        self.complete = False
        self.complete_cycle: Optional[int] = None
        self.value_ready_cycle: Optional[int] = None
        self.issued = False
        self.squashed = False
        self.in_rs = False
        # Reservation-station insertion order (monotone across the whole
        # run); the issue stage's scan order is exactly ascending rs_slot,
        # so parked dependence-blocked micro-ops can be merged back into the
        # scan list at their original age position.
        self.rs_slot = 0
        # Dependence-blocked micro-ops parked on this producer by the event
        # engine's issue scan (None when empty).  When this op's completion
        # pops, the core moves them back into the scan list; a parked op
        # lives in exactly one producer's waiters list.
        self.waiters: Optional[List["InflightOp"]] = None
        self.is_load = dyn.is_load
        self.is_store = dyn.is_store
        self.eliminated = False
        self.likely_stable = False
        self.constable_value = 0
        self.constable_address = 0
        self.ideal_covered = False
        self.lvp_prediction = None
        self.mrn_store = None
        self.mrn_predicted = False
        self.rfp_address: Optional[int] = None
        self.elar_early = False
        self.oracle_stable = False
        self.reexecuted = False
        self.value_obtained_cycle: Optional[int] = None
        self.store_record = None

    # ------------------------------------------------------------------ queries

    def mark_value_ready(self, cycle: int) -> None:
        """Record the earliest cycle at which dependents may consume the value."""
        if self.value_ready_cycle is None or cycle < self.value_ready_cycle:
            self.value_ready_cycle = cycle

    def mark_complete(self, cycle: int) -> None:
        """Record execution completion (retirement eligibility)."""
        self.complete = True
        self.complete_cycle = cycle
        self.mark_value_ready(cycle)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        flags = []
        if self.eliminated:
            flags.append("elim")
        if self.complete:
            flags.append("done")
        if self.squashed:
            flags.append("squashed")
        return (f"InflightOp(seq={self.seq}, pc={self.pc:#x}, "
                f"{self.opclass.value}{', ' + ','.join(flags) if flags else ''})")
