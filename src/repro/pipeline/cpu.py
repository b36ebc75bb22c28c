"""Trace-driven, cycle-level out-of-order core model.

The model is occupancy- and port-accurate where it matters for Constable:
loads contend for reservation-station entries and load execution units, their
latency is set by the cache hierarchy, stores resolve addresses at execution
and can catch younger loads (including eliminated ones) violating memory
ordering, and the retire stage runs the golden check of paper §8.5 comparing
the value Constable supplied against the functional trace.

Functional correctness always comes from the trace; the simulator only decides
*when* things happen - except for eliminated / ideally-handled loads, whose
values come from Constable's structures and are therefore checked at retire.

Two execution engines drive the same stage pipeline, chosen per core by the
``engine=`` argument of :class:`OutOfOrderCore`:

* ``"cycle"`` — the reference stepper: every cycle runs every stage, idle or
  not.
* ``"event"`` (default) — pure-stage gating plus event-driven cycle skipping:
  each stepped cycle calls only the stages whose wake predicate holds, and
  when no stage **acted** — retired, popped, issued, renamed or fetched
  something, or performed a side-effecting stall the reference re-runs every
  cycle — the cycle was provably idle, so the core computes the next
  "interesting" cycle (the earliest completion bucket or a thread's
  front-end refill timer, whichever comes first) and advances
  ``self.cycle`` straight to it instead of ticking through the idle gap.
  Long memory stalls collapse into one jump, and dense compute-bound phases
  — where the skip machinery rarely fires — pay only for the stages that
  actually have work.

Both engines queue each issued micro-op in a per-cycle completion bucket
(``_due``), in issue order.  Every execution latency is at least one cycle
(``CoreConfig`` rejects less), so an issue sweep only ever queues into a
later cycle, and writeback pops exactly the current cycle's bucket.

The two engines are bit-identical by construction, resting on two pillars:

* **Pure-stage gating.**  A stage is gated off on a stepped cycle only when
  its full run would have been observably pure: retire when no ROB head is
  complete-and-mature (and no thread is newly drained), writeback when no
  completion bucket is due this cycle, issue when the reservation station is
  quiescent (nothing issued last sweep and no wake event — completion pop,
  RS insertion, or flush — has happened since), rename when every non-empty
  IDQ head is blocked on an allocation-pool check that precedes all side
  effects, and fetch when every thread is blocked, redirected, or IDQ-full.
  Predicates are evaluated in stage order, so an earlier stage's effects are
  visible to later predicates exactly as the reference sweep would see them.
  Skipping a provable no-op cannot change machine state, so the stepped
  machine stays cycle-exact against the reference sweep.  The retire, rename
  and fetch predicates are *exact* — whenever one holds, its sweep acts; the
  rename predicate in particular keeps the one side-effecting stall shape
  stepping cycle by cycle (a load that finds the reservation station full
  after running its rename mechanisms — Constable SLD lookup, LVP predict,
  RFP prefetch — has allocatable pools, so rename re-runs, and re-applies
  those effects, every cycle, just like the reference).  The issue gate is
  conservative, so the sweep's own "issued anything" report decides whether
  the cycle counts as acted: a sweep that claimed no port changed nothing
  observable.
* **Exact skipping.**  A cycle in which no stage acted leaves the whole
  machine state untouched, and no per-cycle counter needs replaying: port
  availability is refreshed by the issue sweep itself, and the
  SLD-updates-per-cycle histogram records only the cycles that updated the
  SLD, its zero bucket derived once at the end of the run.  No stage can
  start acting *during* an idle gap except through one of the events the
  skip target minimises over: source operands only ever become ready at
  completion pops, retire waits on completions too, rename waits on
  resources freed by retire/flush, and fetch waits on the refill timer or a
  branch resolution (again a completion).  The resource models keep no
  timers of their own: a port, a store-queue entry, a cache miss or a DRAM
  transaction frees up exactly when a queued micro-op completes (see
  :meth:`OutOfOrderCore._next_event_cycle`).

On top of the two pillars the event engine adds one flattening of *where*
work happens without changing *what* happens: **exact dependence wakeup**.
Its issue sweep parks a dependence-blocked micro-op in the waiters list of
one still-unready producer instead of rescanning it every sweep; the
producer's completion pop moves the waiters back into the scan, which merges
them in reservation-station insertion order (``rs_slot``) — exactly the
order the reference's linear rescan would have visited them.  This is sound
because producer readiness can only change at a completion pop (every
readiness stamp uses the *current* cycle, so a producer captured as a
dependence is always unknown-ready until its pop), and flush-safe because a
consumer is always younger than its producer, so any flush that squashes a
parked op's producer squashes the parked op too.  The reference stepper
never parks — it re-derives readiness from scratch each cycle by definition,
and paying it no new per-cycle cost keeps the two engines' walls honestly
comparable.

The differential tests in ``tests/test_event_driven.py`` and the golden
fixtures pin this equivalence.

**Capacity witnesses.**  The load-port count and the ROB, RS, load-buffer
and store-buffer sizes (:data:`WITNESSED_FIELDS`) are read only by refusal
checks: :meth:`~repro.backend.ports.ExecutionPorts.issue` and rename's pool
checks.  So every run records the most it used of each, folded once per
issue or rename sweep and never per micro-op, and a single-thread run's
:meth:`OutOfOrderCore.capacity_witness` turns those peaks into floors: a
run that never reached a capacity is, step for step, the run of any config
that differs only in setting that capacity at or above its floor.  The
orchestrator serves fig. 20's load-width and depth grid points from a wider
run this way.  ``tests/test_capacity_witness.py`` checks every covered pair
of a load-width x depth grid against a direct simulation, so a new reader
of a witnessed capacity must join the witness or that test fails.
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.backend.dependence import MemoryDependencePredictor
from repro.backend.ports import ExecutionPorts, PortKind
from repro.backend.resources import ResourcePool
from repro.backend.store_queue import StoreQueue
from repro.core.constable import ConstableEngine
from repro.frontend.branch_predictor import BranchPredictor
from repro.isa.instruction import DynamicInstruction, OpClass, StaticInstruction
from repro.lvp.eves import EvesPredictor, ValuePrediction
from repro.memory.coherence import Directory
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import CoreConfig, IdealMode, IdealOracle
from repro.pipeline.stats import PipelineStats, SimulationResult
from repro.pipeline.uop import InflightOp
from repro.prior.elar import EarlyLoadAddressResolver
from repro.prior.rfp import RegisterFilePrefetcher
from repro.rename.memory_renaming import MemoryRenamer
from repro.rename.optimizations import OptimizationKind, RenameOptimizer
from repro.rename.rat import RegisterAliasTable
from repro.workloads.trace import Trace

#: The simulated core's identifier in the coherence directory.
OWN_CORE = 0

#: Sort key restoring reservation-station age order when parked
#: dependence-blocked micro-ops are merged back into the issue scan.
_RS_SLOT = operator.attrgetter("rs_slot")

#: How a decoded micro-op leaves rename (see OutOfOrderCore._decode):
#: complete at rename, or bound for the reservation station as a load, a
#: store or an integer op.
_COMPLETE, _LOAD, _STORE, _INT = range(4)

#: Opclasses that execute on an ALU port when rename does not fold them.
_INT_OPCLASSES = frozenset({OpClass.ALU, OpClass.MUL, OpClass.DIV,
                            OpClass.MOVE_REG, OpClass.MOVE_IMM})

#: Supported execution engines: event-driven cycle skipping (default) and the
#: per-cycle reference stepper it is differentially tested against.
CORE_ENGINES = ("event", "cycle")

#: The capacities a single-thread run witnesses, as the ``CoreConfig``
#: fields that set them: the load ports one issue sweep may claim and the
#: ROB, RS, load-buffer and store-buffer entries rename may hold.
WITNESSED_FIELDS = (("ports", "load"), ("sizes", "rob"), ("sizes", "rs"),
                    ("sizes", "load_buffer"), ("sizes", "store_buffer"))


def effective_capacities(config: CoreConfig, threads: int = 1) -> Tuple[int, ...]:
    """The capacities a core with ``threads`` hardware threads enforces, in
    :data:`WITNESSED_FIELDS` order.

    SMT threads split the ROB and the load and store buffers, which keep at
    least 8, 4 and 4 entries per thread.
    """
    sizes = config.sizes
    return (config.ports.load, max(8, sizes.rob // threads), sizes.rs,
            max(4, sizes.load_buffer // threads),
            max(4, sizes.store_buffer // threads))


@dataclass(frozen=True)
class CapacityWitness:
    """What one finished single-thread run proves about its capacities.

    ``capacities`` are the run's effective capacities and ``floors`` the
    smallest value of each that admits every claim the run checked, both in
    :data:`WITNESSED_FIELDS` order.  A floor is None where the run reached
    the capacity: a refused claim there may have shaped the run.
    """

    capacities: Tuple[int, ...]
    floors: Tuple[Optional[int], ...]

    def covers(self, capacities: Sequence[int]) -> bool:
        """True if a run at ``capacities``, its config and trace otherwise
        the same, is this run step for step."""
        return all(theirs == ours or (floor is not None and theirs >= floor)
                   for ours, floor, theirs
                   in zip(self.capacities, self.floors, capacities))


class GoldenCheckError(AssertionError):
    """Raised when a retired load's value/address disagrees with the functional trace."""


class _ThreadState:
    """Per-hardware-thread front-end and window state."""

    def __init__(self, thread_id: int, trace: Trace, config: CoreConfig,
                 rob_capacity: int, lb_capacity: int, sb_capacity: int):
        self.thread_id = thread_id
        self.trace = trace
        self.instructions = trace.instructions
        # The trace's snoop sequence is an immutable tuple: share it and walk
        # it by index instead of copying it per hardware thread.
        self.snoops = trace.snoops
        self.snoop_index = 0
        self.fetch_index = 0
        self.fetch_blocked_until = 0
        self.pending_redirect_seq: Optional[int] = None
        self.idq: deque = deque()
        # Age-ordered window; a deque so per-instruction head retirement is
        # O(1) instead of shifting the whole window (flush-path index/slice
        # operations are rare and tolerate the deque's O(n)).
        self.rob: deque = deque()
        self.load_buffer: List[InflightOp] = []
        self.store_queue = StoreQueue()
        self.rat: RegisterAliasTable = RegisterAliasTable(config.num_registers)
        self.rob_pool = ResourcePool(f"ROB.t{thread_id}", rob_capacity)
        self.lb_pool = ResourcePool(f"LB.t{thread_id}", lb_capacity)
        self.sb_pool = ResourcePool(f"SB.t{thread_id}", sb_capacity)
        self.branch_history = 0
        self.constable: Optional[ConstableEngine] = None
        self.lvp = None
        self.mrn: Optional[MemoryRenamer] = None
        self.retired_instructions = 0
        self.finish_cycle: Optional[int] = None
        # Rename-sweep scratch, reset at the start of every sweep: loads
        # renamed so far (the SLD read-port limit) and whether the head stalled.
        self.rename_loads = 0
        self.rename_stalled = False

    def fetch_done(self) -> bool:
        return self.fetch_index >= len(self.instructions)

    def done(self) -> bool:
        return self.fetch_done() and not self.rob and not self.idq


class OutOfOrderCore:
    """The simulated core: one or two hardware threads over shared execution resources."""

    def __init__(self, config: CoreConfig, traces: Sequence[Trace],
                 name: str = "baseline", engine: str = "event"):
        if not traces:
            raise ValueError("at least one trace is required")
        if len(traces) > 2:
            raise ValueError("at most two hardware threads (2-way SMT) are supported")
        if engine not in CORE_ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {CORE_ENGINES}")
        self.config = config
        self.name = name
        self.engine = engine
        self.smt = len(traces) > 1
        self.stats = PipelineStats()
        self.ports = ExecutionPorts(config.ports)
        self.hierarchy = MemoryHierarchy(config.memory)
        self.directory = Directory(num_cores=config.num_cores,
                                   line_size=config.memory.l1d.line_size)
        self.branch_predictor = BranchPredictor()
        self.dependence_predictor = MemoryDependencePredictor()
        self.rename_optimizer = RenameOptimizer(config.rename_optimizations)
        self.elar = EarlyLoadAddressResolver() if config.enable_elar else None
        self.rfp = RegisterFilePrefetcher() if config.enable_rfp else None
        _, rob_capacity, rs_capacity, lb_capacity, sb_capacity = \
            effective_capacities(config, len(traces))
        self.rs_pool = ResourcePool("RS", rs_capacity)

        self.threads: List[_ThreadState] = []
        for thread_id, trace in enumerate(traces):
            thread = _ThreadState(thread_id, trace, config, rob_capacity,
                                  lb_capacity, sb_capacity)
            if config.constable is not None:
                thread.constable = ConstableEngine(config.constable,
                                                   num_registers=config.num_registers)
            if config.lvp == "eves":
                thread.lvp = EvesPredictor()
            if config.enable_memory_renaming:
                thread.mrn = MemoryRenamer()
            self.threads.append(thread)

        self.oracle: Optional[IdealOracle] = config.ideal_oracle
        # The first executed (address, value) of each oracle-stable load PC;
        # the oracle covers every later instance.
        self._oracle_values: Dict[int, Tuple[int, int]] = {}
        self.stats_oracle_pcs: Set[int] = set(config.stats_oracle_pcs or ())

        # The threads' Constable engines (fixed after construction); hoisted
        # because both run loops touch them every cycle.
        self._constables = [t.constable for t in self.threads
                            if t.constable is not None]
        # Every allocation pool, for the rename sweep's peak fold.
        self._pools = (self.rs_pool,) + tuple(
            pool for t in self.threads
            for pool in (t.rob_pool, t.lb_pool, t.sb_pool))

        # Coherence bookkeeping: CV bits follow L1 fills and evictions.  The
        # listeners are the directory's and the engines' own methods, never
        # the core's: a core -> hierarchy -> core cycle would keep every
        # finished core alive until a full collection of the cycle collector.
        hierarchy = self.hierarchy
        hierarchy.l1_fill_listeners.append(
            functools.partial(self.directory.record_fill, core=OWN_CORE))
        hierarchy.l1_eviction_listeners.append(
            functools.partial(self.directory.record_eviction, core=OWN_CORE))
        for constable in self._constables:
            hierarchy.l1_eviction_listeners.append(constable.on_l1_eviction)

        # One rename decode per static instruction (see _decode).  Keyed by
        # the static object itself, not its PC: SMT traces can share a PC.
        self._decoded: Dict[StaticInstruction, tuple] = {}
        # The rename sweep's thread order for each value of cycle % threads.
        count = len(self.threads)
        self._rename_orders = tuple(
            tuple(self.threads[(start + i) % count] for i in range(count))
            for start in range(count))
        # Threads not yet drained; the run loops stop at zero.  A thread
        # drains only inside a retire sweep, which stamps its finish cycle
        # and decrements this.
        self._running = 0 if all(t.done() for t in self.threads) else count

        self.cycle = 0
        # Issued micro-ops by completion cycle, each bucket in issue order.
        # Every latency is at least one cycle, so an issue sweep only ever
        # queues into a later cycle's bucket, and writeback pops exactly the
        # current cycle's.
        self._due: Dict[int, List[InflightOp]] = {}
        self._rs_waiting: List[InflightOp] = []
        # True while nothing in the reservation station can possibly issue:
        # set when an issue sweep claims no port, cleared by every wake event
        # (completion pop, RS insertion, flush).  Lets the event engine gate
        # the issue stage off on stepped cycles.
        self._issue_quiescent = False
        # Exact dependence wakeup (event engine only).  Producer readiness
        # changes *only* when the producer's completion pops (every
        # mark_value_ready call stamps the current cycle, so a producer
        # captured into depends_on is always unknown-ready until its
        # completion pops).  The event engine's issue sweep therefore parks
        # a dependence-blocked micro-op in the waiters list of one unready
        # producer; the producer's pop moves the dependents into _rs_woken,
        # and the next sweep merges them back in rs_slot age order.  The
        # reference stepper re-derives readiness from scratch every cycle by
        # definition, so it never parks.
        self._park_blocked = engine == "event"
        self._rs_woken: List[InflightOp] = []
        #: Monotone RS insertion counter backing InflightOp.rs_slot; it is
        #: also the run's RS allocation count.
        self._rs_slot_counter = 0
        # Set by _rename_one when a stall itself had side effects (SLD-port
        # stall statistics, rename mechanisms re-run against a full RS);
        # _rename_stage folds it into its "acted" report.
        self._rename_stall_acted = False
        #: Idle cycles the event engine jumped over instead of stepping.
        self.skipped_idle_cycles = 0
        #: Cycles in which the stage pipeline actually ran.
        self.stepped_cycles = 0

    # ------------------------------------------------------------------ helpers

    @staticmethod
    def _word(address: int) -> int:
        return address & ~0x7

    # ===================================================================== fetch

    def _deliver_snoops(self, thread: _ThreadState) -> None:
        """Deliver snoop events anchored before the next instruction to fetch."""
        if thread.snoop_index >= len(thread.snoops):
            return
        next_seq = (thread.instructions[thread.fetch_index].seq
                    if not thread.fetch_done() else None)
        while thread.snoop_index < len(thread.snoops):
            snoop = thread.snoops[thread.snoop_index]
            if next_seq is not None and snoop.after_seq > next_seq:
                break
            thread.snoop_index += 1
            if self.directory.snoop_reaches_core(snoop.address, OWN_CORE):
                self.hierarchy.invalidate_line(snoop.address)
                if thread.constable is not None:
                    thread.constable.on_snoop(snoop.address)

    def _apply_wrong_path_noise(self, thread: _ThreadState, pc: int) -> None:
        """Emulate wrong-path instructions updating Constable's RMT/SLD (Fig. 9b)."""
        constable = thread.constable
        if constable is None or not constable.config.wrong_path_updates:
            return
        # Deterministic pseudo-random register choices derived from the branch PC.
        registers = [(pc >> 3) % self.config.num_registers,
                     (pc >> 7) % self.config.num_registers]
        for register in registers:
            constable.on_register_write(register)

    def _fetch_thread(self, thread: _ThreadState, budget: int) -> int:
        # The block/redirect conditions cannot start holding mid-sweep (a
        # mispredict breaks out directly), so they are checked once up front;
        # the loop re-checks only the conditions fetching itself changes.
        if (self.cycle < thread.fetch_blocked_until
                or thread.pending_redirect_seq is not None):
            return 0
        fetched = 0
        instructions = thread.instructions
        total = len(instructions)
        idq = thread.idq
        idq_entries = self.config.idq_entries
        snoops_len = len(thread.snoops)
        while (fetched < budget and thread.fetch_index < total
               and len(idq) < idq_entries):
            if thread.snoop_index < snoops_len:
                self._deliver_snoops(thread)
            index = thread.fetch_index
            dyn = instructions[index]
            idq.append((dyn, index))
            thread.fetch_index = index + 1
            fetched += 1
            if dyn.is_branch:
                is_conditional = dyn.static.opclass is OpClass.BRANCH
                predicted = self.branch_predictor.predict_taken(dyn.pc, is_conditional)
                if is_conditional:
                    self.stats.branches_predicted += 1
                if predicted != dyn.branch_taken:
                    # Fetch must wait until the branch resolves (trace-driven model).
                    thread.pending_redirect_seq = dyn.seq
                    self.stats.branch_mispredictions += 1
                    self._apply_wrong_path_noise(thread, dyn.pc)
                    break
        self.stats.uops_fetched += fetched
        return fetched

    def _fetch_stage(self) -> bool:
        """Run the fetch sweep; True if any micro-op was fetched.

        A zero-fetch sweep never entered a loop body (every thread failed the
        entry conditions), so it was observably pure.
        """
        budget = self.config.fetch_width
        fetched = 0
        if self.smt:
            per_thread = max(1, budget // len(self.threads))
            for offset in range(len(self.threads)):
                thread = self.threads[(self.cycle + offset) % len(self.threads)]
                fetched += self._fetch_thread(thread, per_thread)
        else:
            fetched = self._fetch_thread(self.threads[0], budget)
        return fetched > 0

    # ==================================================================== rename

    def _decode(self, dyn: DynamicInstruction) -> tuple:
        """Decode ``dyn``'s static instruction for rename, once per core.

        Returns ``(route, port_kind, exec_latency, sources, dest)``: how the
        micro-op leaves rename (:data:`_COMPLETE` at rename, :data:`_LOAD`,
        :data:`_STORE` or :data:`_INT`), and the port, latency and registers
        it needs.  All of it is a pure function of the static instruction and
        the fixed config.
        """
        static = dyn.static
        config = self.config
        opclass = static.opclass
        port_kind, latency = None, 0
        if self.rename_optimizer.classify(dyn) is not OptimizationKind.NONE:
            route = _COMPLETE
        elif static.is_load:
            route, port_kind = _LOAD, PortKind.LOAD
        elif static.is_store:
            route, port_kind, latency = _STORE, PortKind.STORE_ADDRESS, config.agu_latency
        elif static.is_branch or opclass in _INT_OPCLASSES:
            # Non-folded moves execute on an ALU port like any other integer op.
            route, port_kind = _INT, PortKind.ALU
            latency = (config.mul_latency if opclass is OpClass.MUL
                       else config.div_latency if opclass is OpClass.DIV
                       else config.alu_latency)
        else:
            route = _COMPLETE
        decoded = (route, port_kind, latency, static.source_registers(), static.dest)
        self._decoded[static] = decoded
        return decoded

    def _rename_load(self, thread: _ThreadState, op: InflightOp) -> bool:
        """Run a load's rename-stage mechanisms; False if it completed at rename."""
        dyn = op.dyn
        mode = dyn.static.addressing_mode()
        op.oracle_stable = dyn.pc in self.stats_oracle_pcs
        if op.oracle_stable:
            self.stats.oracle_stable_loads_renamed += 1

        # Ideal oracle mechanisms (Fig. 7) take precedence over everything else.
        if self.oracle is not None and dyn.pc in self._oracle_values:
            op.ideal_covered = True
            if self.oracle.mode is IdealMode.CONSTABLE:
                op.eliminated = True
                op.constable_address, op.constable_value = self._oracle_values[dyn.pc]
                op.mark_complete(self.cycle)
                op.value_obtained_cycle = self.cycle
                return False
            # Both stable-LVP modes break the data dependence immediately.
            op.mark_value_ready(self.cycle)
            op.value_obtained_cycle = self.cycle
            return True

        # Constable (the real mechanism).
        if thread.constable is not None:
            decision = thread.constable.on_load_rename(dyn.pc, mode)
            op.likely_stable = decision.likely_stable
            if decision.eliminate:
                op.eliminated = True
                op.constable_value = decision.value
                op.constable_address = decision.address
                op.mark_complete(self.cycle)
                op.value_obtained_cycle = self.cycle
                return False

        # Load value prediction (EVES).
        if thread.lvp is not None:
            prediction = thread.lvp.predict(dyn.pc, thread.branch_history)
            if prediction.predicted:
                op.lvp_prediction = prediction
                op.mark_value_ready(self.cycle)
                op.value_obtained_cycle = self.cycle
                self.stats.value_predicted_loads += 1

        # Memory renaming: break the data dependence if a paired store is in flight.
        if thread.mrn is not None and op.lvp_prediction is None:
            store_pc = thread.mrn.predicted_store_pc(dyn.pc)
            if store_pc is not None:
                for record in reversed(thread.store_queue.records()):
                    if record.pc == store_pc:
                        op.mrn_store = record
                        op.mrn_predicted = True
                        op.mark_value_ready(self.cycle)
                        break

        # ELAR / RFP.
        if self.elar is not None and self.elar.can_resolve_early(dyn):
            op.elar_early = True
        if self.rfp is not None:
            predicted_address = self.rfp.issue_prefetch(dyn.pc)
            if predicted_address is not None:
                op.rfp_address = predicted_address
                self.hierarchy.load_access(predicted_address, dyn.pc)
        return True

    def _rename_one(self, thread: _ThreadState, dyn: DynamicInstruction,
                    trace_index: int) -> Optional[InflightOp]:
        """Rename a single micro-op; returns None if allocation must stall."""
        decoded = self._decoded.get(dyn.static)
        if decoded is None:
            decoded = self._decode(dyn)
        route, port_kind, exec_latency, sources, dest = decoded
        is_load = route == _LOAD
        is_store = route == _STORE
        constable = thread.constable

        # Per-cycle SLD read-port limit (§6.7.1): stall beyond three loads/cycle.
        if constable is not None:
            constable_config = self.config.constable
            if ((is_load and thread.rename_loads >= constable_config.sld_read_ports)
                    or constable.sld_updates_this_cycle > constable_config.sld_write_ports):
                self.stats.rename_stalls_sld_ports += 1
                self._rename_stall_acted = True
                return None

        # Resource checks (no partial allocation: check first, then claim).
        rob_pool = thread.rob_pool
        if rob_pool.occupied >= rob_pool.capacity:
            return None
        if is_load:
            lb_pool = thread.lb_pool
            if lb_pool.occupied >= lb_pool.capacity:
                return None
        elif is_store:
            sb_pool = thread.sb_pool
            if sb_pool.occupied >= sb_pool.capacity:
                return None

        cycle = self.cycle
        op = InflightOp(dyn, thread.thread_id, trace_index)
        if route == _COMPLETE:
            # Folded/eliminated at rename: completes immediately, no RS, no port.
            op.complete = True
            op.complete_cycle = op.value_ready_cycle = cycle
            needs_rs = False
        else:
            # Producer capture happens only on the paths that can reach the
            # reservation station: a micro-op that completes at rename never
            # has its depends_on scanned.  The register alias table maps
            # each register to its in-flight producer.
            producers = thread.rat.producers
            depends = None
            for register in sources:
                producer = producers[register]
                if producer is not None and not producer.squashed:
                    ready = producer.value_ready_cycle
                    if ready is None or ready > cycle:
                        if depends is None:
                            depends = op.depends_on = [producer]
                        else:
                            depends.append(producer)
            if is_load:
                needs_rs = self._rename_load(thread, op)
                if needs_rs:
                    op.port_kind = port_kind
            else:
                op.port_kind = port_kind
                op.exec_latency = exec_latency
                needs_rs = True

        rs_pool = self.rs_pool
        if needs_rs and rs_pool.occupied >= rs_pool.capacity:
            # A load reaching this point already ran its rename-stage
            # mechanisms (Constable SLD lookup, LVP predict, RFP prefetch
            # into the real hierarchy), and the per-cycle reference re-runs
            # them on every stalled cycle.  Flagging the stall as an action
            # keeps the event engine stepping such cycles one by one, so the
            # mechanisms re-fire exactly as often as in the reference.
            rs_pool.allocation_stalls += 1
            self._rename_stall_acted = True
            return None

        # Claim resources: capacity was checked above, so the claim is
        # occupancy bookkeeping only (the allocation counts are the
        # renamed-op counters and the RS slot counter, and the rename sweep
        # folds the peaks).
        rob_pool.occupied += 1
        if is_load:
            lb_pool.occupied += 1
        elif is_store:
            sb_pool.occupied += 1
            op.store_record = thread.store_queue.insert(dyn.seq, dyn.pc)
        if needs_rs:
            rs_pool.occupied += 1
            op.in_rs = True
            op.rs_slot = self._rs_slot_counter
            self._rs_slot_counter += 1
            self._rs_waiting.append(op)
            self._issue_quiescent = False

        if dest is not None:
            # Constable: every destination write is visible to the RMT (steps 7-8).
            if constable is not None:
                constable.on_register_write(dest)
            # Record the producer in the register alias table.
            thread.rat.producers[dest] = op
        thread.rob.append(op)
        if is_load:
            thread.load_buffer.append(op)

        # Branch history for context-based value prediction.
        if dyn.is_branch:
            thread.branch_history = ((thread.branch_history << 1)
                                     | int(dyn.branch_taken)) & ((1 << 64) - 1)

        # Bookkeeping.
        stats = self.stats
        stats.uops_renamed += 1
        if is_load:
            stats.loads_renamed += 1
            thread.rename_loads += 1
        elif is_store:
            stats.stores_renamed += 1
        elif dyn.is_branch:
            stats.branches_renamed += 1
        return op

    def _rename_stage(self) -> bool:
        """Run the rename sweep; True if it acted.

        "Acted" means a micro-op was renamed or a *side-effecting* stall
        fired (an SLD-port stall statistic, or a load re-running its rename
        mechanisms against a full reservation station — both flagged by
        :meth:`_rename_one`).  A False sweep only probed allocation pools and
        invisible classifier scratch, so it was observably pure.

        Only rename claims pool entries, so a sweep that renamed something
        ends at its own peak occupancy of every pool; that is when each
        pool's ``peak_occupancy`` is folded.
        """
        self._rename_stall_acted = False
        budget = self.config.rename_width
        orders = self._rename_orders
        thread_order = orders[self.cycle % len(orders)]
        for thread in thread_order:
            thread.rename_loads = 0
            thread.rename_stalled = False
        rename_one = self._rename_one
        renamed = 0
        while renamed < budget:
            progress = False
            for thread in thread_order:
                if renamed >= budget or thread.rename_stalled or not thread.idq:
                    continue
                dyn, trace_index = thread.idq[0]
                if rename_one(thread, dyn, trace_index) is None:
                    thread.rename_stalled = True
                    continue
                thread.idq.popleft()
                renamed += 1
                progress = True
            if not progress:
                break
        if renamed:
            for pool in self._pools:
                if pool.occupied > pool.peak_occupancy:
                    pool.peak_occupancy = pool.occupied
            return True
        return self._rename_stall_acted

    # ===================================================================== issue

    def _load_latency(self, thread: _ThreadState, op: InflightOp) -> int:
        config = self.config
        dyn = op.dyn
        address = dyn.address

        # Register-file prefetching: a correct address prediction hides the access.
        if self.rfp is not None and op.rfp_address is not None:
            if self.rfp.verify(op.rfp_address, address):
                return config.agu_latency + 1

        # Store-to-load forwarding from the same thread's store queue.
        forwarding = thread.store_queue.forwarding_candidate(dyn.seq, address)
        if forwarding is not None and forwarding.data_ready:
            self.stats.loads_forwarded_from_store += 1
            latency = config.agu_latency + config.store_forward_latency
        else:
            memory_latency, _ = self.hierarchy.load_access(address, dyn.pc)
            latency = config.agu_latency + memory_latency

        if op.elar_early and self.elar is not None:
            latency = max(1, latency - self.elar.latency_savings())
        return latency

    def _execute_store_address(self, thread: _ThreadState, op: InflightOp) -> None:
        """A store generated its address: AMT lookup, MRN training, ordering check."""
        dyn = op.dyn
        record = op.store_record
        record.address = dyn.address
        record.line_address = dyn.address - (dyn.address % self.config.memory.l1d.line_size)
        record.value = dyn.store_value
        record.address_ready = True
        record.data_ready = True

        if thread.constable is not None:
            thread.constable.on_store_address(dyn.address)
        if thread.mrn is not None:
            thread.mrn.observe_store(dyn.pc, dyn.address, dyn.seq)

        # Memory disambiguation (paper §6.5): younger loads that already obtained
        # a value for the same word must be squashed and re-executed.
        victim: Optional[InflightOp] = None
        store_word = self._word(dyn.address)
        for load in thread.load_buffer:
            if load.squashed or load.seq <= dyn.seq:
                continue
            load_address = load.constable_address if load.eliminated else load.dyn.address
            if self._word(load_address) != store_word:
                continue
            obtained = load.value_obtained_cycle
            if obtained is not None and obtained <= self.cycle:
                if victim is None or load.seq < victim.seq:
                    victim = load
        if victim is not None:
            self.stats.ordering_violation_flushes += 1
            self.dependence_predictor.train_violation(victim.pc)
            if victim.eliminated and thread.constable is not None:
                thread.constable.on_ordering_violation(victim.pc)
            self._flush_from(thread, victim, reason="ordering")

    def _issue_stage(self) -> bool:
        """Run the issue sweep; True if any micro-op claimed a port.

        A False sweep is observably pure: no port was claimed, so every
        waiting micro-op failed a condition (operand readiness, a
        store-ordering wait) that only a wake event can change.  The sweep
        records that by setting :attr:`_issue_quiescent`, which gates further
        sweeps off until a wake event clears it.
        """
        config = self.config
        cycle = self.cycle
        stats = self.stats
        ports = self.ports
        ports.new_cycle()
        threads = self.threads
        rs_pool = self.rs_pool
        should_wait_for_stores = self.dependence_predictor.should_wait_for_stores
        due = self._due
        # Load-port accounting for Fig. 6: a load issued this sweep, one of
        # them oracle-stable, and a non-stable load denied a port.
        issued_load = stable_issued = denied_nonstable = False
        issued_any = False
        still_waiting: List[InflightOp] = []
        waiting_append = still_waiting.append
        # Merge micro-ops woken by completed producers back into the scan at
        # their original age position (the reference's scan order is exactly
        # ascending rs_slot).
        scan = self._rs_waiting
        if self._rs_woken:
            scan = scan + self._rs_woken
            scan.sort(key=_RS_SLOT)
            self._rs_woken = []
        park = self._park_blocked
        for op in scan:
            if op.squashed:
                continue
            if op.issued:
                continue
            # Operand readiness, pruning already-satisfied producers as it
            # goes (readiness is monotone).  A micro-op still
            # dependence-blocked parks in one unready producer's waiters list
            # until that completion pops and re-wakes it.
            deps = op.depends_on
            if deps:
                keep = 0
                for producer in deps:
                    ready = producer.value_ready_cycle
                    if ready is None or ready > cycle:
                        deps[keep] = producer
                        keep += 1
                if keep:
                    del deps[keep:]
                    if park:
                        producer = deps[0]
                        w = producer.waiters
                        if w is None:
                            producer.waiters = [op]
                        else:
                            w.append(op)
                    else:
                        waiting_append(op)
                    continue
                op.depends_on = None
            thread = threads[op.thread]
            if (op.is_load
                    and should_wait_for_stores(op.pc)
                    and thread.store_queue.has_unresolved_older_store(op.seq)):
                waiting_append(op)
                continue
            kind = op.port_kind or PortKind.ALU
            if not ports.issue(kind):
                if op.is_load and not op.oracle_stable:
                    denied_nonstable = True
                waiting_append(op)
                continue

            op.issued = True
            rs_pool.occupied -= 1  # inlined release; every issuer holds an entry
            op.in_rs = False
            stats.rs_issues += 1
            issued_any = True

            if op.is_load:
                ideal_fetch_elim = (op.ideal_covered and self.oracle is not None
                                    and self.oracle.mode is IdealMode.STABLE_LVP_FETCH_ELIM)
                if ideal_fetch_elim:
                    latency = config.agu_latency
                else:
                    latency = self._load_latency(thread, op)
                stats.loads_executed += 1
                stats.agu_ops += 1
                issued_load = True
                if op.oracle_stable:
                    stable_issued = True
                if op.value_obtained_cycle is None:
                    op.value_obtained_cycle = cycle + latency
            else:
                latency = op.exec_latency
                if op.is_store:
                    stats.agu_ops += 1
                else:
                    opclass = op.opclass
                    if opclass is OpClass.MUL:
                        stats.mul_ops += 1
                    elif opclass is OpClass.DIV:
                        stats.div_ops += 1
                    else:
                        stats.alu_ops += 1

            completion = cycle + latency
            bucket = due.get(completion)
            if bucket is None:
                due[completion] = [op]
            else:
                bucket.append(op)

        self._rs_waiting = still_waiting
        # If nothing issued, no port was claimed either, so every waiting uop
        # failed a condition (operand readiness, store-ordering wait) that
        # only a wake event can change — the station is quiescent until then.
        self._issue_quiescent = not issued_any

        if issued_load:
            stats.load_utilized_cycles += 1
            if stable_issued and denied_nonstable:
                stats.load_utilized_cycles_stable_blocking += 1
            elif stable_issued:
                stats.load_utilized_cycles_stable_only += 1
        return issued_any

    # ================================================================= writeback

    def _writeback_load(self, thread: _ThreadState, op: InflightOp) -> None:
        dyn = op.dyn
        actual_value = dyn.load_value
        address = dyn.address

        if self.oracle is not None and dyn.pc in self.oracle.stable_pcs:
            self._oracle_values.setdefault(dyn.pc, (address, actual_value))

        # Value prediction verification and training.
        if thread.lvp is not None:
            if op.lvp_prediction is not None:
                correct = thread.lvp.record_outcome(op.lvp_prediction, actual_value)
                if correct:
                    self.stats.value_predictions_correct += 1
                else:
                    self.stats.lvp_misprediction_flushes += 1
                    self._flush_after(thread, op, reason="lvp")
            else:
                thread.lvp.record_outcome(_NO_PREDICTION, actual_value)
            thread.lvp.train(dyn.pc, actual_value, thread.branch_history)

        # Memory renaming verification and training.
        if thread.mrn is not None:
            if op.mrn_predicted and op.mrn_store is not None:
                correct = (not op.mrn_store.address_ready
                           or op.mrn_store.overlaps(address))
                if not correct:
                    self.stats.mrn_misprediction_flushes += 1
                    self._flush_after(thread, op, reason="mrn")
            thread.mrn.observe_load(dyn.pc, address, dyn.seq)

        # Register-file prefetcher training.
        if self.rfp is not None:
            self.rfp.train(dyn.pc, address)

        # Constable: confidence update and (for likely-stable loads) RMT/AMT insertion.
        if thread.constable is not None:
            pin = thread.constable.on_load_writeback(
                dyn.pc, address, actual_value,
                dyn.static.source_registers(), op.likely_stable)
            if pin:
                self.directory.pin(address, OWN_CORE)

        self.dependence_predictor.observe_safe_execution(dyn.pc)

    def _writeback_stage(self) -> bool:
        """Run the writeback sweep; True if this cycle's bucket was popped.

        Popping a bucket of squashed completions is counted as acting even
        though it is unobservable — that is merely conservative (the cycle
        steps instead of being skipped).  A False sweep found no bucket, so
        it was pure.
        """
        cycle = self.cycle
        completing = self._due.pop(cycle, None)
        if completing is None:
            return False
        # A completion is a wake event for the issue stage: operands may
        # become ready, store addresses resolve, ordering waits clear.
        self._issue_quiescent = False
        threads = self.threads
        for op in completing:
            if op.squashed:
                continue
            thread = threads[op.thread]
            # Inlined InflightOp.mark_complete.
            op.complete = True
            op.complete_cycle = cycle
            ready = op.value_ready_cycle
            if ready is None or cycle < ready:
                op.value_ready_cycle = cycle
            waiters = op.waiters
            if waiters is not None:
                # Dependents parked on this producer re-enter the issue scan.
                op.waiters = None
                self._rs_woken.extend(waiters)
            if op.is_load:
                self._writeback_load(thread, op)
            elif op.is_store:
                self._execute_store_address(thread, op)
            elif op.dyn.is_branch:
                is_conditional = op.dyn.static.opclass is OpClass.BRANCH
                self.branch_predictor.resolve_at_writeback(
                    op.pc, is_conditional, op.dyn.branch_taken)
                if thread.pending_redirect_seq == op.seq:
                    thread.pending_redirect_seq = None
                    thread.fetch_blocked_until = self.cycle + self.config.frontend_refill_cycles
        return True

    # ==================================================================== retire

    def _golden_check(self, op: InflightOp) -> None:
        dyn = op.dyn
        self.stats.golden_checks += 1
        if op.eliminated and not op.reexecuted:
            if op.constable_value != dyn.load_value or op.constable_address != dyn.address:
                raise GoldenCheckError(
                    f"eliminated load at pc={dyn.pc:#x} seq={dyn.seq} retired with "
                    f"value={op.constable_value:#x} addr={op.constable_address:#x}, "
                    f"functional value={dyn.load_value:#x} addr={dyn.address:#x}")

    def _retire_thread(self, thread: _ThreadState, budget: int) -> bool:
        """Retire up to ``budget`` micro-ops; True if the sweep acted.

        "Acted" means a micro-op retired or the thread just drained and had
        its finish cycle stamped.  A False sweep only inspected the ROB head,
        so it was observably pure.
        """
        retired = 0
        rob = thread.rob
        cycle = self.cycle
        producers = thread.rat.producers
        while retired < budget and rob:
            op = rob[0]
            if not op.complete or (op.complete_cycle is not None
                                   and op.complete_cycle > cycle):
                break
            rob.popleft()
            if op.is_load:
                self._golden_check(op)
                # Loads usually retire in buffer order, so the head is the
                # common case; fall back to a scan for out-of-order removal
                # (a load squashed out of the buffer is simply absent).
                load_buffer = thread.load_buffer
                if load_buffer and load_buffer[0] is op:
                    del load_buffer[0]
                elif op in load_buffer:
                    load_buffer.remove(op)
                thread.lb_pool.occupied -= 1
                if op.eliminated:
                    self.stats.eliminated_loads_retired += 1
                    if op.oracle_stable:
                        self.stats.eliminated_oracle_stable_loads += 1
                    else:
                        self.stats.eliminated_non_stable_loads += 1
                    if thread.constable is not None:
                        thread.constable.release_xprf()
            if op.is_store:
                self.hierarchy.store_access(op.dyn.address, op.pc)
                self.stats.store_commits += 1
                thread.store_queue.remove(op.seq)
                thread.sb_pool.occupied -= 1
            # Inlined RegisterAliasTable.clear_producer.
            dest = op.dest
            if dest is not None and producers[dest] is op:
                producers[dest] = None
            retired += 1
        acted = retired > 0
        if acted:
            thread.rob_pool.occupied -= retired
            thread.retired_instructions += retired
            self.stats.instructions_retired += retired
        if thread.finish_cycle is None and thread.done():
            thread.finish_cycle = cycle
            self._running -= 1
            acted = True
        return acted

    def _retire_stage(self) -> bool:
        """Run the retire sweep; True if any thread's sweep acted."""
        budget = self.config.retire_width
        if self.smt:
            per_thread = max(1, budget // len(self.threads))
            acted = False
            for thread in self.threads:
                if self._retire_thread(thread, per_thread):
                    acted = True
            return acted
        return self._retire_thread(self.threads[0], budget)

    # ===================================================================== flush

    def _squash(self, thread: _ThreadState, op: InflightOp) -> None:
        op.squashed = True
        if op.in_rs:
            self.rs_pool.occupied -= 1  # inlined release
            op.in_rs = False
        if op.is_load:
            # Flushes squash the window youngest-first, so the victim is
            # usually the buffer tail.
            load_buffer = thread.load_buffer
            if load_buffer and load_buffer[-1] is op:
                load_buffer.pop()
            elif op in load_buffer:
                load_buffer.remove(op)
            thread.lb_pool.occupied -= 1
            if op.eliminated and thread.constable is not None:
                thread.constable.release_xprf()
        if op.is_store:
            thread.sb_pool.occupied -= 1
        if op.dest is not None:
            thread.rat.clear_producer(op.dest, op)
        thread.rob_pool.occupied -= 1
        self.stats.reexecuted_uops += 1

    def _flush_from(self, thread: _ThreadState, first_victim: InflightOp,
                    reason: str) -> None:
        """Squash ``first_victim`` and everything younger in its thread, then refetch."""
        self.stats.flushes += 1
        if first_victim.is_load:
            first_victim.reexecuted = True
        rob = thread.rob
        try:
            start = rob.index(first_victim)
        except ValueError:
            return
        # Pop the victims off the tail (squash order is unobservable: pool
        # releases are counts and the RAT is rebuilt below).
        while len(rob) > start:
            self._squash(thread, rob.pop())
        thread.store_queue.squash_younger_than(first_victim.seq - 1)
        self._rs_waiting = [op for op in self._rs_waiting if not op.squashed]
        self._issue_quiescent = False
        thread.rat.rebuild(thread.rob, lambda op: op.dest if not op.squashed else None)
        thread.idq.clear()
        thread.fetch_index = first_victim.trace_index
        thread.pending_redirect_seq = None
        thread.fetch_blocked_until = self.cycle + self.config.flush_penalty
        del reason

    def _flush_after(self, thread: _ThreadState, op: InflightOp, reason: str) -> None:
        """Squash everything younger than ``op`` (value-misprediction recovery)."""
        try:
            index = thread.rob.index(op)
        except ValueError:
            return
        if index + 1 < len(thread.rob):
            self._flush_from(thread, thread.rob[index + 1], reason)
        else:
            # Nothing younger in flight; only the front-end needs to restart.
            thread.idq.clear()
            thread.fetch_index = op.trace_index + 1
            thread.pending_redirect_seq = None
            thread.fetch_blocked_until = self.cycle + self.config.flush_penalty
            self.stats.flushes += 1

    # ======================================================================= run

    def _next_event_cycle(self) -> Optional[int]:
        """The next cycle at which an idle machine can make progress, or None.

        After a zero-progress cycle, every stage is blocked on a condition
        that only one of two events can change (see the module docstring's
        equivalence argument): the earliest completion bucket, or a thread's
        front-end refill timer.  No resource model keeps a timer of its own:
        a port, a store-queue entry, a cache miss or a DRAM transaction
        becomes free exactly when a micro-op the core queued completes, so
        the buckets already bound every such event.
        """
        cycle = self.cycle
        due = self._due
        target = min(due) if due else None
        for thread in self.threads:
            refill = thread.fetch_blocked_until
            if (refill > cycle and (target is None or refill < target)
                    and not thread.fetch_done()):
                target = refill
        return target

    def _skip_idle_gap(self, max_cycles: int) -> None:
        """Jump over the idle cycles between now and the next event.

        An idle cycle changes no machine state, and no per-cycle counter
        needs replaying: the SLD-updates histogram records only the cycles
        that updated the SLD (:meth:`run` derives its zero bucket).  The jump
        lands one cycle *before* the event so the main loop's increment and
        runaway guard see exactly the cycle values the reference stepper
        would.
        """
        target = self._next_event_cycle()
        if target is None:
            # Genuine deadlock: no queued completion or front-end refill
            # timer can ever unblock a stage.  Jump to the runaway guard so
            # both engines raise the identical diagnostic.
            self.cycle = max_cycles
            return
        resume = min(target, max_cycles + 1)
        skipped = resume - self.cycle - 1
        if skipped <= 0:
            return
        self.skipped_idle_cycles += skipped
        self.cycle = resume - 1

    # ------------------------------------------------------ stage wake predicates

    def _retire_can_act(self) -> bool:
        """True unless a retire sweep would provably be a no-op.

        Mirrors :meth:`_retire_thread`'s loop entry and drain check: the
        stage only does work when some ROB head is complete and mature
        (``complete_cycle <= now``) or a thread has just drained and needs
        its finish cycle stamped.  The predicate is exact: whenever it holds,
        the sweep retires at least one micro-op or stamps a finish cycle.
        """
        cycle = self.cycle
        for thread in self.threads:
            rob = thread.rob
            if rob:
                head = rob[0]
                if head.complete and (head.complete_cycle is None
                                      or head.complete_cycle <= cycle):
                    return True
            elif thread.finish_cycle is None and thread.done():
                return True
        return False

    def _rename_must_run(self) -> bool:
        """True unless a rename sweep would provably be a no-op.

        For each thread with a non-empty IDQ the head's rename attempt is
        observably pure only when it bails at the allocation-pool checks —
        everything before them (the SLD port checks aside) mutates nothing
        the result records.  The SLD port checks *do* bump a stall statistic
        and sit in front of the pool checks, so any state in which they could
        fire forces the sweep to run.  A load head stalled on a full
        reservation station also keeps this predicate True (its pools are
        allocatable), which is exactly what the reference needs: that stall
        re-runs side-effecting mechanisms (Constable SLD lookup, LVP predict,
        RFP prefetch) every cycle, so those cycles must step one by one.
        Whenever the predicate holds the sweep acts — it renames the head or
        fires one of those side-effecting stalls (both of which
        :meth:`_rename_stage` would report as actions).
        """
        constable_config = self.config.constable
        for thread in self.threads:
            idq = thread.idq
            if not idq:
                continue
            head = idq[0][0]
            constable = thread.constable
            if constable is not None:
                if (constable.sld_updates_this_cycle
                        > constable_config.sld_write_ports):
                    return True
                if head.is_load and constable_config.sld_read_ports <= 0:
                    return True
            rob_pool = thread.rob_pool
            if rob_pool.occupied >= rob_pool.capacity:
                continue
            if head.is_load:
                lb_pool = thread.lb_pool
                if lb_pool.occupied >= lb_pool.capacity:
                    continue
            elif head.is_store:
                sb_pool = thread.sb_pool
                if sb_pool.occupied >= sb_pool.capacity:
                    continue
            return True
        return False

    def _fetch_can_act(self) -> bool:
        """True unless a fetch sweep would provably be a no-op (mirrors
        :meth:`_fetch_thread`'s loop entry conditions exactly, so whenever it
        holds the sweep fetches at least one micro-op)."""
        cycle = self.cycle
        idq_entries = self.config.idq_entries
        for thread in self.threads:
            if (thread.fetch_index < len(thread.instructions)
                    and len(thread.idq) < idq_entries
                    and cycle >= thread.fetch_blocked_until
                    and thread.pending_redirect_seq is None):
                return True
        return False

    # --------------------------------------------------------------- run loops

    def _run_cycle_engine(self, max_cycles: int) -> None:
        """The reference stepper: every cycle runs every stage, idle or not."""
        constables = self._constables
        stats = self.stats
        while self._running:
            self.cycle += 1
            if self.cycle > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles; likely a deadlock")
            self._retire_stage()
            self._writeback_stage()
            self._issue_stage()
            self._rename_stage()
            self._fetch_stage()
            # Close the cycle's SLD write-port window (§6.7.1): record and
            # reset each engine's count, if the cycle updated the SLD.
            for constable in constables:
                if constable.sld_updates_this_cycle:
                    stats.record_sld_updates(constable.sld_updates_this_cycle)
                    constable.begin_cycle()
            self.stepped_cycles += 1

    def _run_event_engine(self, max_cycles: int) -> None:
        """Event-driven stepping: gate pure stages, skip provably idle gaps.

        Per stepped cycle each stage runs only if its wake predicate holds,
        evaluated in stage order so an earlier stage's effects (a completion
        pop waking the issue stage, retirement freeing rename's pools) are
        visible to later predicates exactly as they are to the reference's
        unconditional sweep.  The retire, rename and fetch predicates are
        exact (predicate holds ⇔ the sweep acts), so passing one marks the
        cycle as acted; the issue gate is conservative — the station may hold
        ready-looking work that still claims no port — so the sweep's own
        "issued anything" report decides.  When nothing acted, the cycle was
        provably idle — every gated-off stage's full run would have been a
        no-op — and no stage can start acting before the next scheduled event
        (see the module docstring's equivalence argument), so the engine
        jumps straight to that event.  All three refinements eliminate no-ops
        only; the machine trajectory is exactly the reference stepper's.
        """
        constables = self._constables
        stats = self.stats
        due = self._due
        while self._running:
            self.cycle += 1
            cycle = self.cycle
            if cycle > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles; likely a deadlock")
            acted = False
            if self._retire_can_act():
                self._retire_stage()
                acted = True
            if cycle in due:
                self._writeback_stage()
                acted = True
            if ((self._rs_waiting or self._rs_woken)
                    and not self._issue_quiescent):
                if self._issue_stage():
                    acted = True
            if self._rename_must_run():
                self._rename_stage()
                acted = True
            if self._fetch_can_act():
                self._fetch_stage()
                acted = True
            for constable in constables:
                if constable.sld_updates_this_cycle:
                    stats.record_sld_updates(constable.sld_updates_this_cycle)
                    constable.begin_cycle()
            self.stepped_cycles += 1
            if not acted:
                self._skip_idle_gap(max_cycles)

    def run(self) -> SimulationResult:
        """Simulate until every thread has drained; returns the result record."""
        total_instructions = sum(len(t.instructions) for t in self.threads)
        max_cycles = total_instructions * self.config.max_cycles_per_instruction + 10_000
        if self.engine == "event":
            self._run_event_engine(max_cycles)
        else:
            self._run_cycle_engine(max_cycles)
        self.stats.cycles = self.cycle
        if self._constables:
            # Every thread-cycle the loops did not record updated no SLD entry.
            histogram = self.stats.sld_update_cycles_histogram
            idle = self.cycle * len(self._constables) - sum(histogram.values())
            if idle:
                histogram[0] = idle
        return self._build_result()

    def capacity_witness(self) -> Optional[CapacityWitness]:
        """What this finished run proves about its capacities; None for an
        SMT pair, whose ROB and buffers are partitioned.

        The floors are the load-port and RS peaks, where a check that passes
        always claims, and one above the ROB, load- and store-buffer peaks:
        rename checks those before the RS, so a check can pass at their peak
        and the micro-op still stall on a full RS after its rename
        mechanisms ran, which a capacity equal to the peak would have
        refused first.
        """
        if self.smt:
            return None
        thread = self.threads[0]
        capacities = effective_capacities(self.config)
        peaks = (self.ports.load_peak(), thread.rob_pool.peak_occupancy,
                 self.rs_pool.peak_occupancy, thread.lb_pool.peak_occupancy,
                 thread.sb_pool.peak_occupancy)
        slack = (0, 1, 0, 1, 1)
        return CapacityWitness(capacities, tuple(
            peak + extra if peak < capacity else None
            for peak, extra, capacity in zip(peaks, slack, capacities)))

    # ---------------------------------------------------------------- reporting

    def _power_events(self) -> Dict[str, int]:
        stats = self.stats
        hierarchy = self.hierarchy
        events: Dict[str, int] = {
            "uops_fetched": stats.uops_fetched,
            "uops_decoded": stats.uops_fetched,
            "uops_renamed": stats.uops_renamed,
            "branches_predicted": stats.branches_predicted,
            "rs_allocations": self._rs_slot_counter,
            "rs_issues": stats.rs_issues,
            "rob_allocations": stats.uops_renamed,
            "retired": stats.instructions_retired,
            "alu_ops": stats.alu_ops,
            "mul_ops": stats.mul_ops,
            "div_ops": stats.div_ops,
            "agu_ops": stats.agu_ops,
            "l1d_accesses": hierarchy.l1d.stats.accesses,
            "dtlb_accesses": hierarchy.dtlb.accesses,
            "l2_accesses": hierarchy.l2.stats.accesses,
            "llc_accesses": hierarchy.llc.stats.accesses,
            "dram_accesses": hierarchy.dram.accesses(),
            "store_commits": stats.store_commits,
            "cycles": self.cycle,
        }
        if self.config.lvp is not None:
            events["lvp_accesses"] = stats.loads_renamed
        if self.config.enable_memory_renaming:
            events["mrn_accesses"] = stats.loads_renamed + stats.stores_renamed
        for thread in self.threads:
            if thread.constable is not None:
                engine = thread.constable
                # One SLD read per renamed load (rename-stage lookup), one write per
                # executed load (confidence update) plus the can_eliminate resets.
                events["sld_reads"] = events.get("sld_reads", 0) + stats.loads_renamed
                events["sld_writes"] = (events.get("sld_writes", 0)
                                        + stats.loads_executed
                                        + engine.stats.sld_update_events)
                events["rmt_accesses"] = (events.get("rmt_accesses", 0)
                                          + engine.rmt.insertions + engine.rmt.consumes)
                events["amt_accesses"] = (events.get("amt_accesses", 0)
                                          + engine.amt.insertions + engine.amt.consumes)
        return events

    def _build_result(self) -> SimulationResult:
        constable_stats = None
        engines = self._constables
        if engines:
            constable_stats = {}
            for engine in engines:
                for key, value in engine.stats.as_dict().items():
                    constable_stats[key] = constable_stats.get(key, 0) + value
            constable_stats["elimination_coverage"] = (
                sum(e.stats.loads_eliminated for e in engines)
                / max(1, sum(e.stats.loads_seen for e in engines)))
            constable_stats["xprf_failure_rate"] = (
                sum(e.xprf.allocation_failures for e in engines)
                / max(1, sum(e.xprf.total_allocations + e.xprf.allocation_failures
                             for e in engines)))

        lvp_stats = None
        predictors = [t.lvp for t in self.threads if t.lvp is not None]
        if predictors:
            lvp_stats = {
                "coverage": (sum(p.predictions for p in predictors)
                             / max(1, sum(p.attempts for p in predictors))),
                "accuracy": (sum(p.correct for p in predictors)
                             / max(1, sum(p.predictions for p in predictors))),
                "predictions": sum(p.predictions for p in predictors),
            }

        per_thread = []
        for thread in self.threads:
            per_thread.append({
                "thread": thread.thread_id,
                "trace": thread.trace.name,
                "instructions": thread.retired_instructions,
                "finish_cycle": thread.finish_cycle or self.cycle,
                "ipc": thread.retired_instructions / max(1, thread.finish_cycle or self.cycle),
            })

        # Every renamed micro-op took a ROB entry, every renamed load (store)
        # a load- (store-) buffer entry, and every RS entry an RS slot.
        stats = self.stats
        resource_stats = {
            "rs_allocations": self._rs_slot_counter,
            "rs_allocation_stalls": self.rs_pool.allocation_stalls,
            "rob_allocations": stats.uops_renamed,
            "lb_allocations": stats.loads_renamed,
            "sb_allocations": stats.stores_renamed,
            "rs_peak_occupancy": self.rs_pool.peak_occupancy,
        }

        return SimulationResult(
            trace_name="+".join(t.trace.name for t in self.threads),
            config_name=self.name,
            cycles=self.cycle,
            instructions=self.stats.instructions_retired,
            stats=self.stats,
            power_events=self._power_events(),
            memory_stats=self.hierarchy.stats_summary(),
            constable_stats=constable_stats,
            lvp_stats=lvp_stats,
            resource_stats=resource_stats,
            per_thread=per_thread,
        )


#: Stands in for "no prediction made" when accounting LVP outcomes.
_NO_PREDICTION = ValuePrediction(predicted=False)


def simulate_trace(trace: Trace, config: Optional[CoreConfig] = None,
                   name: str = "baseline",
                   engine: str = "event") -> SimulationResult:
    """Convenience wrapper: simulate a single trace on a single hardware thread.

    ``engine`` selects the execution engine: ``"event"`` cycle skipping or the
    ``"cycle"`` reference stepper.
    """
    config = config or CoreConfig()
    core = OutOfOrderCore(config, [trace], name=name, engine=engine)
    return core.run()


def simulate_smt_pair(trace_a: Trace, trace_b: Trace,
                      config: Optional[CoreConfig] = None,
                      name: str = "smt2",
                      engine: str = "event") -> SimulationResult:
    """Run two traces on one 2-way SMT core (paper §8.1, §9.1.2).

    The threads share fetch/rename/issue bandwidth, the reservation station
    and the execution ports; the ROB, load buffer and store buffer are
    statically partitioned, and each thread gets its own Constable/LVP/MRN
    instances.  The result's ``per_thread`` holds one record per thread.
    """
    config = config or CoreConfig()
    core = OutOfOrderCore(config, [trace_a, trace_b], name=name, engine=engine)
    return core.run()
