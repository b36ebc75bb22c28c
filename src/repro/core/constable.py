"""The Constable engine: ties SLD, RMT, AMT and xPRF into the pipeline hooks.

The pipeline calls into this engine at the points marked in Fig. 8 of the paper:

1/2/3  at rename of a load           -> :meth:`on_load_rename`
4/5/6  at writeback of a likely-stable, non-eliminated load
                                      -> :meth:`on_load_writeback`
7/8    at rename of any instruction with a destination register
                                      -> :meth:`on_register_write`
9/8    when a store generates its address -> :meth:`on_store_address`
10/8   when a snoop arrives           -> :meth:`on_snoop`

plus the L1-eviction hook used by the Constable-AMT-I variant (Fig. 22) and the
memory-ordering-violation hook used by the disambiguation logic (§6.5/§6.8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.core.amt import AddressMonitorTable
from repro.core.config import ConstableConfig
from repro.core.rmt import RegisterMonitorTable
from repro.core.sld import StableLoadDetector
from repro.core.xprf import ExtraRegisterFile
from repro.isa.instruction import AddressingMode


@dataclass
class EliminationDecision:
    """Result of consulting Constable at rename time for a load."""

    eliminate: bool = False
    likely_stable: bool = False
    value: int = 0
    address: int = 0


@dataclass
class ConstableStats:
    """Counters reported by the engine (several feed paper figures directly)."""

    loads_seen: int = 0
    loads_eliminated: int = 0
    loads_marked_likely_stable: int = 0
    eliminations_blocked_by_xprf: int = 0
    eliminations_blocked_by_mode: int = 0
    resets_by_register_write: int = 0
    resets_by_store: int = 0
    resets_by_snoop: int = 0
    resets_by_l1_eviction: int = 0
    resets_by_capacity: int = 0
    ordering_violations: int = 0
    sld_update_events: int = 0      # can_eliminate updates during rename (Fig. 9a)
    cv_pin_requests: int = 0

    def elimination_coverage(self) -> float:
        """Fraction of all renamed loads whose execution was eliminated."""
        if self.loads_seen == 0:
            return 0.0
        return self.loads_eliminated / self.loads_seen

    def as_dict(self) -> Dict[str, float]:
        """All counters plus the derived elimination coverage, as a dict."""
        data = dict(self.__dict__)
        data["elimination_coverage"] = self.elimination_coverage()
        return data


class ConstableEngine:
    """Constable's microarchitectural state machine."""

    def __init__(self, config: Optional[ConstableConfig] = None, num_registers: int = 16):
        self.config = config or ConstableConfig()
        self.sld = StableLoadDetector(self.config)
        self.rmt = RegisterMonitorTable(self.config, num_registers=num_registers)
        self.amt = AddressMonitorTable(self.config)
        self.xprf = ExtraRegisterFile(self.config)
        self.stats = ConstableStats()
        #: per-cycle SLD write counter, reset by the pipeline every cycle; used to
        #: model the 2-write-port constraint of §6.7.1.
        self.sld_updates_this_cycle = 0

    # --------------------------------------------------------------- rename path

    def on_load_rename(self, pc: int, addressing_mode: AddressingMode) -> EliminationDecision:
        """Steps 1-3 of Fig. 8: decide whether this load instance is eliminated."""
        self.stats.loads_seen += 1
        entry = self.sld.lookup(pc)
        if entry is None:
            return EliminationDecision()
        if entry.can_eliminate:
            if not self.config.mode_allowed(addressing_mode):
                self.stats.eliminations_blocked_by_mode += 1
                return EliminationDecision(likely_stable=True)
            if not self.xprf.try_allocate():
                self.stats.eliminations_blocked_by_xprf += 1
                return EliminationDecision(likely_stable=True)
            self.stats.loads_eliminated += 1
            return EliminationDecision(
                eliminate=True, likely_stable=True,
                value=entry.last_value or 0, address=entry.last_address or 0,
            )
        if entry.confidence >= self.config.confidence_threshold:
            self.stats.loads_marked_likely_stable += 1
            return EliminationDecision(likely_stable=True)
        return EliminationDecision()

    def on_register_write(self, register: int) -> int:
        """Steps 7-8 of Fig. 8: a renamed instruction writes ``register``.

        Returns the number of SLD updates performed (for write-port modelling).
        """
        pcs = self.rmt.consume(register)
        updates = 0
        for pc in pcs:
            if self.sld.reset_elimination(pc):
                updates += 1
                self.stats.resets_by_register_write += 1
        self.stats.sld_update_events += updates
        self.sld_updates_this_cycle += updates
        return updates

    # ------------------------------------------------------------ writeback path

    def on_load_writeback(self, pc: int, address: int, value: int,
                          source_registers: Iterable[int],
                          likely_stable: bool) -> bool:
        """Steps 4-6 of Fig. 8 plus the confidence update of §6.2.

        Returns True when the caller should pin the own core's CV bit for the
        accessed line (i.e. the load became eliminable).
        """
        entry = self.sld.record_execution(pc, address, value)
        if not likely_stable:
            return False
        for register in source_registers:
            for displaced in self.rmt.insert(register, pc):
                if self.sld.reset_elimination(displaced):
                    self.stats.resets_by_capacity += 1
        for displaced in self.amt.insert(address, pc):
            if self.sld.reset_elimination(displaced):
                self.stats.resets_by_capacity += 1
        entry.can_eliminate = True
        if self.config.pin_cv_bits:
            self.stats.cv_pin_requests += 1
            return True
        return False

    # ------------------------------------------------------- store / snoop paths

    def _reset_for_line(self, address: int, cause: str) -> int:
        pcs = self.amt.consume(address)
        resets = 0
        for pc in pcs:
            if self.sld.reset_elimination(pc):
                resets += 1
                self.rmt.remove_pc(pc)
        if cause == "store":
            self.stats.resets_by_store += resets
        elif cause == "snoop":
            self.stats.resets_by_snoop += resets
        else:
            self.stats.resets_by_l1_eviction += resets
        return resets

    def on_store_address(self, address: int) -> int:
        """Step 9 of Fig. 8: a store generated its physical address."""
        return self._reset_for_line(address, "store")

    def on_snoop(self, address: int) -> int:
        """Step 10 of Fig. 8: a snoop request arrived at the core."""
        return self._reset_for_line(address, "snoop")

    def on_l1_eviction(self, line_address: int) -> int:
        """Constable-AMT-I variant: treat every L1-D eviction like an invalidation."""
        if not self.config.amt_invalidate_on_l1_eviction:
            return 0
        return self._reset_for_line(line_address, "eviction")

    # ----------------------------------------------------------- recovery / misc

    def on_ordering_violation(self, pc: int) -> None:
        """An eliminated load was caught by memory disambiguation (§6.5, §6.8)."""
        self.stats.ordering_violations += 1
        self.sld.punish(pc)
        self.rmt.remove_pc(pc)

    def release_xprf(self) -> None:
        """Free the xPRF register of a retired (or squashed) eliminated load."""
        self.xprf.release()

    def begin_cycle(self) -> None:
        """Reset the per-cycle SLD write counter (write-port model, §6.7.1)."""
        self.sld_updates_this_cycle = 0
