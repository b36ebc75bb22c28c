"""Event-driven core dynamic power model (paper §8.2, Fig. 19).

The paper's RTL-validated power model is proprietary; what its results depend
on, however, are *event count* differences between configurations - fewer RS
allocations, fewer L1-D accesses, plus the energy of Constable's own tables.
This model charges a per-event energy to every pipeline event and groups the
totals into the same units the paper reports: front end (FE), out-of-order
engine (OOO = RS + RAT + ROB), non-memory execution (EU) and the memory
execution unit (MEU = L1-D + DTLB), with Constable's SLD/RMT charged to the
RAT and the AMT charged to the L1-D component, exactly as §8.2 describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.power.cacti import TABLE3_ESTIMATES


@dataclass
class EnergyTable:
    """Per-event energies in picojoules."""

    uop_fetch: float = 12.0
    uop_decode: float = 10.0
    branch_predict: float = 6.0
    uop_rename: float = 14.0
    rs_allocation: float = 18.0
    rs_issue: float = 12.0
    rob_allocation: float = 8.0
    rob_retire: float = 6.0
    alu_op: float = 15.0
    mul_op: float = 30.0
    div_op: float = 80.0
    agu_op: float = 10.0
    l1d_access: float = 120.0
    dtlb_access: float = 8.0
    store_commit: float = 30.0
    l2_access: float = 150.0
    llc_access: float = 300.0
    dram_access: float = 1000.0
    lvp_access: float = 6.0
    mrn_access: float = 4.0
    cycle_overhead: float = 45.0   # clock tree + always-on structures, per cycle
    sld_read: float = TABLE3_ESTIMATES["sld"].read_energy_pj
    sld_write: float = TABLE3_ESTIMATES["sld"].write_energy_pj
    rmt_access: float = TABLE3_ESTIMATES["rmt"].read_energy_pj + TABLE3_ESTIMATES["rmt"].write_energy_pj
    amt_access: float = TABLE3_ESTIMATES["amt"].read_energy_pj + TABLE3_ESTIMATES["amt"].write_energy_pj


@dataclass
class PowerBreakdown:
    """Energy totals (pJ) per core unit plus selected sub-units."""

    units: Dict[str, float] = field(default_factory=dict)
    sub_units: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """Sum of all unit powers."""
        return sum(self.units.values())


class CorePowerModel:
    """Computes the FE/OOO/EU/MEU/Others dynamic-energy breakdown from event counts."""

    def __init__(self, energy: Optional[EnergyTable] = None):
        self.energy = energy or EnergyTable()

    def evaluate(self, counts: Mapping[str, int]) -> PowerBreakdown:
        """Evaluate the breakdown for a dictionary of event counts.

        Unknown keys are ignored; missing keys count as zero, so the caller can
        supply whatever subset of events its configuration produces.
        """
        e = self.energy
        get = lambda key: counts.get(key, 0)

        fe = (get("uops_fetched") * e.uop_fetch
              + get("uops_decoded") * e.uop_decode
              + get("branches_predicted") * e.branch_predict)

        rat = (get("uops_renamed") * e.uop_rename
               + get("sld_reads") * e.sld_read
               + get("sld_writes") * e.sld_write
               + get("rmt_accesses") * e.rmt_access
               + get("mrn_accesses") * e.mrn_access)
        rs = get("rs_allocations") * e.rs_allocation + get("rs_issues") * e.rs_issue
        rob = get("rob_allocations") * e.rob_allocation + get("retired") * e.rob_retire
        ooo = rat + rs + rob

        eu = (get("alu_ops") * e.alu_op
              + get("mul_ops") * e.mul_op
              + get("div_ops") * e.div_op
              + get("agu_ops") * e.agu_op
              + get("lvp_accesses") * e.lvp_access)

        l1d = (get("l1d_accesses") * e.l1d_access
               + get("store_commits") * e.store_commit
               + get("amt_accesses") * e.amt_access)
        dtlb = get("dtlb_accesses") * e.dtlb_access
        meu = l1d + dtlb

        others = (get("l2_accesses") * e.l2_access
                  + get("llc_accesses") * e.llc_access
                  + get("dram_accesses") * e.dram_access
                  + get("cycles") * e.cycle_overhead)

        return PowerBreakdown(
            units={"FE": fe, "OOO": ooo, "EU": eu, "MEU": meu, "Others": others},
            sub_units={"RAT": rat, "RS": rs, "ROB": rob, "L1D": l1d, "DTLB": dtlb},
        )
