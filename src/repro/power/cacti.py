"""CACTI-like per-structure energy/leakage/area estimates (paper §8.2, Table 3).

The paper runs CACTI 7.0 at 22 nm and scales to 14 nm.  Without CACTI, this
module carries the paper's published numbers for SLD/RMT/AMT
(:data:`TABLE3_ESTIMATES`): the power model charges Constable's structures
with them, and the Table 3 harness reproduces them verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class StructureEstimate:
    """Access energy (pJ), leakage (mW) and area (mm^2) of one SRAM structure."""

    name: str
    size_kb: float
    read_ports: int
    write_ports: int
    read_energy_pj: float
    write_energy_pj: float
    leakage_mw: float
    area_mm2: float


#: Paper Table 3 (14 nm technology).
TABLE3_ESTIMATES: Dict[str, StructureEstimate] = {
    "sld": StructureEstimate("SLD", 7.9, 3, 2, 10.76, 16.70, 1.02, 0.211),
    "rmt": StructureEstimate("RMT", 0.4, 2, 6, 0.15, 0.20, 0.31, 0.004),
    "amt": StructureEstimate("AMT", 4.0, 1, 1, 1.58, 4.22, 0.74, 0.017),
}


def constable_structure_estimates() -> Dict[str, StructureEstimate]:
    """Estimates for Constable's three structures (the paper's Table 3)."""
    return dict(TABLE3_ESTIMATES)
