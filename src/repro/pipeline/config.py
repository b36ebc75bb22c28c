"""Core configuration: the Golden-Cove-like baseline of Table 2 plus mechanism knobs."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Set

from repro.backend.ports import PortConfig
from repro.backend.resources import BackendSizes
from repro.core.config import ConstableConfig
from repro.core.ideal import IdealOracle
from repro.memory.hierarchy import MemoryHierarchyConfig
from repro.rename.optimizations import RenameOptimizationConfig


@dataclass
class CoreConfig:
    """All parameters of one simulated core.

    Defaults follow the paper's baseline (Table 2): a 6-wide out-of-order core
    with Memory Renaming and the rename-stage dynamic optimizations enabled,
    and no Constable / value predictor attached.
    """

    # Pipeline widths.
    fetch_width: int = 8
    decode_width: int = 6
    rename_width: int = 6
    retire_width: int = 6
    idq_entries: int = 144

    # Window sizes and execution ports.
    sizes: BackendSizes = field(default_factory=BackendSizes)
    ports: PortConfig = field(default_factory=PortConfig)

    # Execution latencies (cycles).
    alu_latency: int = 1
    mul_latency: int = 3
    div_latency: int = 18
    agu_latency: int = 1
    store_forward_latency: int = 5

    # Recovery penalties (cycles).
    frontend_refill_cycles: int = 10
    flush_penalty: int = 10

    # Memory hierarchy.
    memory: MemoryHierarchyConfig = field(default_factory=MemoryHierarchyConfig)

    # Baseline rename-stage mechanisms.
    rename_optimizations: RenameOptimizationConfig = field(default_factory=RenameOptimizationConfig)
    enable_memory_renaming: bool = True

    # Optional mechanisms under study.
    constable: Optional[ConstableConfig] = None
    lvp: Optional[str] = None              # None | "eves" | "llvp"
    ideal_oracle: Optional[IdealOracle] = None
    enable_elar: bool = False
    enable_rfp: bool = False

    # Oracle PC set used only for statistics classification (Fig. 6); never
    # influences timing decisions.
    stats_oracle_pcs: Optional[Set[int]] = None

    # Workload/architecture parameters.
    num_registers: int = 16
    num_cores: int = 2                      # for the coherence directory
    max_cycles_per_instruction: int = 200   # runaway-simulation guard

    def __post_init__(self) -> None:
        for name in ("fetch_width", "decode_width", "rename_width", "retire_width"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # Every execution latency is at least one cycle (a forwarded load
        # pays the AGU's), so a completion always lands in a later cycle than
        # the issue sweep that queued it.
        for name in ("alu_latency", "mul_latency", "div_latency", "agu_latency"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.store_forward_latency < 0:
            raise ValueError("store_forward_latency must be non-negative")
        if self.lvp not in (None, "eves", "llvp"):
            raise ValueError(f"unknown load value predictor {self.lvp!r}")

    # ----------------------------------------------------------------- variants

    def copy(self, **overrides) -> "CoreConfig":
        """A shallow-copied configuration with selected fields replaced."""
        return dataclasses.replace(self, **overrides)

    def with_load_width(self, load_units: int) -> "CoreConfig":
        """Scale the number of load execution units (Fig. 20a sensitivity)."""
        if load_units <= 0:
            raise ValueError("load_units must be positive")
        ports = PortConfig(
            issue_width=self.ports.issue_width,
            alu=self.ports.alu,
            load=load_units,
            store_address=self.ports.store_address,
            store_data=self.ports.store_data,
        )
        return self.copy(ports=ports)

    def with_depth_scale(self, factor: float) -> "CoreConfig":
        """Scale ROB/RS/LB/SB depth (Fig. 20b sensitivity)."""
        return self.copy(sizes=self.sizes.scaled(factor))
