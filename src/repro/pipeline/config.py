"""Core configuration: the Golden-Cove-like baseline of Table 2 plus mechanism knobs.

Every config the simulated core composes lives here as a plain value: the
cache, DRAM, TLB and hierarchy geometries, the execution ports, the backend
buffer sizes, the rename-stage optimisations and the ideal oracle.  The
model modules import their config from this module, which imports only
``repro.core.config`` and ``repro.isa``, so reading or fingerprinting a
config never loads a timing model.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Set

from repro.core.config import ConstableConfig

#: Cache line size used across the hierarchy and the coherence directory.
CACHE_LINE_SIZE = 64


@dataclass
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    ways: int
    line_size: int = 64
    latency: int = 5

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_size <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.latency < 0:
            raise ValueError(f"{self.name}: latency must be non-negative")
        if self.size_bytes % (self.ways * self.line_size) != 0:
            raise ValueError(
                f"{self.name}: size must be a multiple of ways*line_size "
                f"({self.size_bytes} % {self.ways * self.line_size})"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets implied by size, ways and line size."""
        return self.size_bytes // (self.ways * self.line_size)


@dataclass
class DramConfig:
    """DRAM geometry and timing (latencies in core cycles)."""

    channels: int = 4
    banks_per_channel: int = 16
    row_size_bytes: int = 2048
    row_hit_latency: int = 70        # ~tCAS at 3.2 GHz core clock
    row_miss_latency: int = 210      # ~tRP + tRCD + tCAS
    bus_latency: int = 20

    def __post_init__(self) -> None:
        if self.channels <= 0 or self.banks_per_channel <= 0:
            raise ValueError("channels and banks must be positive")
        for name in ("row_hit_latency", "row_miss_latency", "bus_latency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class TlbConfig:
    """DTLB geometry and miss penalty."""

    entries: int = 96
    ways: int = 6
    page_size: int = 4096
    miss_penalty: int = 25

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.ways <= 0:
            raise ValueError("TLB geometry must be positive")
        if self.entries % self.ways != 0:
            raise ValueError("TLB entries must be a multiple of ways")
        if self.miss_penalty < 0:
            raise ValueError("TLB miss penalty must be non-negative")


@dataclass
class MemoryHierarchyConfig:
    """Configuration of the full data-side memory hierarchy."""

    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L1D", size_bytes=48 * 1024, ways=12, line_size=CACHE_LINE_SIZE, latency=5))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L2", size_bytes=2 * 1024 * 1024, ways=16, line_size=CACHE_LINE_SIZE, latency=14))
    llc: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="LLC", size_bytes=3 * 1024 * 1024, ways=12, line_size=CACHE_LINE_SIZE, latency=50))
    dram: DramConfig = field(default_factory=DramConfig)
    tlb: TlbConfig = field(default_factory=TlbConfig)
    enable_prefetchers: bool = True


@dataclass
class PortConfig:
    """Number of ports of each kind and the overall issue width."""

    issue_width: int = 6
    alu: int = 5
    load: int = 3
    store_address: int = 2
    store_data: int = 2


@dataclass
class BackendSizes:
    """Convenience bundle of backend buffer sizes (paper Table 2 defaults)."""

    rob: int = 512
    rs: int = 248
    load_buffer: int = 240
    store_buffer: int = 112
    xprf: int = 32

    def scaled(self, factor: float) -> "BackendSizes":
        """Scale the window depth (Fig. 20b pipeline-depth sensitivity)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return BackendSizes(
            rob=max(16, int(self.rob * factor)),
            rs=max(8, int(self.rs * factor)),
            load_buffer=max(8, int(self.load_buffer * factor)),
            store_buffer=max(8, int(self.store_buffer * factor)),
            xprf=self.xprf,
        )


@dataclass
class RenameOptimizationConfig:
    """Enable/disable individual baseline optimizations."""

    move_elimination: bool = True
    zero_elimination: bool = True
    constant_folding: bool = True
    branch_folding: bool = True


class IdealMode(enum.Enum):
    """Which idealised mechanism the oracle drives (paper §4.4, Fig. 7).

    * ``CONSTABLE`` - eliminate the full execution of every global-stable
      load (after its first instance supplies the value).
    * ``STABLE_LVP`` - perfectly value-predict every global-stable load; the
      load still executes completely.
    * ``STABLE_LVP_FETCH_ELIM`` - perfectly value-predict and skip the data
      fetch; the load still computes its address (RS + AGU, no load port).
    """

    CONSTABLE = "ideal_constable"
    STABLE_LVP = "ideal_stable_lvp"
    STABLE_LVP_FETCH_ELIM = "ideal_stable_lvp_fetch_elim"


@dataclass(frozen=True)
class IdealOracle:
    """Offline knowledge of a trace's global-stable load PCs (from the Load
    Inspector) plus the ideal mode it drives.

    The oracle holds no run state: the core records each stable load's first
    executed value itself, and covers every later instance.
    """

    stable_pcs: FrozenSet[int]
    mode: IdealMode


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
    lvp: Optional[str] = None              # None | "eves"
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
        if self.lvp not in (None, "eves"):
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
