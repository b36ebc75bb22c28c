"""Simulation statistics and the result record returned by the core model.

Both records round-trip losslessly through plain dictionaries
(:meth:`to_dict` / :meth:`from_dict`) so results can be stored in the on-disk
experiment cache and shipped across process boundaries as JSON.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class PipelineStats:
    """Raw event counters accumulated during one simulation."""

    cycles: int = 0
    instructions_retired: int = 0
    uops_fetched: int = 0
    uops_renamed: int = 0
    loads_renamed: int = 0
    stores_renamed: int = 0
    branches_renamed: int = 0

    # Execution events.
    rs_issues: int = 0
    alu_ops: int = 0
    mul_ops: int = 0
    div_ops: int = 0
    agu_ops: int = 0
    loads_executed: int = 0
    loads_forwarded_from_store: int = 0
    store_commits: int = 0

    # Front-end events.
    branches_predicted: int = 0
    branch_mispredictions: int = 0

    # Recovery events.
    flushes: int = 0
    ordering_violation_flushes: int = 0
    lvp_misprediction_flushes: int = 0
    mrn_misprediction_flushes: int = 0
    reexecuted_uops: int = 0

    # Load-port utilisation (Fig. 6).
    load_utilized_cycles: int = 0
    load_utilized_cycles_stable_blocking: int = 0
    load_utilized_cycles_stable_only: int = 0

    # Constable-specific pipeline-level events.
    eliminated_loads_retired: int = 0
    oracle_stable_loads_renamed: int = 0
    eliminated_oracle_stable_loads: int = 0
    eliminated_non_stable_loads: int = 0
    golden_checks: int = 0
    sld_update_cycles_histogram: Dict[int, int] = field(default_factory=dict)
    rename_stalls_sld_ports: int = 0

    # Value prediction.
    value_predicted_loads: int = 0
    value_predictions_correct: int = 0

    def record_sld_updates(self, updates: int) -> None:
        """Record one thread-cycle that performed ``updates`` SLD writes.

        The core records only the thread-cycles that updated the SLD and
        derives the zero bucket once, at the end of the run.
        """
        self.sld_update_cycles_histogram[updates] = (
            self.sld_update_cycles_histogram.get(updates, 0) + 1)

    def average_sld_updates_per_cycle(self) -> float:
        """Mean SLD updates per cycle from the update histogram."""
        total_cycles = sum(self.sld_update_cycles_histogram.values())
        if total_cycles == 0:
            return 0.0
        total_updates = sum(updates * count
                            for updates, count in self.sld_update_cycles_histogram.items())
        return total_updates / total_cycles

    # ------------------------------------------------------------ serialization

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable dictionary holding every counter."""
        data = dataclasses.asdict(self)
        # JSON objects have string keys; the histogram is keyed by int.
        data["sld_update_cycles_histogram"] = {
            str(updates): count
            for updates, count in sorted(self.sld_update_cycles_histogram.items())}
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PipelineStats":
        """Rebuild stats from :meth:`to_dict` output (unknown keys are ignored)."""
        fields = {key: value for key, value in data.items()
                  if key in _STATS_FIELDS}
        histogram = fields.get("sld_update_cycles_histogram", {})
        fields["sld_update_cycles_histogram"] = {
            int(updates): int(count) for updates, count in histogram.items()}
        return cls(**fields)


#: The counter names :meth:`PipelineStats.from_dict` accepts.
_STATS_FIELDS = frozenset(f.name for f in dataclasses.fields(PipelineStats))


def _copy_memory_stats(stats: Dict[str, object]) -> Dict[str, object]:
    """A copy of a ``memory_stats`` record that shares no dictionary with it.

    The record is scalars beside one level of dictionaries of scalars (each
    cache level's counters, the service-level counts), so copying every
    dictionary value copies it whole, without ``copy.deepcopy``'s walk.
    """
    return {name: dict(value) if isinstance(value, dict) else value
            for name, value in stats.items()}


@dataclass
class SimulationResult:
    """Everything an experiment needs from one simulation run."""

    trace_name: str
    config_name: str
    cycles: int
    instructions: int
    stats: PipelineStats
    power_events: Dict[str, int] = field(default_factory=dict)
    memory_stats: Dict[str, object] = field(default_factory=dict)
    constable_stats: Optional[Dict[str, float]] = None
    lvp_stats: Optional[Dict[str, float]] = None
    resource_stats: Dict[str, int] = field(default_factory=dict)
    per_thread: List[Dict[str, float]] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        """Instructions per cycle (0.0 for an empty run)."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Cycles-based speedup of this run over ``baseline`` (same work assumed)."""
        if self.cycles == 0:
            return 0.0
        return baseline.cycles / self.cycles

    def summary(self) -> Dict[str, object]:
        """The headline numbers of one run as a flat dictionary."""
        return {
            "trace": self.trace_name,
            "config": self.config_name,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "rs_allocations": self.resource_stats.get("rs_allocations", 0),
            "l1d_accesses": self.power_events.get("l1d_accesses", 0),
            "eliminated_loads": (self.constable_stats or {}).get("loads_eliminated", 0),
        }

    # ------------------------------------------------------------ serialization

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable dictionary holding the full result."""
        return {
            "trace_name": self.trace_name,
            "config_name": self.config_name,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "stats": self.stats.to_dict(),
            "power_events": dict(self.power_events),
            "memory_stats": _copy_memory_stats(self.memory_stats),
            "constable_stats": (dict(self.constable_stats)
                                if self.constable_stats is not None else None),
            "lvp_stats": dict(self.lvp_stats) if self.lvp_stats is not None else None,
            "resource_stats": dict(self.resource_stats),
            "per_thread": [dict(entry) for entry in self.per_thread],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            trace_name=data["trace_name"],
            config_name=data["config_name"],
            cycles=int(data["cycles"]),
            instructions=int(data["instructions"]),
            stats=PipelineStats.from_dict(data["stats"]),
            power_events=dict(data.get("power_events", {})),
            memory_stats=_copy_memory_stats(data.get("memory_stats", {})),
            constable_stats=(dict(data["constable_stats"])
                             if data.get("constable_stats") is not None else None),
            lvp_stats=(dict(data["lvp_stats"])
                       if data.get("lvp_stats") is not None else None),
            resource_stats=dict(data.get("resource_stats", {})),
            per_thread=[dict(entry) for entry in data.get("per_thread", [])],
        )
