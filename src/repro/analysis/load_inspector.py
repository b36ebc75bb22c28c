"""Load Inspector: find global-stable loads in a trace (paper §4.1-4.2, Figs. 3, 23, 24).

The paper's Load Inspector instruments off-the-shelf x86-64 binaries with Pin;
here the same analysis runs over the synthetic dynamic traces.  A static load
is *global-stable* when every one of its dynamic instances fetched the same
value from the same address across the whole trace.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.isa.instruction import AddressingMode, DynamicInstruction
from repro.workloads.trace import Trace

#: Inter-occurrence distance buckets used by Fig. 3(c)/(d): bucket label ->
#: (inclusive lower bound, exclusive upper bound).
DISTANCE_BUCKETS: Tuple[Tuple[str, int, float], ...] = (
    ("[0-50)", 0, 50),
    ("[50-100)", 50, 100),
    ("[100-250)", 100, 250),
    ("250+", 250, float("inf")),
)


def bucket_for_distance(distance: int) -> str:
    """Return the Fig. 3 bucket label for an inter-occurrence distance."""
    for label, low, high in DISTANCE_BUCKETS:
        if low <= distance < high:
            return label
    return DISTANCE_BUCKETS[-1][0]


class LoadSiteStats:
    """Per-static-load (per-PC) accumulation of dynamic behaviour."""

    __slots__ = ("pc", "addressing_mode", "dynamic_count", "first_address",
                 "first_value", "stable", "last_seq", "distance_buckets",
                 "distinct_addresses")

    def __init__(self, pc: int, addressing_mode: AddressingMode):
        self.pc = pc
        self.addressing_mode = addressing_mode
        self.dynamic_count = 0
        self.first_address: Optional[int] = None
        self.first_value: Optional[int] = None
        self.stable = True
        self.last_seq: Optional[int] = None
        self.distance_buckets: Dict[str, int] = {label: 0 for label, _, _ in DISTANCE_BUCKETS}
        self.distinct_addresses: Set[int] = set()

    def observe(self, dyn: DynamicInstruction) -> None:
        """Record one dynamic instance of this load."""
        self.dynamic_count += 1
        self.distinct_addresses.add(dyn.address)
        if self.first_address is None:
            self.first_address = dyn.address
            self.first_value = dyn.load_value
        elif dyn.address != self.first_address or dyn.load_value != self.first_value:
            self.stable = False
        if self.last_seq is not None:
            distance = dyn.seq - self.last_seq
            self.distance_buckets[bucket_for_distance(distance)] += 1
        self.last_seq = dyn.seq

    @property
    def is_global_stable(self) -> bool:
        """True if every dynamic instance fetched the same value from the same address."""
        return self.stable and self.dynamic_count > 1

    # ------------------------------------------------------------ serialization

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable dictionary holding the per-site statistics."""
        return {
            "pc": self.pc,
            "addressing_mode": self.addressing_mode.value,
            "dynamic_count": self.dynamic_count,
            "first_address": self.first_address,
            "first_value": self.first_value,
            "stable": self.stable,
            "last_seq": self.last_seq,
            "distance_buckets": dict(self.distance_buckets),
            "distinct_addresses": sorted(self.distinct_addresses),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LoadSiteStats":
        """Rebuild per-site statistics from :meth:`to_dict` output."""
        site = cls(int(data["pc"]), AddressingMode(data["addressing_mode"]))
        site.dynamic_count = int(data["dynamic_count"])
        site.first_address = data["first_address"]
        site.first_value = data["first_value"]
        site.stable = bool(data["stable"])
        site.last_seq = data["last_seq"]
        site.distance_buckets.update({str(label): int(count)
                                      for label, count in data["distance_buckets"].items()})
        site.distinct_addresses = set(data["distinct_addresses"])
        return site


class GlobalStableReport:
    """Aggregated Load Inspector results for one trace."""

    def __init__(self, sites: Dict[int, LoadSiteStats], total_instructions: int):
        self.sites = sites
        self.total_instructions = total_instructions

    # -------------------------------------------------------------- primitives

    def total_dynamic_loads(self) -> int:
        """Total dynamic load count across all observed sites."""
        return sum(s.dynamic_count for s in self.sites.values())

    def global_stable_sites(self) -> List[LoadSiteStats]:
        """Every load site classified as global-stable."""
        return [s for s in self.sites.values() if s.is_global_stable]

    def global_stable_pcs(self) -> Set[int]:
        """PCs of global-stable static loads (the Ideal Constable oracle set)."""
        return {s.pc for s in self.global_stable_sites()}

    # ------------------------------------------------------------------ Fig 3a

    def global_stable_dynamic_fraction(self) -> float:
        """Fraction of all dynamic loads that come from global-stable static loads."""
        total = self.total_dynamic_loads()
        if total == 0:
            return 0.0
        stable = sum(s.dynamic_count for s in self.global_stable_sites())
        return stable / total

    # ------------------------------------------------------------------ Fig 3b

    def addressing_mode_breakdown(self) -> Dict[str, float]:
        """Fraction of global-stable dynamic loads using each addressing mode."""
        stable_sites = self.global_stable_sites()
        total = sum(s.dynamic_count for s in stable_sites)
        breakdown = {mode.value: 0.0 for mode in
                     (AddressingMode.PC_RELATIVE, AddressingMode.STACK_RELATIVE,
                      AddressingMode.REG_RELATIVE)}
        if total == 0:
            return breakdown
        for site in stable_sites:
            breakdown[site.addressing_mode.value] += site.dynamic_count / total
        return breakdown

    # ------------------------------------------------------------------ Fig 3c

    def distance_distribution(self) -> Dict[str, float]:
        """Inter-occurrence distance distribution of global-stable loads."""
        counts = {label: 0 for label, _, _ in DISTANCE_BUCKETS}
        for site in self.global_stable_sites():
            for label, count in site.distance_buckets.items():
                counts[label] += count
        total = sum(counts.values())
        if total == 0:
            return {label: 0.0 for label in counts}
        return {label: count / total for label, count in counts.items()}

    # ------------------------------------------------------------------ Fig 3d

    def distance_distribution_by_mode(self) -> Dict[str, Dict[str, float]]:
        """Distance distribution of global-stable loads, split by addressing mode."""
        result: Dict[str, Dict[str, float]] = {}
        for mode in (AddressingMode.PC_RELATIVE, AddressingMode.STACK_RELATIVE,
                     AddressingMode.REG_RELATIVE):
            counts = {label: 0 for label, _, _ in DISTANCE_BUCKETS}
            for site in self.global_stable_sites():
                if site.addressing_mode is not mode:
                    continue
                for label, count in site.distance_buckets.items():
                    counts[label] += count
            total = sum(counts.values())
            if total == 0:
                result[mode.value] = {label: 0.0 for label in counts}
            else:
                result[mode.value] = {label: count / total for label, count in counts.items()}
        return result

    # ------------------------------------------------------------------ summary

    def summary(self) -> Dict[str, object]:
        """A compact dictionary of the headline Load Inspector numbers."""
        return {
            "total_instructions": self.total_instructions,
            "total_dynamic_loads": self.total_dynamic_loads(),
            "static_loads": len(self.sites),
            "global_stable_static_loads": len(self.global_stable_sites()),
            "global_stable_dynamic_fraction": self.global_stable_dynamic_fraction(),
            "addressing_mode_breakdown": self.addressing_mode_breakdown(),
            "distance_distribution": self.distance_distribution(),
        }

    # ------------------------------------------------------------ serialization

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable dictionary holding the full report.

        Site order is preserved (not sorted): aggregate fractions accumulate
        floats in site order, so round-tripping must not reorder sites or the
        rebuilt report could differ from the original in the last ulp.
        """
        return {
            "total_instructions": self.total_instructions,
            "sites": [site.to_dict() for site in self.sites.values()],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GlobalStableReport":
        """Rebuild a report from :meth:`to_dict` output."""
        sites = {int(entry["pc"]): LoadSiteStats.from_dict(entry)
                 for entry in data["sites"]}
        return cls(sites, int(data["total_instructions"]))


class LoadInspector:
    """Streaming Load Inspector: feed dynamic instructions, then build a report."""

    def __init__(self):
        self._sites: Dict[int, LoadSiteStats] = {}
        self._instructions = 0

    def observe(self, dyn: DynamicInstruction) -> None:
        """Observe one dynamic instruction (loads update the per-PC statistics)."""
        self._instructions += 1
        if not dyn.is_load:
            return
        site = self._sites.get(dyn.pc)
        if site is None:
            site = LoadSiteStats(dyn.pc, dyn.static.addressing_mode())
            self._sites[dyn.pc] = site
        site.observe(dyn)

    def observe_all(self, instructions: Iterable[DynamicInstruction]) -> None:
        """Feed every instruction of an iterable through :meth:`observe`."""
        for dyn in instructions:
            self.observe(dyn)

    def report(self) -> GlobalStableReport:
        """Build the aggregated report for everything observed so far."""
        return GlobalStableReport(dict(self._sites), self._instructions)


def inspect_trace(trace: Trace) -> GlobalStableReport:
    """Run the Load Inspector over a full trace."""
    inspector = LoadInspector()
    inspector.observe_all(trace.instructions)
    return inspector.report()
