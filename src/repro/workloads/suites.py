"""Workload suite definitions: 90 synthetic workloads across the paper's five suites.

Table 4 of the paper lists 90 traces: Client (22), Enterprise (14), FSPEC17 (29),
ISPEC17 (11) and Server (14).  Each suite here is a family of kernel mixes whose
global-stable-load fraction, addressing-mode breakdown and reuse-distance
distribution are tuned to follow the paper's characterisation (Fig. 3): Client,
Enterprise and Server are rich in stable loads; the SPEC-like suites less so.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.isa.registers import ARCH_REGISTER_COUNT

KernelRecipe = Tuple[str, Dict[str, object]]

#: Suite names in the paper's presentation order.
SUITE_NAMES: Tuple[str, ...] = ("Client", "Enterprise", "FSPEC17", "ISPEC17", "Server")

#: Number of traces per suite (paper Table 4).
SUITE_TRACE_COUNTS: Dict[str, int] = {
    "Client": 22,
    "Enterprise": 14,
    "FSPEC17": 29,
    "ISPEC17": 11,
    "Server": 14,
}


@dataclass
class WorkloadSpec:
    """A named workload: a kernel mix plus generation parameters."""

    name: str
    suite: str
    kernels: List[KernelRecipe]
    seed: int = 0
    external_write_interval: int = 0
    external_writes_silent: bool = False
    num_registers: int = ARCH_REGISTER_COUNT
    description: str = ""
    metadata: Dict[str, object] = field(default_factory=dict)

    def kernel_recipes(self, num_registers: int) -> List[KernelRecipe]:
        """Kernel recipes adjusted for the architectural register budget.

        With an APX-sized register file (>= 24 registers) the inlined-argument
        kernel keeps its arguments in registers instead of the stack, mirroring
        the compiler behaviour studied in the paper's appendix B.
        """
        recipes: List[KernelRecipe] = []
        for name, params in self.kernels:
            adjusted = dict(params)
            if name == "inlined_args" and num_registers >= 24:
                adjusted["args_in_registers"] = True
            recipes.append((name, adjusted))
        return recipes

    # ------------------------------------------------------------ serialization

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable dictionary holding the full spec."""
        return {
            "name": self.name,
            "suite": self.suite,
            "kernels": [[kernel, dict(params)] for kernel, params in self.kernels],
            "seed": self.seed,
            "external_write_interval": self.external_write_interval,
            "external_writes_silent": self.external_writes_silent,
            "num_registers": self.num_registers,
            "description": self.description,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            suite=data["suite"],
            kernels=[(kernel, dict(params)) for kernel, params in data["kernels"]],
            seed=int(data.get("seed", 0)),
            external_write_interval=int(data.get("external_write_interval", 0)),
            external_writes_silent=bool(data.get("external_writes_silent", False)),
            num_registers=int(data.get("num_registers", ARCH_REGISTER_COUNT)),
            description=data.get("description", ""),
            metadata=dict(data.get("metadata", {})),
        )


# --------------------------------------------------------------------------- #
# Suite recipe templates.  Each template is a list of (kernel, params) entries;
# per-workload variation comes from the seed-driven parameter jitter below.
# --------------------------------------------------------------------------- #

_CLIENT_TEMPLATES: Sequence[List[KernelRecipe]] = (
    [("runtime_constant", {}), ("chained_deref", {"inner_iterations": 10, "depth": 3}),
     ("inlined_args", {"inner_iterations": 8}),
     ("global_counters", {"num_globals": 3}), ("tight_loop_readonly", {"inner_iterations": 8}),
     ("branchy", {"inner_iterations": 6}), ("streaming", {"inner_iterations": 10, "region_words": 1 << 16}),
     ("random_access", {"inner_iterations": 6, "region_words": 1 << 15}), ("stack_churn", {"inner_iterations": 5})],
    [("runtime_constant", {}), ("tight_loop_readonly", {"inner_iterations": 10}),
     ("chained_deref", {"inner_iterations": 12, "depth": 4}),
     ("inlined_args", {"inner_iterations": 7}), ("streaming", {"inner_iterations": 12, "region_words": 1 << 17}),
     ("pointer_chase", {"inner_iterations": 6, "ring_nodes": 512}), ("global_counters", {"num_globals": 2}),
     ("stack_churn", {"inner_iterations": 6})],
    [("inlined_args", {"inner_iterations": 9}), ("global_counters", {"num_globals": 4}),
     ("chained_deref", {"inner_iterations": 9, "depth": 3}),
     ("branchy", {"inner_iterations": 6}), ("tight_loop_readonly", {"inner_iterations": 7}),
     ("random_access", {"inner_iterations": 6, "region_words": 1 << 15}), ("streaming", {"inner_iterations": 8, "region_words": 1 << 16}),
     ("store_heavy", {"inner_iterations": 6})],
    [("runtime_constant", {}), ("inlined_args", {"inner_iterations": 8}),
     ("chained_deref", {"inner_iterations": 11, "depth": 3}),
     ("tight_loop_readonly", {"inner_iterations": 9}), ("random_access", {"inner_iterations": 6, "region_words": 1 << 15}),
     ("streaming", {"inner_iterations": 9, "region_words": 1 << 16}), ("stack_churn", {"inner_iterations": 5})],
)

_ENTERPRISE_TEMPLATES: Sequence[List[KernelRecipe]] = (
    [("inlined_args", {"inner_iterations": 9}), ("shared_data", {"num_shared": 4}),
     ("chained_deref", {"inner_iterations": 10, "depth": 4}),
     ("global_counters", {"num_globals": 4}), ("tight_loop_readonly", {"inner_iterations": 8}),
     ("store_heavy", {"inner_iterations": 7}), ("random_access", {"inner_iterations": 6, "region_words": 1 << 15}),
     ("pointer_chase", {"inner_iterations": 6, "ring_nodes": 512})],
    [("runtime_constant", {}), ("shared_data", {"num_shared": 5}),
     ("chained_deref", {"inner_iterations": 12, "depth": 3}),
     ("inlined_args", {"inner_iterations": 8}), ("branchy", {"inner_iterations": 6}),
     ("tight_loop_readonly", {"inner_iterations": 9}), ("streaming", {"inner_iterations": 10, "region_words": 1 << 16}),
     ("stack_churn", {"inner_iterations": 6})],
    [("global_counters", {"num_globals": 5}), ("tight_loop_readonly", {"inner_iterations": 9}),
     ("chained_deref", {"inner_iterations": 10, "depth": 4}),
     ("store_heavy", {"inner_iterations": 7, "silent_stores": True}),
     ("pointer_chase", {"inner_iterations": 6, "ring_nodes": 512}), ("inlined_args", {"inner_iterations": 8}),
     ("random_access", {"inner_iterations": 6, "region_words": 1 << 15})],
)

_FSPEC_TEMPLATES: Sequence[List[KernelRecipe]] = (
    [("matrix", {"inner_iterations": 18, "rows": 4096}), ("streaming", {"inner_iterations": 14, "region_words": 1 << 17}),
     ("inlined_args", {"inner_iterations": 6}), ("tight_loop_readonly",
                                                 {"inner_iterations": 7, "fixed_loads": 2})],
    [("matrix", {"inner_iterations": 20, "rows": 8192}), ("tight_loop_readonly",
                                            {"inner_iterations": 6, "fixed_loads": 1}),
     ("streaming", {"inner_iterations": 14, "region_words": 1 << 17}), ("random_access", {"inner_iterations": 8, "region_words": 1 << 16})],
    [("streaming", {"inner_iterations": 18, "region_words": 1 << 17}), ("matrix", {"inner_iterations": 14, "rows": 2048}),
     ("random_access", {"inner_iterations": 8, "region_words": 1 << 16}), ("global_counters", {"num_globals": 2}),
     ("inlined_args", {"inner_iterations": 4})],
    [("matrix", {"inner_iterations": 16, "rows": 4096}), ("store_heavy", {"inner_iterations": 10}),
     ("inlined_args", {"inner_iterations": 5}), ("streaming", {"inner_iterations": 12, "region_words": 1 << 17}),
     ("pointer_chase", {"inner_iterations": 6})],
)

_ISPEC_TEMPLATES: Sequence[List[KernelRecipe]] = (
    [("branchy", {"inner_iterations": 7}), ("pointer_chase", {"inner_iterations": 12, "ring_nodes": 1536}),
     ("runtime_constant", {}), ("stack_churn", {"inner_iterations": 8}),
     ("random_access", {"inner_iterations": 8, "region_words": 1 << 16}), ("streaming", {"inner_iterations": 8, "region_words": 1 << 16})],
    [("random_access", {"inner_iterations": 8, "region_words": 1 << 16}), ("branchy", {"inner_iterations": 7}),
     ("inlined_args", {"inner_iterations": 5}), ("stack_churn", {"inner_iterations": 8}),
     ("pointer_chase", {"inner_iterations": 8, "ring_nodes": 768}), ("streaming", {"inner_iterations": 8, "region_words": 1 << 16})],
    [("pointer_chase", {"inner_iterations": 12, "ring_nodes": 1536}), ("random_access", {"inner_iterations": 10, "region_words": 1 << 17}),
     ("global_counters", {"num_globals": 2, "store_period": 1}),
     ("branchy", {"inner_iterations": 7}), ("stack_churn", {"inner_iterations": 7}),
     ("tight_loop_readonly", {"inner_iterations": 4, "fixed_loads": 1})],
)

_SERVER_TEMPLATES: Sequence[List[KernelRecipe]] = (
    [("shared_data", {"num_shared": 5}), ("global_counters", {"num_globals": 5}),
     ("chained_deref", {"inner_iterations": 10, "depth": 3}),
     ("inlined_args", {"inner_iterations": 9}), ("tight_loop_readonly", {"inner_iterations": 9}),
     ("random_access", {"inner_iterations": 7, "region_words": 1 << 15}), ("store_heavy", {"inner_iterations": 8}),
     ("pointer_chase", {"inner_iterations": 6, "ring_nodes": 512})],
    [("shared_data", {"num_shared": 4}), ("runtime_constant", {}),
     ("chained_deref", {"inner_iterations": 11, "depth": 4}),
     ("inlined_args", {"inner_iterations": 10}), ("store_heavy", {"inner_iterations": 6}),
     ("tight_loop_readonly", {"inner_iterations": 8}), ("streaming", {"inner_iterations": 10, "region_words": 1 << 16}),
     ("random_access", {"inner_iterations": 6, "region_words": 1 << 15})],
    [("global_counters", {"num_globals": 6}), ("shared_data", {"num_shared": 4}),
     ("tight_loop_readonly", {"inner_iterations": 10}), ("pointer_chase", {"inner_iterations": 6}),
     ("inlined_args", {"inner_iterations": 8}), ("random_access", {"inner_iterations": 11, "region_words": 1 << 17}),
     ("stack_churn", {"inner_iterations": 6})],
)

_SUITE_TEMPLATES: Dict[str, Sequence[List[KernelRecipe]]] = {
    "Client": _CLIENT_TEMPLATES,
    "Enterprise": _ENTERPRISE_TEMPLATES,
    "FSPEC17": _FSPEC_TEMPLATES,
    "ISPEC17": _ISPEC_TEMPLATES,
    "Server": _SERVER_TEMPLATES,
}

#: External-write interval (in instructions) per suite; 0 disables snoop traffic.
_SUITE_SNOOP_INTERVAL: Dict[str, int] = {
    "Client": 0,
    "Enterprise": 4_000,
    "FSPEC17": 0,
    "ISPEC17": 0,
    "Server": 2_500,
}

_SUITE_NAME_PREFIX: Dict[str, str] = {
    "Client": "client",
    "Enterprise": "enterprise",
    "FSPEC17": "fspec",
    "ISPEC17": "ispec",
    "Server": "server",
}


def _jitter_params(recipes: List[KernelRecipe], rng: random.Random) -> List[KernelRecipe]:
    """Apply seeded per-workload variation to inner-iteration counts."""
    adjusted: List[KernelRecipe] = []
    for name, params in recipes:
        params = dict(params)
        if "inner_iterations" in params:
            base = int(params["inner_iterations"])
            params["inner_iterations"] = max(2, base + rng.randint(-3, 3))
        if "num_globals" in params:
            base = int(params["num_globals"])
            params["num_globals"] = max(1, base + rng.randint(-1, 1))
        adjusted.append((name, params))
    return adjusted


def _build_suite_specs(suite: str) -> List[WorkloadSpec]:
    templates = _SUITE_TEMPLATES[suite]
    count = SUITE_TRACE_COUNTS[suite]
    prefix = _SUITE_NAME_PREFIX[suite]
    specs: List[WorkloadSpec] = []
    suite_index = SUITE_NAMES.index(suite)
    for index in range(count):
        template = templates[index % len(templates)]
        # Deterministic across processes (unlike hash() on strings).
        seed = ((suite_index * 1_000 + index) * 2_654_435_761) & 0x7FFFFFFF
        rng = random.Random(seed)
        kernels = _jitter_params([(k, dict(p)) for k, p in template], rng)
        interval = _SUITE_SNOOP_INTERVAL[suite]
        specs.append(WorkloadSpec(
            name=f"{prefix}_{index:02d}",
            suite=suite,
            kernels=kernels,
            seed=seed,
            external_write_interval=interval,
            external_writes_silent=(index % 3 == 0),
            description=f"{suite} workload built from template {index % len(templates)}",
        ))
    return specs


_ALL_SPECS: Dict[str, List[WorkloadSpec]] = {}


def _ensure_specs() -> None:
    if not _ALL_SPECS:
        for suite in SUITE_NAMES:
            _ALL_SPECS[suite] = _build_suite_specs(suite)


def workload_specs_for_suite(suite: str) -> List[WorkloadSpec]:
    """All workload specs belonging to ``suite``."""
    _ensure_specs()
    if suite not in _ALL_SPECS:
        raise KeyError(f"unknown suite {suite!r}; known: {SUITE_NAMES}")
    return list(_ALL_SPECS[suite])


def all_workload_specs() -> List[WorkloadSpec]:
    """All 90 workload specs, grouped by suite in presentation order."""
    _ensure_specs()
    specs: List[WorkloadSpec] = []
    for suite in SUITE_NAMES:
        specs.extend(_ALL_SPECS[suite])
    return specs


def get_workload_spec(name: str) -> WorkloadSpec:
    """Look up a workload spec by name."""
    for spec in all_workload_specs():
        if spec.name == name:
            return spec
    raise KeyError(f"unknown workload {name!r}")


def round_robin_specs(specs: Sequence[WorkloadSpec]) -> List[WorkloadSpec]:
    """Interleave specs across suites: every suite's first spec, then every
    suite's second, and so on (suites in first-appearance order, within-suite
    order preserved).

    The interleaving is *prefix-stable*: raising a uniform ``per_suite`` cut
    only appends layers to the result, it never reshuffles the existing
    prefix.  The experiment runner builds its SMT pairings from this order, so
    pairings stay pinned as the workload set scales.
    """
    by_suite: Dict[str, List[WorkloadSpec]] = {}
    for spec in specs:
        by_suite.setdefault(spec.suite, []).append(spec)
    interleaved: List[WorkloadSpec] = []
    index = 0
    while True:
        layer = [suite_specs[index] for suite_specs in by_suite.values()
                 if index < len(suite_specs)]
        if not layer:
            return interleaved
        interleaved.extend(layer)
        index += 1
