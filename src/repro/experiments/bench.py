"""perfbench's memory-bound workloads and the provenance of the measuring host.

The repository benchmark (``perfbench/`` with ``BENCHMARK.json``) runs the
``memory_bound`` jobs of :data:`BENCH_FAMILIES` directly on the event engine:
pointer-chasing and random-access workloads whose 8–16 MiB working sets sit
far past the LLC, so DRAM stalls dominate and cycle skipping does the most
work.  It stamps every run with :func:`host_provenance`.  The same jobs are
compared under both engines by ``tests/test_event_driven.py``, and
``tests/golden/deep_membound_chase_4000.json`` pins a long run of one of them.
"""

from __future__ import annotations

import os
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.configs import baseline_config, constable_config
from repro.pipeline.config import CoreConfig
from repro.workloads.suites import WorkloadSpec


def _git_rev() -> Optional[str]:
    """The current git revision, or None outside a repo / without git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=Path(__file__).resolve().parent)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    rev = proc.stdout.strip()
    return rev or None


def host_provenance() -> Dict[str, object]:
    """Provenance of the measuring host, printed beside every measurement.

    Wall-clock samples are only comparable in context, so a measurement
    records what ran it — platform, CPU count, the load average at
    measurement time (None where the OS has no :func:`os.getloadavg`) and the
    git revision measured (None outside a work tree).
    """
    try:
        load_average: Optional[List[float]] = list(os.getloadavg())
    except (OSError, AttributeError):
        load_average = None
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "system": platform.system(),
        "release": platform.release(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "load_average": load_average,
        "git_rev": _git_rev(),
    }


@dataclass(frozen=True)
class BenchJob:
    """One simulation: workload spec(s) × configuration."""

    workload: str
    config_name: str
    config: CoreConfig
    specs: Tuple[WorkloadSpec, ...]


def _membound_specs() -> List[WorkloadSpec]:
    """Purpose-built memory-bound workloads (footprints well past the LLC)."""
    return [
        WorkloadSpec(
            name="membound_chase", suite="Bench", seed=11,
            kernels=[("pointer_chase", {"inner_iterations": 16,
                                        "ring_nodes": 1 << 16}),
                     ("random_access", {"inner_iterations": 8,
                                        "region_words": 1 << 20})],
            description="dependent pointer chase + random access over 8 MiB"),
        WorkloadSpec(
            name="membound_scatter", suite="Bench", seed=23,
            kernels=[("random_access", {"inner_iterations": 12,
                                        "region_words": 1 << 21}),
                     ("streaming", {"inner_iterations": 6,
                                    "region_words": 1 << 19})],
            description="random access over 16 MiB + LLC-sized streaming"),
    ]


def _family_memory_bound() -> List[BenchJob]:
    jobs = []
    for spec in _membound_specs():
        for config_name, config in (("baseline", baseline_config()),
                                    ("constable", constable_config())):
            jobs.append(BenchJob(spec.name, config_name, config, (spec,)))
    return jobs


#: Family registry: name -> (the function returning its jobs,).  perfbench
#: calls ``BENCH_FAMILIES["memory_bound"][0]``.
BENCH_FAMILIES: Dict[str, Tuple[Callable[[], List[BenchJob]]]] = {
    "memory_bound": (_family_memory_bound,),
}
