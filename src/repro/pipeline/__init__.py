"""Cycle-level out-of-order core model (trace-driven) with optional Constable,
load value prediction, MRN, ELAR and RFP attached."""

from repro.pipeline.config import CoreConfig
from repro.pipeline.stats import SimulationResult, PipelineStats
from repro.pipeline.cpu import (OutOfOrderCore, GoldenCheckError, simulate_smt_pair,
                                simulate_trace)

__all__ = [
    "CoreConfig",
    "SimulationResult",
    "PipelineStats",
    "OutOfOrderCore",
    "GoldenCheckError",
    "simulate_trace",
    "simulate_smt_pair",
]
