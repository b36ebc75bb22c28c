"""Front-end models: branch prediction."""

from repro.frontend.branch_predictor import (
    BimodalPredictor,
    TagePredictor,
    TageConfig,
    BranchPredictor,
)

__all__ = [
    "BimodalPredictor",
    "TagePredictor",
    "TageConfig",
    "BranchPredictor",
]
