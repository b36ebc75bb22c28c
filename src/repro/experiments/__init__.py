"""Experiment orchestration: named configurations, the runner, and per-figure harnesses."""
