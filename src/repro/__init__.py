"""Python reproduction of Constable (ISCA 2024): load-value speculation study.

The package models an out-of-order core with the paper's load-handling
schemes and the experiment machinery to reproduce its figures:

* ``repro.core`` — the Constable predictor family and its baselines.
* ``repro.pipeline`` / ``frontend`` / ``backend`` / ``memory`` / ``rename`` /
  ``lvp`` — the cycle-accurate simulation core (bit-identical cycle and
  event engines).
* ``repro.workloads`` — deterministic synthetic kernels and suite specs.
* ``repro.experiments`` — sweeps, the on-disk result cache, figure
  harnesses, the orchestrator and perfbench's memory-bound workloads.
* ``repro.analysis`` — trace inspection and the ``repro lint`` invariant
  checker.

Entry point: the ``repro`` CLI (``repro.cli``).
"""
