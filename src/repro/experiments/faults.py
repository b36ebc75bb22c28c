"""Deterministic fault injection for chaos-testing the sweep execution stack.

A :class:`FaultPlan` maps *job labels* (``sim:<config>/<workload>``, where an
SMT2 pair's workload is ``<first>+<second>``, and ``gen:<workload>``) to
faults that the worker-side payload wrapper
(:func:`repro.experiments.parallel.run_supervised`) injects deterministically:

* ``raise`` — raise :class:`InjectedFault` before simulating,
* ``crash`` — ``os._exit`` the worker process (the parent sees a
  ``BrokenProcessPool`` exactly as it would for an OOM-killed child),
* ``hang`` — sleep ``seconds`` before simulating (exercises per-job wall
  timeouts; with no timeout configured the job merely finishes late),
* ``corrupt`` — replace the payload's return value with
  :data:`CORRUPTED_RESULT` (exercises supervisor-side result validation).

Plans are supplied through :data:`FAULT_PLAN_ENV` as inline JSON or a path to
a JSON file, e.g. ``{"sim:baseline/*": {"kind": "crash", "times": 1}}``.
Label patterns are :func:`fnmatch.fnmatchcase` globs; a fault fires only while
the job's attempt number is ``<= times``, so a retried job deterministically
*stops* faulting once its budget is spent — which is what makes the chaos
differential test meaningful (the faulted sweep must converge to results
bit-identical to the fault-free serial run).

Two invariants keep this harness test-only and safe:

* **Never in cache keys.**  The fault plan (and the retry/timeout knobs it is
  exercised with) changes *how* a sweep executes, never *what* a result
  contains — corrupted results are detected and retried, never committed.
  RL002 walks this module, and the runtime twin in ``tests/test_lint.py``
  asserts keys are bit-identical with and without a plan in the environment.
* **Workers only, by default.**  ``maybe_inject`` is a no-op in the parent
  process unless a rule opts into ``"scope": "anywhere"`` (used by tests that
  need the in-process degradation rung to fail too) — a stray ``crash`` rule
  must never ``os._exit`` the supervising process.

Malformed plans raise :class:`ValueError` eagerly (at parallel-runner
construction): a typo'd chaos plan that silently injects nothing would turn
every chaos test vacuous, which is strictly worse than failing loudly.
"""

from __future__ import annotations

import fnmatch
import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

#: Environment variable carrying the fault plan (inline JSON or a file path).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: The fault kinds a plan may request.
FAULT_KINDS = ("raise", "crash", "hang", "corrupt")

#: The scopes a rule may fire in: pool workers only (default), or anywhere
#: including the supervising parent's in-process degradation rung.
FAULT_SCOPES = ("worker", "anywhere")

#: Exit status used by ``crash`` faults (distinctive in worker post-mortems).
CRASH_EXIT_STATUS = 17

#: Sentinel a ``corrupt`` fault substitutes for the payload's return value;
#: supervisor-side validators reject it and the job is retried.
CORRUPTED_RESULT = "__repro-corrupted-result__"


class InjectedFault(RuntimeError):
    """Raised by a ``raise``-kind fault in a worker (deterministic, test-only)."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: what kind, for how many attempts, where."""

    kind: str
    times: int = 1
    seconds: float = 5.0
    scope: str = "worker"

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.times < 1:
            raise ValueError(f"fault times must be >= 1, got {self.times}")
        if self.seconds < 0:
            raise ValueError(f"fault seconds must be >= 0, got {self.seconds}")
        if self.scope not in FAULT_SCOPES:
            raise ValueError(
                f"fault scope must be one of {FAULT_SCOPES}, got {self.scope!r}")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of ``(label glob, FaultSpec)`` rules.

    Rules are matched in declaration order and the first match wins, so a
    specific rule may precede (and shadow) a broader glob.
    """

    rules: Tuple[Tuple[str, FaultSpec], ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the JSON plan form ``{pattern: {kind, times?, seconds?, scope?}}``."""
        try:
            raw = json.loads(text)
        except ValueError as error:
            raise ValueError(f"fault plan is not valid JSON: {error}") from None
        if not isinstance(raw, dict):
            raise ValueError(
                f"fault plan must be a JSON object mapping label patterns to "
                f"fault specs, got {type(raw).__name__}")
        rules = []
        for pattern, spec in raw.items():
            if not isinstance(spec, dict) or "kind" not in spec:
                raise ValueError(
                    f"fault spec for pattern {pattern!r} must be an object "
                    f"with at least a 'kind' field, got {spec!r}")
            unknown = sorted(set(spec) - {"kind", "times", "seconds", "scope"})
            if unknown:
                raise ValueError(
                    f"fault spec for pattern {pattern!r} has unknown fields "
                    f"{unknown} (allowed: kind, times, seconds, scope)")
            try:
                rules.append((str(pattern), FaultSpec(
                    kind=str(spec["kind"]), times=int(spec.get("times", 1)),
                    seconds=float(spec.get("seconds", 5.0)),
                    scope=str(spec.get("scope", "worker")))))
            except (TypeError, ValueError) as error:
                raise ValueError(
                    f"invalid fault spec for pattern {pattern!r}: {error}"
                ) from None
        return cls(rules=tuple(rules))

    def lookup(self, label: str, attempt: int) -> Optional[FaultSpec]:
        """The first rule matching ``label`` whose budget covers ``attempt``."""
        for pattern, spec in self.rules:
            if fnmatch.fnmatchcase(label, pattern):
                return spec if attempt <= spec.times else None
        return None


#: Per-process parse memo keyed by the raw environment string, so workers
#: consulting the plan per job pay JSON parsing once, not once per payload.
_PARSED_PLANS: Dict[str, FaultPlan] = {}


def active_fault_plan() -> Optional[FaultPlan]:
    """The plan from :data:`FAULT_PLAN_ENV`, or None when the variable is unset.

    Inline JSON (the value starts with ``{``) and file paths are both
    accepted; malformed values raise :class:`ValueError` — a chaos harness
    that silently injects nothing is worse than one that fails loudly.
    """
    raw = os.environ.get(FAULT_PLAN_ENV, "").strip()
    if not raw:
        return None
    plan = _PARSED_PLANS.get(raw)
    if plan is None:
        text = raw
        if not raw.startswith("{"):
            path = Path(raw)
            if not path.is_file():
                raise ValueError(
                    f"{FAULT_PLAN_ENV}={raw!r} is neither inline JSON nor an "
                    f"existing plan file")
            text = path.read_text(encoding="utf-8")
        plan = FaultPlan.parse(text)
        _PARSED_PLANS[raw] = plan
    return plan


def _in_worker_process() -> bool:
    """True in a multiprocessing child (pool worker), False in the parent."""
    return multiprocessing.parent_process() is not None


def _applicable(label: str, attempt: int) -> Optional[FaultSpec]:
    plan = active_fault_plan()
    if plan is None:
        return None
    spec = plan.lookup(label, attempt)
    if spec is None:
        return None
    if spec.scope == "worker" and not _in_worker_process():
        return None
    return spec


def maybe_inject(label: str, attempt: int) -> None:
    """Fire any pre-execution fault planned for ``(label, attempt)``.

    ``corrupt`` faults are post-execution (see :func:`corrupt_result`) and do
    nothing here.  ``hang`` sleeps, then lets the job proceed normally — the
    supervisor's wall timeout, not the fault, decides whether that attempt is
    abandoned.
    """
    spec = _applicable(label, attempt)
    if spec is None:
        return
    if spec.kind == "raise":
        raise InjectedFault(
            f"injected fault for {label} (attempt {attempt})")
    if spec.kind == "crash":
        os._exit(CRASH_EXIT_STATUS)
    if spec.kind == "hang":
        time.sleep(spec.seconds)


def corrupt_result(label: str, attempt: int, result: object) -> object:
    """Apply any planned ``corrupt`` fault to a payload's return value."""
    spec = _applicable(label, attempt)
    if spec is not None and spec.kind == "corrupt":
        return CORRUPTED_RESULT
    return result
