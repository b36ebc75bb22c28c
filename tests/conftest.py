"""Shared fixtures: small traces and configurations sized for fast tests."""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, Tuple

import pytest

from repro.core.config import ConstableConfig
from repro.experiments import parallel as parallel_module
from repro.experiments import runner as runner_module
from repro.pipeline.config import CoreConfig
from repro.pipeline.cpu import GoldenCheckError, OutOfOrderCore, simulate_trace
from repro.workloads.generator import generate_trace
from repro.workloads.suites import WorkloadSpec, workload_specs_for_suite

#: Trace length used by integration tests: long enough for Constable to train,
#: short enough to keep the whole suite fast.
TEST_TRACE_INSTRUCTIONS = 3000


@pytest.fixture(scope="session")
def client_trace():
    """A Client-suite trace (rich in stable loads)."""
    spec = workload_specs_for_suite("Client")[0]
    return generate_trace(spec, num_instructions=TEST_TRACE_INSTRUCTIONS)


@pytest.fixture(scope="session")
def server_trace():
    """A Server-suite trace (includes snoop traffic)."""
    spec = workload_specs_for_suite("Server")[0]
    return generate_trace(spec, num_instructions=TEST_TRACE_INSTRUCTIONS)


@pytest.fixture(scope="session")
def ispec_trace():
    """An ISPEC-like trace (branchy, pointer chasing)."""
    spec = workload_specs_for_suite("ISPEC17")[0]
    return generate_trace(spec, num_instructions=TEST_TRACE_INSTRUCTIONS)


@pytest.fixture(scope="session")
def tiny_spec():
    """A purpose-built workload spec exercising stable and unstable loads."""
    return WorkloadSpec(
        name="tiny_mixed",
        suite="Client",
        kernels=[
            ("runtime_constant", {}),
            ("inlined_args", {"inner_iterations": 6}),
            ("tight_loop_readonly", {"inner_iterations": 6}),
            ("store_heavy", {"inner_iterations": 4}),
        ],
        seed=7,
    )


@pytest.fixture(scope="session")
def tiny_trace(tiny_spec):
    return generate_trace(tiny_spec, num_instructions=2000)


@pytest.fixture(scope="session")
def constable_test_config():
    """Constable configuration with a trace-length-appropriate confidence threshold."""
    return ConstableConfig(confidence_threshold=6)


@pytest.fixture(scope="session")
def baseline_result(client_trace):
    """Baseline simulation of the Client trace (shared across tests)."""
    return simulate_trace(client_trace, CoreConfig(), name="baseline")


@pytest.fixture(scope="session")
def constable_result(client_trace, constable_test_config):
    """Constable simulation of the Client trace (shared across tests)."""
    return simulate_trace(client_trace, CoreConfig(constable=constable_test_config),
                          name="constable")


@pytest.fixture()
def simulation_counter(monkeypatch):
    """Counts, in this process, ``OutOfOrderCore.run`` calls (``count``) and
    the experiment layer's ``generate_trace`` calls (``traces``)."""
    calls = {"count": 0, "traces": 0}
    original_run = OutOfOrderCore.run

    def counted_run(self):
        calls["count"] += 1
        return original_run(self)

    def counted_trace(*args, **kwargs):
        calls["traces"] += 1
        return generate_trace(*args, **kwargs)

    monkeypatch.setattr(OutOfOrderCore, "run", counted_run)
    for module in (parallel_module, runner_module):
        monkeypatch.setattr(module, "generate_trace", counted_trace)
    return calls


class JobFailures:
    """The jobs :func:`fail_job` has armed, by ``(config name, workload)``;
    a pair's workload is ``a+b``.  The value says whether the job crashes
    its worker (True) or raises (False)."""

    def __init__(self) -> None:
        self.armed: Dict[Tuple[str, str], bool] = {}

    def __call__(self, config: str, workload: str, crash: bool = False) -> None:
        """Make the simulation of ``config`` over ``workload`` fail."""
        self.armed[(config, workload)] = crash

    def disarm(self) -> None:
        """Let every job simulate again (pools forked later inherit this)."""
        self.armed.clear()


@pytest.fixture()
def fail_job(monkeypatch):
    """Fails chosen simulation jobs: ``fail_job(config, workload)`` makes
    that job raise a :class:`GoldenCheckError`, and ``crash=True`` makes it
    kill its pool worker with ``os._exit`` instead.

    The patch lands on ``OutOfOrderCore.run`` in this process, so it must be
    armed before a pool forks for the workers to inherit it, and a disarm
    reaches only pools forked after it.
    """
    failures = JobFailures()
    original_run = OutOfOrderCore.run

    def failing_run(self):
        workload = "+".join(thread.trace.name for thread in self.threads)
        crash = failures.armed.get((self.name, workload))
        if crash:
            if multiprocessing.parent_process() is None:
                raise RuntimeError(f"a crash of {self.name} over {workload} "
                                   f"must run in a pool worker")
            os._exit(17)
        if crash is not None:
            raise GoldenCheckError(
                f"injected failure of {self.name} over {workload}")
        return original_run(self)

    monkeypatch.setattr(OutOfOrderCore, "run", failing_run)
    return failures
