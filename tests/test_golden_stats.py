"""Golden-stats regression tests: committed snapshots pin the timing model.

The on-disk caches key every entry with ``SCHEMA_VERSION``, so a timing-model
change that forgets the schema bump would silently serve stale results to
warm runs.  These tests make such drift fail loudly instead: small JSON
snapshots of each golden workload's trace signature, Load Inspector summary
and baseline/constable simulation summaries are committed under
``tests/golden/``, and every run asserts the current code reproduces them
bit-for-bit (all values pass through a JSON round-trip on both sides, so the
comparison is exact).

The summaries are eight fields; the ``result_digests`` pin everything else.
Each is the SHA-256 of the sorted-key JSON of one full
``SimulationResult.to_dict()``, for every named configuration and every ideal
mode on the fixture's workload, plus two SMT2 pairs: one run directly at the
default base PC, and the runner's first pair as a sweep plans it.  Two longer
runs add digests of every named configuration on paths the 1,200-instruction
runs never reach: snoops, and L1-D evictions with DRAM traffic.  The
event-vs-cycle differentials cannot see a change both engines share; these
digests can.

When a change *intentionally* alters these numbers, refresh the fixtures and
bump :data:`repro.experiments.cache.SCHEMA_VERSION` in the same commit:

    PYTHONPATH=src python tests/test_golden_stats.py --refresh

The diff of ``tests/golden/*.json`` then documents exactly what moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Tuple

import pytest

from repro.analysis.load_inspector import inspect_trace
from repro.experiments.configs import baseline_config, constable_config, named_configs
from repro.experiments.runner import ExperimentRunner
from repro.pipeline.cpu import simulate_smt_pair, simulate_trace
from repro.pipeline.config import CoreConfig, IdealMode, IdealOracle
from repro.workloads.generator import generate_trace, trace_signature
from repro.workloads.suites import get_workload_spec

#: Where the committed snapshots live.
GOLDEN_DIR = Path(__file__).parent / "golden"

#: Seeded workloads pinned by the fixtures: one stable-load-rich suite, one
#: SPEC-like suite and one server suite.  At ``GOLDEN_INSTRUCTIONS`` their
#: traces hold no snoop and their runs evict no L1-D line; the
#: ``GOLDEN_DEEP_RUNS`` reach both.
GOLDEN_WORKLOADS = ("client_00", "ispec_00", "server_00")

#: Longer runs pinned by digests of every named configuration, each with the
#: ``reach`` counter that shows it exercises a path the short runs miss:
#: server_00's trace carries snoops at 6,000 instructions (Constable resets
#: SLD entries by snoop), and the memory-bound bench workload evicts L1-D
#: lines and goes to DRAM at 4,000.
GOLDEN_DEEP_RUNS = {"server_00": (6000, "resets_by_snoop"),
                    "membound_chase": (4000, "l1d_evictions")}

#: The SMT2 pair pinned by its own fixture.  Both traces start at the default
#: base PC, so their PCs alias: per-PC state shared between the threads (for
#: example a decode memo keyed by PC rather than by static instruction) moves
#: its digest.
GOLDEN_SMT_PAIR = ("client_00", "ispec_00")

#: The runner whose first SMT2 pair (``client_00+enterprise_00``) is pinned
#: as a sweep plans it: the second thread at its own base PC and the first
#: thread's global-stable PCs attached as the stats oracle.
GOLDEN_RUNNER_PAIR = dict(per_suite=1, suites=("Client", "Enterprise"))

#: Trace length of the golden runs (short: each workload simulates 13 times).
GOLDEN_INSTRUCTIONS = 1200


def result_digest(result) -> str:
    """SHA-256 of the sorted-key JSON of one full ``SimulationResult``."""
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _digest_configs(report) -> Dict[str, Callable[[], CoreConfig]]:
    """Every configuration a fixture digests, materialised as sweeps do:
    each one carries the trace's global-stable PCs as its stats oracle."""
    stable = report.global_stable_pcs()
    configs = {name: (lambda factory=factory: factory().copy(stats_oracle_pcs=stable))
               for name, factory in named_configs().items()}
    for mode in IdealMode:
        configs[mode.value] = (lambda mode=mode: CoreConfig(
            ideal_oracle=IdealOracle(stable_pcs=frozenset(stable), mode=mode),
            stats_oracle_pcs=stable))
    return configs


def compute_snapshot(workload: str) -> Dict[str, object]:
    """Regenerate every pinned statistic for ``workload`` from scratch."""
    spec = get_workload_spec(workload)
    trace = generate_trace(spec, num_instructions=GOLDEN_INSTRUCTIONS)
    report = inspect_trace(trace)
    baseline = simulate_trace(trace, baseline_config(), name="baseline")
    constable = simulate_trace(trace, constable_config(), name="constable")
    snapshot = {
        "workload": workload,
        "suite": spec.suite,
        "instructions": GOLDEN_INSTRUCTIONS,
        "trace_signature": trace_signature(trace),
        "report_summary": report.summary(),
        "baseline_summary": baseline.summary(),
        "constable_summary": constable.summary(),
        "result_digests": {
            name: result_digest(simulate_trace(trace, build(), name=name))
            for name, build in _digest_configs(report).items()},
    }
    # Round-trip through JSON so committed and recomputed values compare in
    # the exact same representation.
    return json.loads(json.dumps(snapshot))


def compute_smt_snapshot(pair: Tuple[str, str]) -> Dict[str, object]:
    """Regenerate the pinned baseline SMT2 result of ``pair``."""
    traces = [generate_trace(get_workload_spec(name),
                             num_instructions=GOLDEN_INSTRUCTIONS)
              for name in pair]
    result = simulate_smt_pair(traces[0], traces[1], baseline_config(), name="baseline")
    return {
        "workloads": list(pair),
        "instructions": GOLDEN_INSTRUCTIONS,
        "result_digests": {"baseline": result_digest(result)},
    }


def compute_runner_pair_snapshot() -> Dict[str, object]:
    """Regenerate the pinned baseline and constable results of the runner's
    first SMT2 pair, planned and executed through ``run_smt_config``."""
    runner = ExperimentRunner(instructions=GOLDEN_INSTRUCTIONS, **GOLDEN_RUNNER_PAIR)
    (pair,) = runner.smt_pairs(max_pairs=1)
    digests = {name: result_digest(
                   runner.run_smt_config(name, factory(), max_pairs=1)[pair])
               for name, factory in (("baseline", baseline_config),
                                     ("constable", constable_config))}
    return {"workloads": list(pair), "instructions": GOLDEN_INSTRUCTIONS,
            "result_digests": digests}


def _deep_spec(workload: str):
    """A suite workload's spec, or one of the memory-bound bench specs."""
    from repro.experiments.bench import BENCH_FAMILIES

    for job in BENCH_FAMILIES["memory_bound"][0]():
        for spec in job.specs:
            if spec.name == workload:
                return spec
    return get_workload_spec(workload)


def compute_deep_snapshot(workload: str) -> Dict[str, object]:
    """Regenerate the pinned long run of ``workload`` (see GOLDEN_DEEP_RUNS)."""
    instructions, _ = GOLDEN_DEEP_RUNS[workload]
    trace = generate_trace(_deep_spec(workload), num_instructions=instructions)
    results = {name: simulate_trace(trace, factory(), name=name)
               for name, factory in named_configs().items()}
    constable = results["constable"]
    reach = {
        "snoops": len(trace.snoops),
        "resets_by_snoop": constable.constable_stats["resets_by_snoop"],
        "l1d_evictions": constable.memory_stats["l1d"]["evictions"],
        "dram_accesses": constable.memory_stats["dram_accesses"],
    }
    return json.loads(json.dumps({
        "workload": workload,
        "instructions": instructions,
        "reach": reach,
        "result_digests": {name: result_digest(result)
                           for name, result in results.items()},
    }))


def _fixture_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def _smt_fixture_name(pair: Tuple[str, str]) -> str:
    return "smt2_" + "+".join(pair)


#: Fixture of :func:`compute_runner_pair_snapshot`.
RUNNER_PAIR_FIXTURE = "smt2_runner_client_00+enterprise_00"


def _deep_fixture_name(workload: str) -> str:
    instructions, _ = GOLDEN_DEEP_RUNS[workload]
    return f"deep_{workload}_{instructions}"


def _load_fixture(name: str) -> Dict[str, object]:
    path = _fixture_path(name)
    assert path.is_file(), (
        f"missing golden fixture {path}; generate it with "
        f"`PYTHONPATH=src python tests/test_golden_stats.py --refresh`")
    return json.loads(path.read_text(encoding="utf-8"))


def _drift_message(label: str, expected: Dict[str, object],
                   actual: Dict[str, object]) -> str:
    """Name every drifted key; for ``result_digests``, every config that moved."""
    lines = []
    for key in sorted(set(expected) | set(actual)):
        want, got = expected.get(key), actual.get(key)
        if want == got:
            continue
        if key == "result_digests" and isinstance(want, dict) and isinstance(got, dict):
            moved = sorted(name for name in set(want) | set(got)
                           if want.get(name) != got.get(name))
            lines.extend(f"  result digest moved: ({label}, {name})" for name in moved)
        else:
            lines.append(f"  {key}: expected {want!r}\n"
                         f"  {' ' * len(key)}  actual   {got!r}")
    return (f"golden stats drifted for {label}: the timing model or workload "
            f"generation changed.  If intentional, refresh tests/golden/ AND "
            f"bump repro.experiments.cache.SCHEMA_VERSION so stale cache "
            f"entries cannot be served.\n" + "\n".join(lines))


@pytest.mark.parametrize("workload", GOLDEN_WORKLOADS)
def test_golden_stats_reproduce(workload):
    expected = _load_fixture(workload)
    actual = compute_snapshot(workload)
    if actual != expected:
        raise AssertionError(_drift_message(workload, expected, actual))


def test_golden_smt_pair_reproduces():
    name = _smt_fixture_name(GOLDEN_SMT_PAIR)
    expected = _load_fixture(name)
    actual = compute_smt_snapshot(GOLDEN_SMT_PAIR)
    if actual != expected:
        raise AssertionError(_drift_message("+".join(GOLDEN_SMT_PAIR), expected, actual))


def test_golden_runner_pair_reproduces():
    expected = _load_fixture(RUNNER_PAIR_FIXTURE)
    actual = compute_runner_pair_snapshot()
    if actual != expected:
        raise AssertionError(_drift_message(RUNNER_PAIR_FIXTURE, expected, actual))


@pytest.mark.parametrize("workload", sorted(GOLDEN_DEEP_RUNS))
def test_golden_deep_run_reproduces(workload):
    name = _deep_fixture_name(workload)
    expected = _load_fixture(name)
    _, path = GOLDEN_DEEP_RUNS[workload]
    assert expected["reach"][path] > 0, f"{name} no longer reaches {path}"
    actual = compute_deep_snapshot(workload)
    if actual != expected:
        raise AssertionError(_drift_message(name, expected, actual))


def test_drift_message_names_each_moved_digest():
    expected = {"result_digests": {"baseline": "a", "constable": "b", "eves": "c"}}
    actual = {"result_digests": {"baseline": "a", "constable": "x", "eves": "y"}}
    message = _drift_message("client_00", expected, actual)
    assert "(client_00, constable)" in message
    assert "(client_00, eves)" in message
    assert "(client_00, baseline)" not in message


def refresh() -> None:
    """Rewrite every golden fixture from the current code."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    snapshots = {workload: compute_snapshot(workload) for workload in GOLDEN_WORKLOADS}
    snapshots[_smt_fixture_name(GOLDEN_SMT_PAIR)] = compute_smt_snapshot(GOLDEN_SMT_PAIR)
    snapshots[RUNNER_PAIR_FIXTURE] = compute_runner_pair_snapshot()
    for workload in GOLDEN_DEEP_RUNS:
        snapshots[_deep_fixture_name(workload)] = compute_deep_snapshot(workload)
    for name, snapshot in snapshots.items():
        path = _fixture_path(name)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--refresh", action="store_true",
                        help="rewrite tests/golden/*.json from the current code")
    if parser.parse_args().refresh:
        refresh()
    else:
        parser.error("nothing to do; pass --refresh to rewrite the fixtures")
