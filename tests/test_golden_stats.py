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
mode on the fixture's workload, plus one SMT2 pair.  The event-vs-cycle
differentials cannot see a change both engines share; these digests can.

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
from repro.core.ideal import IdealMode, IdealOracle
from repro.experiments.configs import baseline_config, constable_config, named_configs
from repro.pipeline import simulate_trace
from repro.pipeline.config import CoreConfig
from repro.pipeline.smt import simulate_smt_pair
from repro.workloads.generator import generate_trace, trace_signature
from repro.workloads.suites import get_workload_spec

#: Where the committed snapshots live.
GOLDEN_DIR = Path(__file__).parent / "golden"

#: Seeded workloads pinned by the fixtures: one stable-load-rich suite, one
#: SPEC-like suite, one snoop-heavy suite.
GOLDEN_WORKLOADS = ("client_00", "ispec_00", "server_00")

#: The SMT2 pair pinned by its own fixture.  Both traces start at the default
#: base PC, so their PCs alias: per-PC state shared between the threads (for
#: example a decode memo keyed by PC rather than by static instruction) moves
#: its digest.
GOLDEN_SMT_PAIR = ("client_00", "ispec_00")

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
            ideal_oracle=IdealOracle(stable_pcs=set(stable), mode=mode),
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
    smt = simulate_smt_pair(traces[0], traces[1], baseline_config(), name="baseline")
    return {
        "workloads": list(pair),
        "instructions": GOLDEN_INSTRUCTIONS,
        "result_digests": {"baseline": result_digest(smt.result)},
    }


def _fixture_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def _smt_fixture_name(pair: Tuple[str, str]) -> str:
    return "smt2_" + "+".join(pair)


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
