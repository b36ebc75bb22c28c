"""Self-tests of the benchmark.

Run from the root of a checkout with ``python3 perfbench/selftest.py`` (or
``python3 -m pytest perfbench/selftest.py``).  The smoke runs use tiny
budgets, so the whole file takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(ROOT / "src"))

import hostprobe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_what_run_py_emits():
    assert [m["name"] for m in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == run.per_layer_table()


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = last_json(smoke(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in table}
    values = {name: value["value"] for name, value in result["metrics"].items()}
    assert all(isinstance(value, (int, float)) for value in values.values())
    if trace:
        # Self times exclude wrapped children, so on a single-process
        # workload they can never add up to more than the traced wall.
        if workload != "sweep_cold_pool":
            self_total = sum(value for name, value in values.items()
                             if name.endswith(".self_s"))
            assert 0 < self_total <= values["trace.wall_s"]
        simulated = values["pipeline.simulate.calls"]
        assert (simulated == 0) == (workload == "sweep_warm")
    else:
        assert all(value > 0 for value in values.values())


def test_tracer_wraps_names_where_callers_look_them_up():
    import repro.cli  # noqa: F401  (loads every module the CLI binds)
    import repro.experiments.parallel as parallel
    import repro.experiments.runner as runner
    from repro.analysis.load_inspector import inspect_trace
    from repro.experiments.figures import FIGURE_HARNESSES
    from repro.pipeline.cpu import OutOfOrderCore
    from repro.workloads.generator import generate_trace

    original_run = OutOfOrderCore.run
    original_fig11 = FIGURE_HARNESSES["fig11"]
    installed = tracer.Tracer().install()
    try:
        for module in (runner, parallel):
            assert module.generate_trace.__wrapped__ is generate_trace
            assert module.inspect_trace.__wrapped__ is inspect_trace
        assert OutOfOrderCore.run.__wrapped__ is original_run
        assert FIGURE_HARNESSES["fig11"].__wrapped__ is original_fig11
    finally:
        installed.uninstall()
    for module in (runner, parallel):
        assert module.generate_trace is generate_trace
        assert module.inspect_trace is inspect_trace
    assert OutOfOrderCore.run is original_run
    assert FIGURE_HARNESSES["fig11"] is original_fig11


def test_probe_server_samples_while_watching_and_stops():
    with hostprobe.ProbeServer() as server:
        for pause in (0.0, 0.6):
            _, samples = server.during(lambda: time.sleep(pause))
            assert samples and all(0 < sample < 5 for sample in samples)
        assert len(samples) >= 2  # one walk per WATCH_PERIOD_S
        proc = server.proc
    assert proc.returncode == 0


def test_fails_without_the_program_sources():
    with tempfile.TemporaryDirectory() as scratch:
        bare = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(PERFBENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = smoke("sweep_cold", 0, cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
