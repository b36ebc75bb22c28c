"""What a fresh ``repro`` process loads, writes and returns.

Each test starts a new interpreter, because the properties are per process:
the modules a warm ``repro figures`` run imports (a warm run must not pay
for the timing model, the workload kernels and VM, the process pool,
``repro lint`` or ``repro bench``), the counters log each process leaves in
a cache directory, the exit of a run whose reader closed its stdout, and
what ``examples/quickstart.py`` prints when both caches serve it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.cache import persisted_cache_stats
from repro.experiments.warehouse import COUNTERS_TABLE, warehouse_dir

SRC = Path(__file__).resolve().parent.parent / "src"

#: A small warm-able sweep: fig11 over one Client workload.
FIG11 = ["figures", "fig11", "--per-suite", "1", "--instructions", "300",
         "--suites", "Client"]

#: Modules that a run which simulates, generates, pools, lints and benches
#: nothing has no use for.
NOT_LOADED_WHEN_WARM = (
    "repro.pipeline.cpu", "repro.workloads.kernels", "repro.workloads.vm",
    "repro.experiments.parallel", "repro.experiments.bench",
    "repro.analysis.lint", "multiprocessing", "concurrent.futures")


def _python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run this checkout's sources in a fresh interpreter.

    ``PYTHONUNBUFFERED`` is dropped, so a piped stdout is block-buffered
    as it is for a user; ``stdout`` may be overridden.
    """
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=env, text=True,
                          stderr=subprocess.PIPE, timeout=120, **kwargs)


def _probe(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter; the JSON object it printed last."""
    proc = _python("-c", code, *args)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_warm_figures_loads_no_simulator_pool_lint_or_bench(tmp_path):
    """A warm ``repro figures`` run imports only what it runs."""
    cache_dir = ["--cache-dir", str(tmp_path)]
    assert main(FIG11 + cache_dir) == 0
    probe = ("import json, sys\n"
             "from repro.cli import main\n"
             "status = main(sys.argv[1:])\n"
             "print(json.dumps({'status': status, 'modules': sorted(sys.modules)}))")
    seen = _probe(probe, *FIG11, *cache_dir, "--workers", "1", "--expect-warm")
    assert seen["status"] == 0
    assert [name for name in NOT_LOADED_WHEN_WARM
            if name in seen["modules"]] == []


def test_pool_runner_loads_the_simulator_before_its_first_job():
    """``default_runner(workers=2)`` has the simulator, the kernels and the
    VM loaded before any job runs, so forked workers never compile them."""
    probe = ("import json, sys\n"
             "from repro.experiments.figures import default_runner\n"
             "names = ('repro.pipeline.cpu', 'repro.workloads.kernels',\n"
             "         'repro.workloads.vm')\n"
             "before = [name for name in names if name in sys.modules]\n"
             "with default_runner(per_suite=1, instructions=300, workers=2,\n"
             "                    suites=('Client',)) as runner:\n"
             "    after = [name for name in names if name in sys.modules]\n"
             "    jobs = runner.health.jobs\n"
             "print(json.dumps({'before': before, 'after': after, 'jobs': jobs}))")
    seen = _probe(probe)
    assert seen == {"before": [],
                    "after": ["repro.pipeline.cpu", "repro.workloads.kernels",
                              "repro.workloads.vm"],
                    "jobs": 0}


def test_each_process_writes_one_counters_log(tmp_path):
    """Every cache and every dedup and health flush of a process share one
    counters log, and the sums read as if each had its own."""
    shared, reference = tmp_path / "shared", tmp_path / "reference"
    for _ in range(2):  # cold, then warm
        proc = _python("-m", "repro", *FIG11, "--cache-dir", str(shared))
        assert proc.returncode == 0, proc.stderr[-3000:]
    logs = sorted(warehouse_dir(shared).glob(f"*{COUNTERS_TABLE.log_suffix}"))
    assert len(logs) == 2, [log.name for log in logs]

    proc = _python("-m", "repro", "cache", "stats", "--cache-dir", str(shared),
                   "--json")
    assert proc.returncode == 0, proc.stderr[-3000:]
    counters = json.loads(proc.stdout)["persisted_counters"]
    # Cold: both caches, the wave's dedup and the runner's health; warm:
    # both caches and the dedup (a warm run runs no job).
    assert counters["ledgers"] == 7
    for _ in range(2):
        assert main(FIG11 + ["--cache-dir", str(reference)]) == 0
    assert counters == persisted_cache_stats(reference)


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["block-buffered", "unbuffered"])
def test_closed_stdout_exits_141_without_a_traceback(tmp_path, unbuffered):
    """``repro ... | head`` ends quietly: the reader went away before
    anything was printed, and the run exits 128 + SIGPIPE."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        flags = ["-u"] if unbuffered else []
        proc = _python(*flags, "-m", "repro", "query", "--cache-dir",
                       str(tmp_path), stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


def test_quickstart_warm_rerun_is_served_wholly_from_the_caches(tmp_path):
    """A cold quickstart sweep inspects and simulates through the pool, which
    ships reports only; the serial warm rerun then simulates and inspects
    nothing and prints the cold run's speedups."""
    script = str(SRC.parent / "examples" / "quickstart.py")
    common = ["--skip-single", "--instructions", "1500", "--cache", str(tmp_path)]
    cold = _python(script, *common, "--workers", "2")
    warm = _python(script, *common)
    for proc in (cold, warm):
        assert proc.returncode == 0, proc.stderr[-3000:]
    assert re.search(r"^  result cache: [1-9][0-9]* hits, 0 misses, 0 stores ",
                     warm.stdout, re.MULTILINE), warm.stdout
    assert re.search(r"^  report cache: [1-9][0-9]* hits, 0 misses, 0 stores$",
                     warm.stdout, re.MULTILINE), warm.stdout

    def speedups(stdout):
        return [line for line in stdout.splitlines() if "speedup" in line]

    assert speedups(warm.stdout) and speedups(warm.stdout) == speedups(cold.stdout)
