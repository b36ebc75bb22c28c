"""Chaos, supervision and resume tests for the fault-tolerant sweep stack.

Three layers under test:

* ``experiments/faults.py`` — the deterministic :class:`FaultPlan` harness
  (parsing, validation, budgets, scoping);
* ``experiments/parallel.py`` — per-job supervision: retries with backoff,
  wall timeouts, pool rebuilds after worker crashes, in-process degradation
  and dead-lettering, with the chaos differential asserting that a sweep
  which crashed/hung/corrupted its way home is **bit-identical** to a clean
  serial run;
* the commit layer — partial-wave journaling to the on-disk cache, resume
  (only missing jobs re-execute, asserted via executed-job counts), the
  health ledger, and the CLI's distinct exit codes (3 = dead-lettered,
  130 = interrupted) plus the rerun that completes a dead-lettered wave.

Everything here injects faults only through ``REPRO_FAULT_PLAN`` via
monkeypatch, so a failing test can never leave chaos armed for its
neighbours.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import re

import pytest

from repro.cli import EXIT_DEAD_LETTER, EXIT_INTERRUPT, main
from repro.experiments.cache import (
    ResultCache,
    persist_health_stats,
    persisted_cache_stats,
)
from repro.experiments.configs import baseline_config, constable_config
from repro.experiments.faults import (
    CORRUPTED_RESULT,
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    active_fault_plan,
)
from repro.experiments.orchestrator import FigurePlan, SweepOrchestrator
from repro.experiments.parallel import (
    DEFAULT_MAX_RETRIES,
    JobExecutionError,
    ParallelExperimentRunner,
)
from repro.experiments.reporting import (
    format_dead_letters,
    format_health_report,
    format_persisted_health,
)
from repro.experiments.runner import ExperimentRunner, SweepExecutionError

#: Reduced sweep shared by the chaos tests: 2 workloads, short traces.
SUITES = ("Client", "Server")
INSTRUCTIONS = 1200


@pytest.fixture(autouse=True)
def _no_inherited_chaos(monkeypatch):
    """Tests opt into chaos explicitly; never inherit it from the session."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)


def _serial_results(cache=None):
    runner = ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                              suites=SUITES, cache=cache)
    return {name: runner.run_config(name, factory())
            for name, factory in (("baseline", baseline_config),
                                   ("constable", constable_config))}


# ---------------------------------------------------------------- plan layer


def test_plan_parse_budget_and_first_match_wins():
    plan = FaultPlan.parse(json.dumps({
        "sim:baseline/client_00": {"kind": "crash", "times": 2},
        "sim:baseline/*": {"kind": "raise"},
    }))
    # The specific rule shadows the glob; its budget covers attempts 1-2.
    assert plan.lookup("sim:baseline/client_00", 1).kind == "crash"
    assert plan.lookup("sim:baseline/client_00", 2).kind == "crash"
    assert plan.lookup("sim:baseline/client_00", 3) is None
    assert plan.lookup("sim:baseline/server_00", 1).kind == "raise"
    assert plan.lookup("sim:constable/client_00", 1) is None


@pytest.mark.parametrize("text", [
    "not json at all",
    "[1, 2, 3]",
    '{"sim:*": "crash"}',
    '{"sim:*": {"times": 2}}',
    '{"sim:*": {"kind": "explode"}}',
    '{"sim:*": {"kind": "raise", "times": 0}}',
    '{"sim:*": {"kind": "hang", "seconds": -1}}',
    '{"sim:*": {"kind": "raise", "scope": "everywhere"}}',
    '{"sim:*": {"kind": "raise", "typo": 1}}',
], ids=["not-json", "not-object", "spec-not-object", "missing-kind",
        "bad-kind", "zero-times", "negative-seconds", "bad-scope",
        "unknown-field"])
def test_malformed_plans_raise(text):
    with pytest.raises(ValueError):
        FaultPlan.parse(text)


def test_active_plan_reads_inline_json_and_files(tmp_path, monkeypatch):
    monkeypatch.setenv(FAULT_PLAN_ENV, '{"gen:*": {"kind": "corrupt"}}')
    assert active_fault_plan().lookup("gen:client_00", 1).kind == "corrupt"
    path = tmp_path / "plan.json"
    path.write_text('{"sim:*": {"kind": "hang", "seconds": 0.5}}',
                    encoding="utf-8")
    monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
    assert active_fault_plan().lookup("sim:x/y", 1).seconds == 0.5
    monkeypatch.setenv(FAULT_PLAN_ENV, str(tmp_path / "missing.json"))
    with pytest.raises(ValueError, match="neither inline JSON"):
        active_fault_plan()


def test_malformed_plan_fails_runner_construction_loudly(monkeypatch):
    monkeypatch.setenv(FAULT_PLAN_ENV, '{"sim:*": {"kind": "explode"}}')
    with pytest.raises(ValueError, match="fault kind"):
        ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                 suites=SUITES, max_workers=2)


def test_job_execution_error_survives_pickling():
    error = JobExecutionError("sim:baseline/client_00", 2,
                              "Traceback ...\nValueError: boom")
    clone = pickle.loads(pickle.dumps(error))
    assert clone.label == error.label
    assert clone.attempt == 2
    assert clone.remote_traceback == error.remote_traceback
    assert "sim:baseline/client_00" in str(clone)
    assert "ValueError: boom" in str(clone)
    assert clone.retryable
    model_error = JobExecutionError("sim:constable/client_00", 1,
                                    "GoldenCheckError: stale value",
                                    retryable=False)
    assert not pickle.loads(pickle.dumps(model_error)).retryable


# ----------------------------------------------------- the chaos differential


def test_chaos_sweep_is_bit_identical_to_clean_serial(monkeypatch):
    """Crash + hang + corrupt + raise, all recovered; results unchanged.

    This is the tentpole differential: a worker crash breaks (and rebuilds)
    the pool, a hung job trips the wall timeout and terminates its worker, a
    corrupted result is rejected by validation, and a raising job retries —
    yet every committed statistic must equal the fault-free serial run's.
    """
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
        "sim:baseline/client_00": {"kind": "crash", "times": 1},
        "sim:constable/server_00": {"kind": "hang", "seconds": 30},
        "sim:constable/client_00": {"kind": "corrupt", "times": 1},
        "sim:baseline/server_00": {"kind": "raise", "times": 2},
    }))
    with ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                  suites=SUITES, max_workers=2,
                                  max_retries=3, job_timeout=3.0) as chaotic:
        results = {name: chaotic.run_config(name, factory())
                   for name, factory in (("baseline", baseline_config),
                                          ("constable", constable_config))}
        health = chaotic.health
    assert results == _serial_results()
    assert not health.healthy
    assert not health.dead_letters
    assert health.jobs == 6  # 2 gen (trace generation) + 4 sim jobs
    assert health.retries >= 4  # crash + timeout + corrupt + 2x raise
    assert health.pool_rebuilds >= 2  # crash collateral + hang termination
    assert health.timeouts >= 1
    assert health.attempts > health.jobs


def test_worker_exceptions_carry_job_identity_and_traceback(monkeypatch):
    """Satellite: no failure crosses the process boundary anonymously."""
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
        "sim:baseline/client_00": {"kind": "raise", "times": 99,
                                   "scope": "anywhere"},
    }))
    with ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                  suites=SUITES, max_workers=2, max_retries=1) as runner:
        with pytest.raises(SweepExecutionError) as excinfo:
            runner.run_config("baseline", baseline_config())
    (letter,) = excinfo.value.dead_letters
    assert letter.label == "sim:baseline/client_00"
    assert letter.attempts == 2  # 1 + max_retries pool attempts
    assert "InjectedFault" in letter.error  # the remote traceback text
    assert "InjectedFault" in letter.fallback_error
    assert "sim:baseline/client_00" in str(excinfo.value)


def test_model_errors_dead_letter_on_first_attempt(monkeypatch):
    """A wrong answer fails as fast as it fails loudly: a GoldenCheckError is
    deterministic, so the supervisor neither retries it in the pool nor
    degrades it in-process, and the dead letter names the job and the load."""
    from repro.experiments import parallel
    from repro.pipeline.cpu import GoldenCheckError, OutOfOrderCore

    class WrongAnswerCore(OutOfOrderCore):
        def run(self):
            if self.name == "constable" and self.threads[0].trace.name == "client_00":
                raise GoldenCheckError("eliminated load at pc=0x400094 seq=42 "
                                       "retired with a stale value")
            return super().run()

    # Patched before the fork-started pool exists, so the workers inherit it.
    monkeypatch.setattr(parallel, "OutOfOrderCore", WrongAnswerCore)
    with ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                  suites=SUITES, max_workers=2, max_retries=2) as runner:
        with pytest.raises(SweepExecutionError):
            runner.run_config("constable", constable_config())
        health = runner.health
    assert health.retries == 0
    assert health.degraded == 0
    (letter,) = health.dead_letters
    assert letter.attempts == 1
    assert letter.label == "sim:constable/client_00"
    assert "GoldenCheckError" in letter.error
    assert "pc=0x400094 seq=42" in letter.error
    assert letter.fallback_error == ""


def test_exhausted_pool_budget_degrades_to_in_process(monkeypatch):
    """Worker-scoped faults burn the pool budget; the in-parent rung saves it."""
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
        "sim:*": {"kind": "raise", "times": 99, "scope": "worker"},
    }))
    with ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                  suites=SUITES, max_workers=2, max_retries=1) as runner:
        results = runner.run_config("baseline", baseline_config())
        health = runner.health
    assert results == _serial_results()["baseline"]
    assert health.degraded == 2
    assert not health.dead_letters
    # 2 gen jobs succeed first try; each sim job burns 1 + max_retries.
    assert health.attempts == 6


def test_one_job_wave_is_supervised_too(monkeypatch):
    """A wave of exactly one job still runs in the pool, under its timeout.

    One workload, one config: the lone job hangs past ``job_timeout`` in its
    worker, so the supervisor must record the timeout and rescue the job
    in-process (worker-scoped faults do not fire in the parent).
    """
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
        "sim:baseline/client_00": {"kind": "hang", "seconds": 2},
    }))
    with ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                  suites=("Client",), max_workers=2,
                                  max_retries=0, job_timeout=0.5) as runner:
        results = runner.run_config("baseline", baseline_config())
        health = runner.health
    assert health.timeouts == 1
    assert health.degraded == 1
    assert not health.dead_letters
    reference = ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                 suites=("Client",))
    assert results == reference.run_config("baseline", baseline_config())


def test_supervision_parameters_are_strict():
    """The retry budget and the timeout come only from their parameters:
    the defaults are two retries and no timeout, and an out-of-range value
    raises."""
    with ParallelExperimentRunner(suites=SUITES, max_workers=2) as runner:
        assert runner.max_retries == DEFAULT_MAX_RETRIES == 2
        assert runner.job_timeout is None
    for bad in (dict(max_retries=-1), dict(job_timeout=0),
                dict(job_timeout=-3.0), dict(job_timeout=float("nan"))):
        with pytest.raises(ValueError):
            ParallelExperimentRunner(suites=SUITES, max_workers=2, **bad)


# -------------------------------------------------- partial commit and resume


def test_failed_sweep_journals_successes_and_resumes(tmp_path, monkeypatch):
    """The acceptance differential: kill one job, resume runs only the rest.

    The first (faulted) sweep dead-letters ``sim:baseline/client_00`` but
    journals the surviving ``server_00`` result to the cache before raising.
    The resumed sweep must then execute exactly the one missing job — asserted
    via the cache's executed-store counters — and end bit-identical to a
    clean serial sweep.
    """
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
        "sim:baseline/client_00": {"kind": "raise", "times": 99,
                                   "scope": "anywhere"},
    }))
    with ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                  suites=SUITES, max_workers=2, max_retries=0,
                                  cache=ResultCache(tmp_path)) as runner:
        with pytest.raises(SweepExecutionError):
            runner.run_config("baseline", baseline_config())

    monkeypatch.delenv(FAULT_PLAN_ENV)
    resumed = ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                               suites=SUITES, cache=ResultCache(tmp_path))
    results = resumed.run_config("baseline", baseline_config())
    assert resumed.cache.stats.hits == 1    # server_00 came from the journal
    assert resumed.cache.stats.stores == 1  # only client_00 re-executed
    assert results == _serial_results()["baseline"]


def test_failed_wave_journals_and_resume_executes_only_missing(tmp_path,
                                                               monkeypatch):
    """Multi-config waves journal partial successes too
    (orchestrator._journal_partial_wave), and the resumed wave's own dedup
    stats prove only the missing job executed."""
    plan = FigurePlan("sweep", configs={"baseline": baseline_config(),
                                        "constable": constable_config()})
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
        "sim:constable/client_00": {"kind": "raise", "times": 99,
                                    "scope": "anywhere"},
    }))
    with ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                  suites=SUITES, max_workers=2, max_retries=0,
                                  cache=ResultCache(tmp_path)) as runner:
        with pytest.raises(SweepExecutionError):
            SweepOrchestrator(runner).execute([plan])

    monkeypatch.delenv(FAULT_PLAN_ENV)
    with ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                  suites=SUITES, max_workers=2,
                                  cache=ResultCache(tmp_path)) as resumed:
        stats = SweepOrchestrator(resumed).execute([plan])
        wave = {name: resumed.run_config(name, plan.configs[name])
                for name in plan.configs}
    assert stats.planned == 4
    assert stats.cache_warm == 3  # the three journaled successes
    assert stats.executed == 1    # only the dead-lettered job re-executes
    assert stats.cold_jobs == ["sim:constable/client_00"]
    assert wave == _serial_results()


def test_in_memory_commit_stays_atomic_on_failure(monkeypatch):
    """The atomic-commit contract survives the partial-commit layer: a failed
    sweep without a cache leaves no trace in the runner's aggregates."""
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
        "sim:baseline/client_00": {"kind": "raise", "times": 99,
                                   "scope": "anywhere"},
    }))
    with ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                  suites=SUITES, max_workers=2, max_retries=0) as runner:
        with pytest.raises(SweepExecutionError):
            runner.run_config("baseline", baseline_config())
        # Not even the succeeding workload committed to the in-memory store.
        assert all("baseline" not in run.results
                   for run in runner.workloads().values())


# ----------------------------------------------- crash-during-commit stress


def _crash_inside_commit(directory: str, key: str, result) -> None:
    """Child process body: die mid-``cache.put``, between temp-write and rename."""
    def die(src, dst):
        os._exit(1)
    os.replace = die
    ResultCache(directory).put(key, result)
    os._exit(0)  # unreachable: put() must hit the patched replace


def test_crash_during_commit_leaves_reclaimable_orphan(tmp_path):
    """Satellite: a writer killed mid-``os.replace`` cannot corrupt the cache.

    A forked child dies inside ``put`` after writing the temp file but before
    the atomic rename.  The entry must not exist, the orphan ``.tmp`` must be
    reported (once old enough) and purged by ``verify``, and a rerun commits
    the same entry bit-identically.
    """
    runner = ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                              suites=("Client",), cache=ResultCache(tmp_path))
    (job,) = runner.plan_jobs("baseline", baseline_config())
    assert job.cache_key is not None
    result = runner._execute_wave([job])[job.key]

    context = multiprocessing.get_context("fork")
    child = context.Process(target=_crash_inside_commit,
                            args=(str(tmp_path), job.cache_key, result))
    child.start()
    child.join(timeout=60)
    assert child.exitcode == 1  # died inside put(), not at the success exit

    cache = ResultCache(tmp_path)
    assert cache.get(job.cache_key) is None
    temps = list(tmp_path.glob("*/.*.tmp"))
    assert len(temps) == 1  # the abandoned temp file survived the crash

    # Young temp files belong to live writers and are left alone ...
    assert cache.verify().ok
    # ... but with the age guard dropped, verify reports and purges it.
    cache.ORPHAN_TEMP_AGE_SECONDS = 0.0
    report = cache.verify(purge=True)
    assert [os.path.basename(path) for path in report.orphan_temp] \
        == [temps[0].name]
    assert report.purged == 1
    assert not list(tmp_path.glob("*/.*.tmp"))

    cache.put(job.cache_key, result)
    assert cache.verify().ok
    assert cache.get(job.cache_key) == result


# ------------------------------------------------------- health observability


def test_health_ledger_aggregates_across_runs(tmp_path):
    persist_health_stats(tmp_path, {"jobs": 4, "attempts": 7, "retries": 3,
                                    "timeouts": 1, "pool_rebuilds": 2,
                                    "degraded": 1, "dead_lettered": 0})
    persist_health_stats(tmp_path, {"jobs": 2, "attempts": 2})
    summary = persisted_cache_stats(tmp_path)
    assert summary["health"]["runs"] == 2
    assert summary["health"]["jobs"] == 6
    assert summary["health"]["attempts"] == 9
    assert summary["health"]["retries"] == 3


def test_runner_close_flushes_health_to_ledger(tmp_path, monkeypatch):
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
        "sim:baseline/client_00": {"kind": "raise", "times": 1},
    }))
    with ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                  suites=SUITES, max_workers=2, max_retries=2,
                                  cache=ResultCache(tmp_path)) as runner:
        runner.run_config("baseline", baseline_config())
    health = persisted_cache_stats(tmp_path)["health"]
    assert health["runs"] == 1
    assert health["jobs"] == 4  # 2 gen + 2 sim jobs went through supervision
    assert health["retries"] >= 1
    assert health["dead_lettered"] == 0


def test_health_and_dead_letter_rendering():
    from repro.experiments.runner import DeadLetter, SweepHealthReport
    health = SweepHealthReport(jobs=5, attempts=9, retries=3, timeouts=1,
                               pool_rebuilds=2, degraded=1,
                               dead_letters=[DeadLetter(
                                   "sim:eves/client_00", 3,
                                   "Traceback ...\nValueError: boom",
                                   fallback_error="RuntimeError: again")])
    text = format_health_report(health)
    assert "retries" in text and "3" in text
    assert "dead-lettered" in text
    letters = format_dead_letters(health.dead_letters)
    assert "sim:eves/client_00" in letters
    assert "ValueError: boom" in letters        # last line, not the full text
    assert "Traceback" not in letters
    assert "RuntimeError: again" in letters
    persisted = format_persisted_health({"runs": 2, "jobs": 10, "attempts": 20,
                                         "retries": 5, "timeouts": 0,
                                         "pool_rebuilds": 0, "degraded": 0,
                                         "dead_lettered": 0})
    assert "25.0%" in persisted  # retry rate = 5/20


# ------------------------------------------------------------------ CLI layer


def _figures_argv(cache_dir):
    """``repro figures fig17`` (Constable over two workloads) on two workers."""
    return ["figures", "fig17", "--cache-dir", str(cache_dir), "--workers", "2",
            "--suites", "Client,Server", "--per-suite", "1",
            "--instructions", str(INSTRUCTIONS)]


def test_cli_dead_letter_exit_code_and_resume(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
        "sim:constable/client_00": {"kind": "raise", "times": 99,
                                    "scope": "anywhere"},
    }))
    assert main(_figures_argv(tmp_path) + ["--max-retries", "0"]) == EXIT_DEAD_LETTER
    captured = capsys.readouterr()
    assert "dead-lettered" in captured.err
    assert "sim:constable/client_00" in captured.err
    assert "rerun the same command" in captured.err

    # The same command again: the journaled job is warm, the other executes.
    monkeypatch.delenv(FAULT_PLAN_ENV)
    assert main(_figures_argv(tmp_path)) == 0
    out = capsys.readouterr().out
    assert re.search(r"^cache-warm +\| 1 *$", out, re.MULTILINE)
    assert re.search(r"^executed +\| 1 *$", out, re.MULTILINE)


def test_cli_interrupt_exits_130(tmp_path, capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt
    monkeypatch.setattr("repro.cli._build_runner", interrupted)
    assert main(_figures_argv(tmp_path)) == EXIT_INTERRUPT
    err = capsys.readouterr().err
    assert "interrupted" in err and "rerun the same command" in err


def test_cli_sweep_prints_health_on_recovered_faults(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
        "sim:constable/client_00": {"kind": "raise", "times": 1},
    }))
    assert main(_figures_argv(tmp_path) + ["--max-retries", "2"]) == 0
    out = capsys.readouterr().out
    assert "sweep health" in out
    # ... and `repro cache stats` aggregates the flushed health ledger.
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    assert "sweep health (all processes)" in capsys.readouterr().out
