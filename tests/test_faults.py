"""Failure, dead-letter and resume tests for the sweep stack.

Two layers under test:

* ``experiments/parallel.py`` and the serial runner — fail fast: a job that
  raises is dead-lettered at once with its label and traceback while the
  rest of the wave runs, and a worker that dies dead-letters every job still
  in flight and drops the broken pool;
* the commit layer — partial-wave journaling to the on-disk cache, resume
  (only missing jobs re-execute, asserted via executed-job counts), the
  health ledger, and the CLI's distinct exit codes (3 = dead-lettered,
  130 = interrupted) plus the rerun that completes a dead-lettered wave.

Jobs fail only through the ``fail_job`` fixture (``tests/conftest.py``),
which patches the simulator in this process before any pool forks, so a
failing test can never leave a failure armed for its neighbours.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import re
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.analysis.load_inspector import inspect_trace
from repro.cli import EXIT_DEAD_LETTER, EXIT_INTERRUPT, main
from repro.experiments import parallel as parallel_module
from repro.experiments import runner as runner_module
from repro.experiments.cache import (
    ResultCache,
    persist_health_stats,
    persisted_cache_stats,
)
from repro.experiments.configs import baseline_config, constable_config
from repro.experiments.orchestrator import FigurePlan, SweepOrchestrator
from repro.experiments.parallel import JobExecutionError, ParallelExperimentRunner
from repro.experiments.reporting import format_dead_letters, format_persisted_health
from repro.experiments.runner import (
    DeadLetter,
    ExperimentRunner,
    SweepExecutionError,
    SweepHealthReport,
)

#: Reduced sweep shared by the failure tests: 2 workloads, short traces.
SUITES = ("Client", "Server")
INSTRUCTIONS = 1200


def _serial_results(cache=None):
    runner = ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                              suites=SUITES, cache=cache)
    return {name: runner.run_config(name, factory())
            for name, factory in (("baseline", baseline_config),
                                   ("constable", constable_config))}


def _runner(workers, cache=None):
    """A runner over the reduced sweep: serial for 1 worker, else a pool."""
    if workers == 1:
        return ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                suites=SUITES, cache=cache)
    return ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                    suites=SUITES, max_workers=workers,
                                    cache=cache)


def _sweep_plan():
    return FigurePlan("sweep", configs={"baseline": baseline_config(),
                                        "constable": constable_config()})


def test_job_execution_error_survives_pickling():
    error = JobExecutionError("sim:baseline/client_00",
                              "Traceback ...\nValueError: boom")
    clone = pickle.loads(pickle.dumps(error))
    assert clone.label == error.label
    assert clone.remote_traceback == error.remote_traceback
    assert "sim:baseline/client_00" in str(clone)
    assert "ValueError: boom" in str(clone)


# ------------------------------------------------------------ fail fast


def test_worker_exceptions_carry_job_identity_and_traceback(fail_job):
    """No failure crosses the process boundary anonymously."""
    fail_job("baseline", "client_00")
    with _runner(2) as runner:
        with pytest.raises(SweepExecutionError) as excinfo:
            runner.run_config("baseline", baseline_config())
    (letter,) = excinfo.value.dead_letters
    assert letter.label == "sim:baseline/client_00"
    # The worker-side traceback text, down to the failing frame.
    assert "Traceback" in letter.error
    assert "simulate_keyed_job_payload" in letter.error
    assert "injected failure of baseline over client_00" in letter.error
    assert "sim:baseline/client_00" in str(excinfo.value)


def test_model_errors_dead_letter_on_first_attempt(fail_job):
    """A wrong answer fails as fast as it fails loudly: a GoldenCheckError is
    deterministic, so the job runs once, and the dead letter names the job
    and carries the model error's own message."""
    fail_job("constable", "client_00")
    with _runner(2) as runner:
        with pytest.raises(SweepExecutionError):
            runner.run_config("constable", constable_config())
        health = runner.health
    (letter,) = health.dead_letters
    assert letter.label == "sim:constable/client_00"
    assert "GoldenCheckError" in letter.error
    assert "injected failure of constable over client_00" in letter.error
    assert health.jobs == 2


def test_dying_worker_ends_the_wave_and_the_next_wave_resumes(tmp_path,
                                                              fail_job):
    """A worker killed mid-job dead-letters every job still in flight; the
    runner drops the broken pool, and the next wave starts a fresh one that
    executes exactly the dead-lettered jobs and matches a clean serial run."""
    plan = _sweep_plan()
    fail_job("baseline", "client_00", crash=True)
    with _runner(2, cache=ResultCache(tmp_path)) as runner:
        with pytest.raises(SweepExecutionError) as excinfo:
            SweepOrchestrator(runner).execute([plan])
        labels = [letter.label for letter in excinfo.value.dead_letters]
        assert "sim:baseline/client_00" in labels
        assert "died" in excinfo.value.dead_letters[0].error
        assert runner._pool is None, "the broken pool must be dropped"

        fail_job.disarm()
        stats = SweepOrchestrator(runner).execute([plan])
        assert sorted(stats.cold_jobs) == sorted(labels)
        assert stats.executed == len(labels)
        assert stats.cache_warm == 4 - len(labels)
        wave = {name: runner.results(name) for name in plan.configs}
    assert wave == _serial_results()


def test_jobs_submitted_after_a_worker_died_are_dead_lettered(monkeypatch):
    """A pool that breaks while a wave is still being submitted refuses the
    remaining submissions; those jobs are dead-lettered like the ones in
    flight, and the finished one is kept."""
    with _runner(2) as runner:
        runner.workloads()  # generation runs on the intact pool
        pool = runner._pool
        submitted = []

        def submit(*args):
            if submitted:
                raise BrokenProcessPool("a child process terminated abruptly")
            submitted.append(args)
            return ProcessPoolExecutor.submit(pool, *args)

        monkeypatch.setattr(pool, "submit", submit)
        with pytest.raises(SweepExecutionError) as excinfo:
            runner.run_config("baseline", baseline_config())
        assert runner._pool is None, "the broken pool must be dropped"
    (letter,) = excinfo.value.dead_letters
    assert letter.label == "sim:baseline/server_00"
    assert "died" in letter.error
    assert list(excinfo.value.partial) == [("baseline", "client_00")]


# -------------------------------------------------- partial commit and resume


def test_failed_sweep_journals_successes_and_resumes(tmp_path, fail_job):
    """The acceptance differential: fail one job, resume runs only the rest.

    The first sweep dead-letters ``sim:baseline/client_00`` but journals the
    surviving ``server_00`` result to the cache before raising.  The resumed
    sweep must then execute exactly the one missing job — asserted via the
    cache's executed-store counters — and end bit-identical to a clean
    serial sweep.
    """
    fail_job("baseline", "client_00")
    with _runner(2, cache=ResultCache(tmp_path)) as runner:
        with pytest.raises(SweepExecutionError):
            runner.run_config("baseline", baseline_config())

    fail_job.disarm()
    resumed = ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                               suites=SUITES, cache=ResultCache(tmp_path))
    results = resumed.run_config("baseline", baseline_config())
    assert resumed.cache.stats.hits == 1    # server_00 came from the journal
    assert resumed.cache.stats.stores == 1  # only client_00 re-executed
    assert results == _serial_results()["baseline"]


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_wave_journals_and_resume_executes_only_missing(tmp_path,
                                                               fail_job,
                                                               workers):
    """Multi-config waves journal partial successes too
    (orchestrator._journal_partial_wave), at every worker count: a serial
    wave runs its remaining jobs after a failure just as the pool does, so
    both name the same dead letters and journal the same successes, and the
    resumed wave's own dedup stats prove only the missing job executed."""
    plan = _sweep_plan()
    fail_job("constable", "client_00")
    with _runner(workers, cache=ResultCache(tmp_path)) as runner:
        with pytest.raises(SweepExecutionError) as excinfo:
            SweepOrchestrator(runner).execute([plan])
        jobs = [job for name, config in plan.configs.items()
                for job in runner.plan_jobs(name, config)]
    assert [letter.label for letter in excinfo.value.dead_letters] \
        == ["sim:constable/client_00"]
    journal = ResultCache(tmp_path)
    journaled = {job.label for job in jobs
                 if journal.get(job.cache_key) is not None}
    assert journaled == {"sim:baseline/client_00", "sim:baseline/server_00",
                         "sim:constable/server_00"}

    fail_job.disarm()
    with _runner(2, cache=ResultCache(tmp_path)) as resumed:
        stats = SweepOrchestrator(resumed).execute([plan])
        wave = {name: resumed.run_config(name, plan.configs[name])
                for name in plan.configs}
    assert stats.planned == 4
    assert stats.cache_warm == 3  # the three journaled successes
    assert stats.executed == 1    # only the dead-lettered job re-executes
    assert stats.cold_jobs == ["sim:constable/client_00"]
    assert wave == _serial_results()


def test_in_memory_commit_stays_atomic_on_failure(fail_job):
    """The atomic-commit contract survives the partial-commit layer: a failed
    sweep without a cache leaves no trace in the runner's aggregates."""
    fail_job("baseline", "client_00")
    with _runner(2) as runner:
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
    result = runner._execute_wave([job])[job.key].result

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
    persist_health_stats(tmp_path, {"jobs": 4, "dead_lettered": 1})
    persist_health_stats(tmp_path, {"jobs": 2})
    summary = persisted_cache_stats(tmp_path)
    assert summary["health"] == {"runs": 2, "jobs": 6, "dead_lettered": 1}


def test_runner_close_flushes_health_to_ledger(tmp_path, fail_job):
    fail_job("baseline", "client_00")
    with _runner(2, cache=ResultCache(tmp_path)) as runner:
        with pytest.raises(SweepExecutionError):
            runner.run_config("baseline", baseline_config())
    health = persisted_cache_stats(tmp_path)["health"]
    assert health["runs"] == 1
    assert health["jobs"] == 2  # the simulation jobs; generation is not counted
    assert health["dead_lettered"] == 1


def test_serial_and_pool_runs_flush_equal_health(tmp_path, capsys):
    """``jobs`` counts the same work under both runners: simulation jobs
    only, never the pool's trace-generation tasks."""
    blocks = {}
    for workers in ("1", "2"):
        cache_dir = tmp_path / workers
        assert main(_figures_argv(cache_dir, workers)) == 0
        blocks[workers] = persisted_cache_stats(cache_dir)["health"]
    capsys.readouterr()
    assert blocks["1"] == blocks["2"] == {"runs": 1, "jobs": 2,
                                          "dead_lettered": 0}


def test_health_and_dead_letter_rendering():
    health = SweepHealthReport(jobs=5, dead_letters=[DeadLetter(
        "sim:eves/client_00", "Traceback ...\nValueError: boom")])
    assert health.counters() == {"jobs": 5, "dead_lettered": 1}
    letters = format_dead_letters(health.dead_letters)
    assert "sim:eves/client_00" in letters
    assert "ValueError: boom" in letters        # last line, not the full text
    assert "Traceback" not in letters
    persisted = format_persisted_health({"runs": 2, "jobs": 10,
                                         "dead_lettered": 1})
    assert re.search(r"^dead-lettered +\| 1 *$", persisted, re.MULTILINE)
    assert re.search(r"^jobs +\| 10 *$", persisted, re.MULTILINE)


# ------------------------------------------------------------------ CLI layer


def _figures_argv(cache_dir, workers="2"):
    """``repro figures fig17`` (Constable over two workloads)."""
    return ["figures", "fig17", "--cache-dir", str(cache_dir),
            "--workers", workers, "--suites", "Client,Server",
            "--per-suite", "1", "--instructions", str(INSTRUCTIONS)]


def test_cli_dead_letter_exit_code_and_resume(tmp_path, capsys, fail_job):
    fail_job("constable", "client_00")
    assert main(_figures_argv(tmp_path)) == EXIT_DEAD_LETTER
    captured = capsys.readouterr()
    assert "dead-lettered" in captured.err
    assert "sim:constable/client_00" in captured.err
    assert "rerun the same command" in captured.err

    # The same command again: the journaled job is warm, the other executes.
    fail_job.disarm()
    assert main(_figures_argv(tmp_path)) == 0
    out = capsys.readouterr().out
    assert re.search(r"^cache-warm +\| 1 *$", out, re.MULTILINE)
    assert re.search(r"^executed +\| 1 *$", out, re.MULTILINE)
    # The warehouse lists exactly the journaled entries: none missing, and
    # (--strict) none extra.
    assert main(["warehouse", "verify", "--strict",
                 "--cache-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_failed_inspection_dead_letters_and_resumes(tmp_path, capsys,
                                                        monkeypatch, workers):
    """A Load Inspector pass that raises dead-letters its ``gen:`` task at
    every worker count: the other workload's report is published, the run
    exits 3, and the rerun inspects only the failed workload."""
    def inspect(trace):
        if trace.name == "client_00":
            raise ValueError("injected inspection failure")
        return inspect_trace(trace)

    for module in (runner_module, parallel_module):
        monkeypatch.setattr(module, "inspect_trace", inspect)
    assert main(_figures_argv(tmp_path, workers)) == EXIT_DEAD_LETTER
    err = capsys.readouterr().err
    assert "gen:client_00: ValueError: injected inspection failure" in err

    monkeypatch.undo()
    assert main(_figures_argv(tmp_path, workers)) == 0
    assert re.search(r"^done: .*, 1 inspection passes$",
                     capsys.readouterr().out, re.MULTILINE)


def test_cli_failed_wave_records_its_dedup_stats(tmp_path, capsys, fail_job):
    """A dead-lettered wave reaches the counters table like any other, so
    ``repro cache stats`` counts both waves of a failed run and its rerun."""
    fail_job("constable", "client_00")
    assert main(_figures_argv(tmp_path)) == EXIT_DEAD_LETTER
    fail_job.disarm()
    assert main(_figures_argv(tmp_path)) == 0
    capsys.readouterr()
    dedup = persisted_cache_stats(tmp_path)["dedup"]
    assert (dedup["waves"], dedup["planned"], dedup["executed"]) == (2, 4, 3)


def test_cli_interrupt_exits_130(tmp_path, capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt
    monkeypatch.setattr("repro.cli._build_runner", interrupted)
    assert main(_figures_argv(tmp_path)) == EXIT_INTERRUPT
    err = capsys.readouterr().err
    assert "interrupted" in err and "rerun the same command" in err
