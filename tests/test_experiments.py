"""Tests for the experiment runner, named configs, reporting and figure harnesses."""

import pytest

from repro.experiments import figures
from repro.experiments.configs import (
    baseline_config,
    constable_config,
    constable_engine_config,
    eves_config,
    eves_constable_config,
    named_configs,
)
from repro.experiments.reporting import (
    format_mapping,
    format_percent,
    format_speedup,
    format_table,
    per_suite_table,
)
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="module")
def small_runner():
    """One workload per suite, short traces: shared by the runner tests."""
    return ExperimentRunner(per_suite=1, instructions=2500)


# --------------------------------------------------------------------- configs

def test_named_configs_build_valid_core_configs():
    for name, factory in named_configs().items():
        config = factory()
        assert config.rename_width == 6, name


def test_constable_engine_config_uses_experiment_threshold():
    config = constable_engine_config()
    assert config.confidence_threshold < 30
    assert constable_engine_config(confidence_threshold=30).confidence_threshold == 30


def test_config_factories_attach_expected_mechanisms():
    assert baseline_config().constable is None and baseline_config().lvp is None
    assert constable_config().constable is not None
    assert eves_config().lvp == "eves"
    combined = eves_constable_config()
    assert combined.lvp == "eves" and combined.constable is not None


# ------------------------------------------------------------------- reporting

def test_format_helpers():
    assert format_percent(0.051) == "5.1%"
    assert format_speedup(1.0512) == "1.051x"
    table = format_table(["a", "b"], [("x", 1), ("yy", 22)], title="t")
    assert "t" in table and "yy" in table
    mapping = format_mapping({"k": "v"})
    assert "k" in mapping
    suites = per_suite_table({"Client": {"constable": 1.05}},
                             title="fig")
    assert "Client" in suites and "constable" in suites


# ---------------------------------------------------------------------- runner

def test_runner_workload_generation(small_runner):
    workloads = small_runner.workloads()
    assert len(workloads) == 5
    for run in workloads.values():
        assert len(small_runner.trace(run.spec)) == 2500
        assert run.report.total_dynamic_loads() > 0


def test_runner_caches_results(small_runner):
    first = small_runner.run_config("baseline", baseline_config())
    second = small_runner.run_config("baseline", baseline_config())
    for name in first:
        assert first[name] is second[name]


def test_runner_speedups_and_geomean(small_runner):
    small_runner.run_config("baseline", baseline_config())
    small_runner.run_config("constable", constable_config())
    speedups = small_runner.speedups("constable")
    assert len(speedups) == 5
    assert all(0.8 < value < 1.5 for value in speedups.values())
    by_suite = small_runner.speedups_by_suite("constable")
    assert "GEOMEAN" in by_suite
    assert 0.9 < by_suite["GEOMEAN"] < 1.3


def test_runner_metric_ratio(small_runner):
    small_runner.run_config("baseline", baseline_config())
    small_runner.run_config("constable", constable_config())
    ratios = small_runner.metric_ratio("constable",
                                       lambda r: r.power_events["l1d_accesses"])
    assert all(value <= 1.01 for value in ratios.values())


def test_runner_smt_pairs(small_runner):
    pairs = small_runner.smt_pairs(max_pairs=2)
    assert len(pairs) == 2
    assert all(a != b for a, b in pairs)


def test_smt_pairs_order_is_pinned():
    """Regression: the exact pairing order is part of the runner's contract.

    ``smt_pairs`` previously split the workload-name list in half, so changing
    ``per_suite`` reshuffled *every* pairing and invalidated any cached or
    published SMT numbers.  The round-robin pairing is pinned here: a uniform
    ``per_suite`` change only appends pairs, and ``max_pairs`` only truncates.
    """
    one = ExperimentRunner(per_suite=1, instructions=1000)
    assert one.smt_pairs() == [("client_00", "enterprise_00"),
                               ("fspec_00", "ispec_00")]
    two = ExperimentRunner(per_suite=2, instructions=1000)
    pairs_two = two.smt_pairs()
    assert pairs_two == [("client_00", "enterprise_00"), ("fspec_00", "ispec_00"),
                         ("server_00", "client_01"), ("enterprise_01", "fspec_01"),
                         ("ispec_01", "server_01")]
    # Growing per_suite appends; it never reshuffles the existing prefix.
    assert pairs_two[:len(one.smt_pairs())] == one.smt_pairs()
    # max_pairs is a pure truncation of the same list.
    for limit in range(len(pairs_two) + 1):
        assert two.smt_pairs(max_pairs=limit) == pairs_two[:limit]
    # Pair members are always distinct, cross-suite where sizes allow.
    assert all(a.split("_")[0] != b.split("_")[0] for a, b in pairs_two)
    # Pairing is derived from specs alone: no trace generation required.
    assert two._workloads is None


def test_run_smt_config_memoises_per_pair():
    runner = ExperimentRunner(per_suite=2, instructions=1000,
                              suites=("Client", "Server"))
    first = runner.run_smt_config("baseline", baseline_config(), max_pairs=1)
    assert len(first) == 1
    # A wider rerun reuses the committed pair and only simulates the new one.
    second = runner.run_smt_config("baseline", baseline_config(), max_pairs=2)
    assert len(second) == 2
    pair = next(iter(first))
    assert second[pair] is first[pair], "committed SMT results must be reused"


def test_run_smt_config_failure_mid_sweep_is_atomic():
    """A config builder raising mid-SMT-sweep must not commit partial results."""
    runner = ExperimentRunner(per_suite=2, instructions=1000,
                              suites=("Client", "Server"))
    calls = {"count": 0}

    def flaky_builder(report):
        calls["count"] += 1
        if calls["count"] > 1:
            raise RuntimeError("builder exploded mid-sweep")
        return constable_config()

    with pytest.raises(RuntimeError, match="exploded"):
        runner.run_smt_config("flaky", flaky_builder, max_pairs=2)
    assert calls["count"] > 1
    assert runner.smt_results("flaky", max_pairs=2) == {}

    # The sweep stays usable afterwards.
    results = runner.run_smt_config("flaky", constable_config(), max_pairs=2)
    assert set(results) == set(runner.smt_pairs(max_pairs=2))
    for result in results.values():
        assert result.cycles > 0 and len(result.per_thread) == 2


def test_runner_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ExperimentRunner(instructions=0)
    # A size below one once ran silently: per_suite=-1 ran 21 of the 22
    # Client workloads, -21 one and 0 none; workers=-3 ran serially.
    for per_suite in (0, -1, -21):
        with pytest.raises(ValueError, match="per_suite must be at least 1"):
            ExperimentRunner(per_suite=per_suite, suites=("Client",))
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            figures.default_runner(workers=workers)
    # An empty suite list once built a runner over no workload.
    with pytest.raises(ValueError, match="suites must name at least one suite"):
        ExperimentRunner(suites=[])


def test_smt_pair_generates_each_thread_trace_once(simulation_counter):
    """Two SMT2 configs over one pair generate each trace once: the two
    workloads' traces at the default base PC (inspected for their reports,
    the first thread's reused by both jobs) and the second thread's at its
    own base PC, kept for the second job."""
    runner = ExperimentRunner(per_suite=1, instructions=1000,
                              suites=("Client", "Server"))
    for name, factory in (("baseline", baseline_config),
                          ("constable", constable_config)):
        runner.run_smt_config(name, factory(), max_pairs=1)
    assert simulation_counter["count"] == 2
    assert simulation_counter["traces"] == 3


def test_run_config_failure_mid_sweep_is_atomic():
    """A config builder raising mid-sweep must not leave partial results behind.

    Regression test: previously each workload's result was committed as it was
    simulated, so a builder raising on the third workload left the first two
    populated and ``speedups``/geomean aggregation silently used the subset.
    """
    runner = ExperimentRunner(per_suite=1, instructions=1000,
                              suites=("Client", "Server"))
    runner.run_config("baseline", baseline_config())
    calls = {"count": 0}

    def flaky_builder(report):
        calls["count"] += 1
        if calls["count"] > 1:
            raise RuntimeError("builder exploded mid-sweep")
        return constable_config()

    with pytest.raises(RuntimeError, match="exploded"):
        runner.run_config("flaky", flaky_builder)
    assert calls["count"] > 1, "the builder must have been consulted more than once"
    for run in runner.workloads().values():
        assert "flaky" not in run.results, "no partial results may be committed"
    assert runner.speedups("flaky") == {}
    assert runner.geomean_speedup("flaky") == 1.0

    # The sweep stays usable: a working config afterwards covers every workload.
    results = runner.run_config("flaky", constable_config())
    assert set(results) == set(runner.workloads())
    assert all("flaky" in run.results for run in runner.workloads().values())


def test_config_builder_type_error_reaches_the_caller():
    """A builder's own ``TypeError`` surfaces with its own message, not as a
    complaint about how the builder was called."""
    runner = ExperimentRunner(per_suite=1, instructions=1000, suites=("Client",))

    def builder(report):
        raise TypeError("builder rejected its report")

    with pytest.raises(TypeError, match="builder rejected its report"):
        runner.run_config("broken", builder)


def test_run_config_simulation_failure_is_atomic(monkeypatch):
    """An executor raising during simulation also commits nothing."""
    from repro.pipeline import cpu

    runner = ExperimentRunner(per_suite=1, instructions=1000,
                              suites=("Client", "Server"))
    original = cpu.OutOfOrderCore.run
    calls = {"count": 0}

    def failing_run(self):
        calls["count"] += 1
        if calls["count"] > 1:
            raise RuntimeError("simulator crashed")
        return original(self)

    monkeypatch.setattr(cpu.OutOfOrderCore, "run", failing_run)
    with pytest.raises(RuntimeError, match="crashed"):
        runner.run_config("baseline", baseline_config())
    for run in runner.workloads().values():
        assert "baseline" not in run.results
    monkeypatch.setattr(cpu.OutOfOrderCore, "run", original)
    results = runner.run_config("baseline", baseline_config())
    assert set(results) == set(runner.workloads())


# ------------------------------------------------------- degenerate-run guards

def test_speedup_paths_survive_zero_cycle_results(small_runner):
    """Degenerate runs (zero-cycle results from tiny traces) must be skipped
    by the speedup aggregations instead of crashing geomean or dividing by
    zero — regression for the harness paths feeding figs. 11/14/15."""
    import dataclasses

    small_runner.run_config("baseline", baseline_config())
    workloads = small_runner.workloads()
    for run in workloads.values():
        run.results["degenerate"] = dataclasses.replace(
            run.results["baseline"], cycles=0)
    assert small_runner.speedups("degenerate") == {}
    assert small_runner.geomean_speedup("degenerate") == 1.0
    summary = small_runner.speedups_by_suite("degenerate")
    assert summary["GEOMEAN"] == 1.0
    # A single healthy workload is enough to yield a real aggregate again.
    first = next(iter(workloads.values()))
    first.results["degenerate"] = first.results["baseline"]
    assert small_runner.speedups("degenerate") != {}
    assert small_runner.geomean_speedup("degenerate") == pytest.approx(1.0)
    for run in workloads.values():
        del run.results["degenerate"]


def test_fig14_survives_zero_cycle_smt_results():
    """fig14's per-pair speedup loop must skip zero-cycle pairs."""
    runner = ExperimentRunner(per_suite=2, instructions=1000,
                              suites=("Client", "Server"))
    result = figures.fig14_speedup_smt2(runner, max_pairs=1)
    assert set(result["geomean_speedups"]) == {"eves", "constable", "eves+constable"}
    # Zero out one side after the fact and rerun the aggregation path: the
    # memoised results make this cheap, and the degenerate pair must drop out.
    for results in runner._pair_results.values():
        for result in results.values():
            result.cycles = 0
    degenerate = figures.fig14_speedup_smt2(runner, max_pairs=1)
    assert all(value == 1.0 for value in degenerate["geomean_speedups"].values())


def test_main_figures_run_on_minimal_configs():
    """figs. 11, 14 and 15 must complete on a minimal one-workload-per-suite,
    short-trace runner without tripping the strict geomean."""
    runner = ExperimentRunner(per_suite=1, instructions=600,
                              suites=("Client", "Server"))
    fig11 = figures.fig11_speedup_nosmt(runner)
    fig14 = figures.fig14_speedup_smt2(runner, max_pairs=1)
    fig15 = figures.fig15_prior_works(runner)
    for result in (fig11["geomean"], fig14["geomean_speedups"],
                   fig15["geomean_speedups"]):
        assert all(value > 0 for value in result.values())
