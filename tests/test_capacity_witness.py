"""Capacity witnesses: a run that never filled a capacity is every run above it.

Three layers under test:

* the core — :meth:`OutOfOrderCore.capacity_witness` floors each witnessed
  capacity (load ports, ROB, RS, load and store buffers) at what the run
  needed, and gives none where the run filled it.  The exhaustive
  differential below simulates a load-width x depth grid directly and
  checks every ordered pair whose witness covers the other config, under
  both engines, so a floor set too low or a new reader of a witnessed
  capacity fails it;
* the orchestrator — a ``fig7 fig20`` wave simulates only the jobs no
  witness covered, and every committed result equals a direct simulation;
* failure semantics — a dead-lettered representative leaves its family to
  simulate itself, and the rerun executes only the dead-lettered job.
"""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

from repro.cli import EXIT_DEAD_LETTER, main
from repro.experiments.configs import baseline_config, constable_config
from repro.experiments.figures import plan_fig7, plan_fig20
from repro.experiments.orchestrator import SweepOrchestrator, _relabelled
from repro.experiments.runner import ExperimentRunner
from repro.pipeline.cpu import (
    CORE_ENGINES,
    WITNESSED_FIELDS,
    OutOfOrderCore,
    effective_capacities,
    simulate_trace,
)
from repro.workloads.generator import generate_trace
from repro.workloads.suites import get_workload_spec

#: The exhaustive grid: three suites' first workloads, every load width the
#: core sensibly has and fig. 20's depth scales widened both ways.
GRID_WORKLOADS = ("client_00", "server_00", "fspec_00")
GRID_INSTRUCTIONS = 1500
LOAD_WIDTHS = range(1, 7)
DEPTH_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)
MECHANISMS = {"baseline": baseline_config, "constable": constable_config}

#: The workloads and trace length ``tests/test_golden_stats.py`` pins.
GOLDEN_WORKLOADS = ("client_00", "ispec_00", "server_00")
GOLDEN_INSTRUCTIONS = 1200

ROB = WITNESSED_FIELDS.index(("sizes", "rob"))


def _run(config, trace, name="run", engine="event"):
    core = OutOfOrderCore(config, [trace], name=name, engine=engine)
    return core.run(), core.capacity_witness()


@pytest.fixture(scope="module")
def grids():
    """Each engine's direct runs of the grid, computed on first use:
    ``engine -> (workload, mechanism) -> [(config, result, witness)]``."""
    traces = {name: generate_trace(get_workload_spec(name),
                                   num_instructions=GRID_INSTRUCTIONS)
              for name in GRID_WORKLOADS}
    cache = {}

    def grid(engine):
        if engine not in cache:
            cache[engine] = {
                (workload, mechanism): [
                    (config, *_run(config, trace, f"{mechanism}_w{width}_d{scale}",
                                   engine))
                    for width in LOAD_WIDTHS for scale in DEPTH_SCALES
                    for config in [factory().with_load_width(width)
                                   .with_depth_scale(scale)]]
                for workload, trace in traces.items()
                for mechanism, factory in MECHANISMS.items()}
        return cache[engine]

    return grid


# ---------------------------------------------------------------- the core

@pytest.mark.parametrize("engine", CORE_ENGINES)
def test_every_covered_grid_point_equals_its_direct_run(grids, engine):
    covered, uncovered, mismatched = 0, 0, []
    for family, runs in grids(engine).items():
        for _, result, witness in runs:
            for other_config, other, _ in runs:
                if other is result:
                    continue
                if not witness.covers(effective_capacities(other_config)):
                    uncovered += 1
                elif (_relabelled(result, other.config_name).to_dict()
                      != other.to_dict()):
                    mismatched.append((family, result.config_name,
                                       other.config_name))
                else:
                    covered += 1
    assert mismatched == []
    assert covered > 0 and uncovered > 0, (covered, uncovered)


def test_grid_witnesses_agree_across_engines(grids):
    event, cycle = grids("event"), grids("cycle")
    for family in event:
        assert ([witness for _, _, witness in event[family]]
                == [witness for _, _, witness in cycle[family]]), family


@pytest.mark.parametrize("workload", GOLDEN_WORKLOADS)
def test_golden_witnesses_agree_across_engines(workload):
    trace = generate_trace(get_workload_spec(workload),
                           num_instructions=GOLDEN_INSTRUCTIONS)
    for factory in (baseline_config, constable_config):
        witnesses = [_run(factory(), trace, engine=engine)[1]
                     for engine in CORE_ENGINES]
        assert witnesses[0] == witnesses[1], (workload, factory.__name__)
        assert witnesses[0].capacities == effective_capacities(factory())


def test_rob_floor_sits_one_above_its_peak():
    """Rename checks the ROB before the RS, so a check can pass at the ROB's
    peak and the micro-op still stall on a full RS; a ROB of exactly the
    peak refuses first and records one RS allocation stall fewer."""
    trace = generate_trace(get_workload_spec("ispec_00"), num_instructions=1500)
    config = baseline_config()
    config = config.copy(sizes=dataclasses.replace(config.sizes, rs=8))
    core = OutOfOrderCore(config, [trace])
    reference = core.run().to_dict()
    peak = core.threads[0].rob_pool.peak_occupancy
    witness = core.capacity_witness()
    assert witness.floors[ROB] == peak + 1 < config.sizes.rob

    def at_rob(entries):
        sized = config.copy(sizes=dataclasses.replace(config.sizes, rob=entries))
        return effective_capacities(sized), simulate_trace(trace, sized).to_dict()

    capacities, result = at_rob(peak + 1)
    assert witness.covers(capacities) and result == reference
    capacities, result = at_rob(peak)
    assert not witness.covers(capacities) and result != reference
    assert (result["resource_stats"]["rs_allocation_stalls"]
            == reference["resource_stats"]["rs_allocation_stalls"] - 1)


def test_smt_pairs_have_no_witness(client_trace, server_trace):
    core = OutOfOrderCore(baseline_config(), [client_trace, server_trace])
    core.run()
    assert core.capacity_witness() is None


# -------------------------------------------------------- the orchestrator

WAVE = dict(per_suite=1, instructions=800, suites=("Client", "Server"))


def test_wave_simulates_only_what_no_witness_covers(simulation_counter):
    runner = ExperimentRunner(**WAVE)
    stats = SweepOrchestrator(runner).execute([plan_fig7(), plan_fig20()])
    assert stats.witnessed > 0
    assert simulation_counter["count"] == stats.unique - stats.witnessed
    assert "witnessed" not in stats.to_dict()

    direct = ExperimentRunner(**WAVE)
    for plan in (plan_fig7(), plan_fig20()):
        for name, config in plan.configs.items():
            for job in direct.plan_jobs(name, config):
                committed = runner.workloads()[job.workload].results[name]
                expected = direct._simulate_job(job).result
                assert committed.to_dict() == expected.to_dict(), job.label


# ------------------------------------------------------- failure semantics

def _payloads(text):
    decoder, position, payloads = json.JSONDecoder(), 0, []
    while True:
        start = len(text) - len(text[position:].lstrip())
        try:
            payload, position = decoder.raw_decode(text, start)
        except ValueError:
            return payloads
        payloads.append(payload)


def _fig7_fig20(cache_dir):
    return ["figures", "fig7", "fig20", "--json", "--workers", "1",
            "--cache-dir", str(cache_dir), "--suites", "Client,Server",
            "--per-suite", "1", "--instructions", str(WAVE["instructions"])]


def test_dead_lettered_representative_leaves_its_family_to_simulate(
        tmp_path, capsys, fail_job):
    """``2x_load_width`` (fig. 20's ``baseline_w6``) is a representative of
    client_00's baseline family.  Its failure dead-letters that job alone:
    the family's other members take another witness or simulate, and are
    journaled, so the rerun executes one job."""
    fail_job("2x_load_width", "client_00")
    assert main(_fig7_fig20(tmp_path / "failed")) == EXIT_DEAD_LETTER
    err = capsys.readouterr().err
    assert re.findall(r"^  (sim:\S+):", err, re.MULTILINE) == [
        "sim:2x_load_width/client_00"]

    fail_job.disarm()
    assert main(_fig7_fig20(tmp_path / "failed")) == 0
    resumed = capsys.readouterr().out
    assert re.search(r"^executed +\| 1 *$", resumed, re.MULTILINE)
    assert re.search(r"^done: 1 simulated", resumed, re.MULTILINE)

    assert main(_fig7_fig20(tmp_path / "clean")) == 0
    assert _payloads(resumed) == _payloads(capsys.readouterr().out)
