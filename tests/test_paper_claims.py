"""The paper's claims as one table, checked over one wave of every figure.

The paper argues through qualitative claims: Constable speeds the core up,
cuts RS allocations, L1-D accesses and core dynamic power, and composes with
EVES and prior work.  Each row of :data:`CLAIMS` is one assertion about one
figure's or table's payload, with the bound and slack it is held to.  The
absolute numbers are not the paper's (synthetic workloads, a simplified
core); the rows pin which way each comparison goes.

A module-scoped runner (two workers, one workload per suite, 5000
instructions) runs every :data:`FIGURE_HARNESSES` entry as one deduplicated
wave through :func:`orchestrate_figures`; figs. 23-24 and tables 1 and 3 run
through :data:`STANDALONE_HARNESSES` on the same runner.  Every row is its
own parametrised case, so a failing claim fails alone, by name, and prints
the values it compared::

    PYTHONPATH=src python -m pytest tests/test_paper_claims.py -q
    PYTHONPATH=src python -m pytest tests/test_paper_claims.py -q -k fig15

A row with a ``deviation`` records a paper direction this model does not
reproduce at the wave's budget, with the values it measured: it runs as a
strict ``xfail``, so a model change that makes it hold fails loudly, and that
change moves the row into the table proper.

The same wave checks that every counter reads something: a numeric leaf of
``SimulationResult.to_dict()`` that takes one value over every committed
result must be listed in :data:`CONSTANT_FIELDS` with its reason.  It also
pins every payload, ``text`` tables included, by one SHA-256 each in
``tests/golden/figure_payloads.json``; ``--refresh`` rewrites that file::

    PYTHONPATH=src python tests/test_paper_claims.py --refresh
"""

from __future__ import annotations

import hashlib
import json
import operator
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Tuple

import pytest

from repro.experiments.figures import (
    FIG20_DEPTH_SCALES,
    FIG20_LOAD_WIDTHS,
    FIGURE_HARNESSES,
    STANDALONE_HARNESSES,
    default_runner,
    orchestrate_figures,
    plan_fig14,
)
from repro.pipeline.stats import SimulationResult
from repro.workloads.suites import SUITE_NAMES

#: The wave's budget: one workload per suite, 5000-instruction traces.
WAVE_PER_SUITE = 1
WAVE_INSTRUCTIONS = 5000
WAVE_WORKERS = 2

#: One SHA-256 per payload of the wave, by figure or table name.
FIGURE_PAYLOADS_FIXTURE = Path(__file__).parent / "golden" / "figure_payloads.json"

Payload = Dict[str, Any]

#: The comparisons a claim's chain may use.
OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "in": lambda item, container: item in container,
}


class Claim(NamedTuple):
    """One assertion about one figure's payload.

    ``terms`` maps the payload to a chain ``(value, op, value, ...)`` read
    like a chained Python comparison: ``(0.0, "<", x, "<", 1.0)`` holds when
    ``0.0 < x < 1.0``.  A non-empty ``deviation`` says why the claim does not
    hold yet, with the measured values; the row then runs as a strict xfail.
    """

    figure: str
    statement: str
    terms: Callable[[Payload], Tuple[Any, ...]]
    deviation: str = ""

    @property
    def id(self) -> str:
        return f"{self.figure}: {self.statement}"


def _width_claim(width: int) -> Claim:
    return Claim("fig20", f"constable >= baseline - 0.01 at load width {width}",
                 lambda f: (f["load_width"][width]["constable"], ">=",
                            f["load_width"][width]["baseline"] - 0.01))


def _depth_claim(scale: float) -> Claim:
    return Claim("fig20", f"constable >= baseline - 0.01 at depth x{scale}",
                 lambda f: (f["pipeline_depth"][scale]["constable"], ">=",
                            f["pipeline_depth"][scale]["baseline"] - 0.01))


CLAIMS: List[Claim] = [
    # Fig. 3: global-stable loads are common but not universal, and the
    # Client and Server suites are richer in them than the SPEC suites.
    Claim("fig3", "0 < global-stable fraction < 1",
          lambda f: (0.0, "<", f["global_stable_fraction_avg"], "<", 1.0)),
    Claim("fig3", "Client global-stable fraction > FSPEC17's",
          lambda f: (f["global_stable_fraction_by_suite"]["Client"], ">",
                     f["global_stable_fraction_by_suite"]["FSPEC17"])),
    Claim("fig3", "Server global-stable fraction > ISPEC17's",
          lambda f: (f["global_stable_fraction_by_suite"]["Server"], ">",
                     f["global_stable_fraction_by_suite"]["ISPEC17"])),
    Claim("fig3", "one global-stable fraction per suite",
          lambda f: (sorted(f["global_stable_fraction_by_suite"]), "==",
                     sorted(SUITE_NAMES))),
    Claim("fig3", "the payload carries a text table",
          lambda f: ("text", "in", sorted(f))),
    # Fig. 6: load ports are busy in some cycles but not all.
    Claim("fig6", "0 < load-port-utilised cycle fraction < 1",
          lambda f: (0.0, "<", f["load_utilised_cycle_fraction"], "<", 1.0)),
    Claim("fig6", "0 <= stable-blocking fraction of utilised cycles <= 1",
          lambda f: (0.0, "<=", f["stable_blocking_fraction_of_utilised"],
                     "<=", 1.0)),
    # Fig. 7: ideal mechanisms never lose, and Ideal Constable at least
    # matches doubling the load width.
    Claim("fig7", "ideal_constable >= 1.0",
          lambda f: (f["geomean"]["ideal_constable"], ">=", 1.0)),
    Claim("fig7", "ideal_stable_lvp >= 1.0",
          lambda f: (f["geomean"]["ideal_stable_lvp"], ">=", 1.0)),
    Claim("fig7", "ideal_constable >= 2x_load_width - 0.01",
          lambda f: (f["geomean"]["ideal_constable"], ">=",
                     f["geomean"]["2x_load_width"] - 0.01)),
    Claim("fig7", "the four headroom configs",
          lambda f: (sorted(f["geomean"]), "==",
                     sorted({"ideal_stable_lvp", "ideal_stable_lvp_fetch_elim",
                             "2x_load_width", "ideal_constable"}))),
    Claim("fig7", "every headroom speedup > 0.9",
          lambda f: (min(f["geomean"].values()), ">", 0.9)),
    # Fig. 9: the SLD sees few updates per cycle (paper: ~0.28), and
    # wrong-path updates barely matter.
    Claim("fig9", "mean SLD updates per cycle < 2.0",
          lambda f: (f["sld_updates_per_cycle"]["mean"], "<", 2.0)),
    Claim("fig9", "|mean wrong-path performance delta| < 0.05",
          lambda f: (abs(f["wrong_path_performance_delta"]["mean"]), "<", 0.05)),
    # Fig. 11: both mechanisms help or are neutral, and EVES plus the ideal
    # Constable oracle gives the largest benefit.
    Claim("fig11", "constable >= 0.99",
          lambda f: (f["geomean"]["constable"], ">=", 0.99)),
    Claim("fig11", "eves >= 0.99",
          lambda f: (f["geomean"]["eves"], ">=", 0.99)),
    Claim("fig11", "eves+ideal_constable >= max(eves, constable) - 0.01",
          lambda f: (f["geomean"]["eves+ideal_constable"], ">=",
                     max(f["geomean"]["eves"], f["geomean"]["constable"]) - 0.01)),
    Claim("fig11", "eves+ideal_constable >= max(eves, constable)",
          lambda f: (f["geomean"]["eves+ideal_constable"], ">=",
                     max(f["geomean"]["eves"], f["geomean"]["constable"])),
          deviation="eves+ideal_constable 1.00864 < constable 1.00897"),
    Claim("fig11", "the four noSMT configs",
          lambda f: (sorted(f["geomean"]), "==",
                     sorted({"eves", "constable", "eves+constable",
                             "eves+ideal_constable"}))),
    # Fig. 12: neither mechanism has to win every workload (paper: 60/30).
    Claim("fig12", "total workloads == workloads plotted",
          lambda f: (f["total_workloads"], "==", len(f["eves"]))),
    Claim("fig12", "0 <= constable wins <= total workloads",
          lambda f: (0, "<=", f["constable_wins"], "<=", f["total_workloads"])),
    Claim("fig12", "total workloads == 5",
          lambda f: (f["total_workloads"], "==", 5)),
    Claim("fig12", "0 <= constable wins <= 5",
          lambda f: (0, "<=", f["constable_wins"], "<=", 5)),
    # Fig. 13: the full mechanism covers at least any single category.
    Claim("fig13", "all_loads >= best single category - 0.01",
          lambda f: (f["geomean_speedups"]["all_loads"], ">=",
                     max(f["geomean_speedups"]["pc_relative_only"],
                         f["geomean_speedups"]["stack_relative_only"],
                         f["geomean_speedups"]["register_relative_only"]) - 0.01)),
    Claim("fig13", "all_loads >= best single category",
          lambda f: (f["geomean_speedups"]["all_loads"], ">=",
                     max(f["geomean_speedups"]["pc_relative_only"],
                         f["geomean_speedups"]["stack_relative_only"],
                         f["geomean_speedups"]["register_relative_only"])),
          deviation="all_loads 1.00897 < stack_relative_only 1.00930"),
    Claim("fig13", "the four category configs",
          lambda f: (sorted(f["geomean_speedups"]), "==",
                     sorted({"pc_relative_only", "stack_relative_only",
                             "register_relative_only", "all_loads"}))),
    # Fig. 14: under SMT2, Constable frees shared load resources, so it
    # keeps up with value prediction (paper §9.1.2).
    Claim("fig14", "constable >= eves - 0.01",
          lambda f: (f["geomean_speedups"]["constable"], ">=",
                     f["geomean_speedups"]["eves"] - 0.01)),
    Claim("fig14", "eves+constable >= 0.99",
          lambda f: (f["geomean_speedups"]["eves+constable"], ">=", 0.99)),
    # Fig. 15: Constable is competitive with ELAR and RFP and composes with
    # both.
    Claim("fig15", "constable >= elar - 0.01",
          lambda f: (f["geomean_speedups"]["constable"], ">=",
                     f["geomean_speedups"]["elar"] - 0.01)),
    Claim("fig15", "elar+constable >= elar - 0.01",
          lambda f: (f["geomean_speedups"]["elar+constable"], ">=",
                     f["geomean_speedups"]["elar"] - 0.01)),
    Claim("fig15", "rfp+constable >= rfp - 0.02",
          lambda f: (f["geomean_speedups"]["rfp+constable"], ">=",
                     f["geomean_speedups"]["rfp"] - 0.02)),
    Claim("fig15", "rfp+constable >= rfp",
          lambda f: (f["geomean_speedups"]["rfp+constable"], ">=",
                     f["geomean_speedups"]["rfp"]),
          deviation="rfp+constable 0.95576 < rfp 0.95735"),
    # Fig. 16: each mechanism covers some loads but not all, and the
    # combination covers about as many as Constable alone.
    Claim("fig16", "0 < constable coverage < 1",
          lambda f: (0.0, "<", f["coverage"]["constable"], "<", 1.0)),
    Claim("fig16", "0 < eves coverage < 1",
          lambda f: (0.0, "<", f["coverage"]["eves"], "<", 1.0)),
    Claim("fig16", "eves+constable coverage >= constable's - 0.02",
          lambda f: (f["coverage"]["eves+constable"], ">=",
                     f["coverage"]["constable"] - 0.02)),
    Claim("fig16", "eves+constable coverage >= 0.9 x constable's",
          lambda f: (f["coverage"]["eves+constable"], ">=",
                     f["coverage"]["constable"] * 0.9)),
    # Fig. 17: Constable eliminates some global-stable loads at runtime.
    Claim("fig17", "0 < global-stable loads eliminated <= 1",
          lambda f: (0.0, "<", f["breakdown"]["global_stable_and_eliminated"],
                     "<=", 1.0)),
    Claim("fig17", "eliminated + not eliminated == 1",
          lambda f: (f["breakdown"]["global_stable_and_eliminated"]
                     + f["breakdown"]["global_stable_not_eliminated"], "==", 1.0)),
    Claim("fig17", "0 <= global-stable loads eliminated <= 1",
          lambda f: (0.0, "<=", f["breakdown"]["global_stable_and_eliminated"],
                     "<=", 1.0)),
    # Fig. 18: eliminating loads cuts RS allocations and L1-D accesses, and
    # L1-D accesses fall faster (non-load micro-ops still use the RS).
    Claim("fig18", "mean RS allocation reduction > 0",
          lambda f: (f["rs_allocation_reduction"]["mean"], ">", 0.0)),
    Claim("fig18", "mean L1-D access reduction > 0",
          lambda f: (f["l1d_access_reduction"]["mean"], ">", 0.0)),
    Claim("fig18", "mean L1-D access reduction >= RS allocation reduction - 0.02",
          lambda f: (f["l1d_access_reduction"]["mean"], ">=",
                     f["rs_allocation_reduction"]["mean"] - 0.02)),
    # Fig. 19: Constable cuts core dynamic power, value prediction alone
    # does not.
    Claim("fig19", "constable core power < 1.005",
          lambda f: (f["relative_core_power"]["constable"], "<", 1.005)),
    Claim("fig19", "constable core power < eves's + 0.005",
          lambda f: (f["relative_core_power"]["constable"], "<",
                     f["relative_core_power"]["eves"] + 0.005)),
    Claim("fig19", "constable RS power < 1.0",
          lambda f: (f["relative_rs_power"]["constable"], "<", 1.0)),
    Claim("fig19", "constable L1-D power < 1.0",
          lambda f: (f["relative_l1d_power"]["constable"], "<", 1.0)),
    Claim("fig19", "baseline core power == 1.0",
          lambda f: (f["relative_core_power"]["baseline"], "==", pytest.approx(1.0))),
    # Fig. 20: Constable keeps adding performance on top of naively scaled
    # baselines, at every grid point.
    *(_width_claim(width) for width in FIG20_LOAD_WIDTHS),
    *(_depth_claim(scale) for scale in FIG20_DEPTH_SCALES),
    # Fig. 21: ordering violations are rare thanks to the confidence
    # threshold (paper: 0.09%), and re-execution costs little.
    Claim("fig21", "mean violation fraction < 0.02",
          lambda f: (f["violation_fraction"]["mean"], "<", 0.02)),
    Claim("fig21", "mean ROB allocation increase < 0.05",
          lambda f: (f["rob_allocation_increase"]["mean"], "<", 0.05)),
    Claim("fig21", "mean violation fraction < 0.05",
          lambda f: (f["violation_fraction"]["mean"], "<", 0.05)),
    # Fig. 22: invalidating the AMT on every L1-D eviction can only lose
    # elimination opportunities.
    Claim("fig22", "constable_amt_i coverage <= constable's + 0.02",
          lambda f: (f["coverage"]["constable_amt_i"], "<=",
                     f["coverage"]["constable"] + 0.02)),
    Claim("fig22", "constable speedup >= constable_amt_i's - 0.02",
          lambda f: (f["speedup"]["constable"], ">=",
                     f["speedup"]["constable_amt_i"] - 0.02)),
    Claim("fig22", "the two AMT variants",
          lambda f: (sorted(f["speedup"]), "==", ["constable", "constable_amt_i"])),
    # Figs. 23-24: more architectural registers remove some loads, mostly
    # stack-relative ones, but the global-stable opportunity stays (paper
    # appendix B).
    Claim("fig23", "APX removes a non-negative share of dynamic loads",
          lambda f: (f["dynamic_load_reduction_with_apx"], ">=", 0.0)),
    Claim("fig23", "32-register stack share <= 16-register's + 0.02",
          lambda f: (f["addressing_mode_breakdown"]["32_registers"].get("stack", 0.0),
                     "<=",
                     f["addressing_mode_breakdown"]["16_registers"].get("stack", 0.0)
                     + 0.02)),
    Claim("fig23", "|global-stable fraction change| < 0.25",
          lambda f: (abs(f["global_stable_fraction"]["32_registers"]
                         - f["global_stable_fraction"]["16_registers"]), "<", 0.25)),
    # Table 1: 12.4 KB of storage per core.
    Claim("table1", "|SLD KB - 7.9| < 0.2",
          lambda f: (abs(f["storage_kb"]["sld"] - 7.9), "<", 0.2)),
    Claim("table1", "|AMT KB - 4.0| < 0.2",
          lambda f: (abs(f["storage_kb"]["amt"] - 4.0), "<", 0.2)),
    Claim("table1", "|total KB - 12.4| < 0.4",
          lambda f: (abs(f["storage_kb"]["total"] - 12.4), "<", 0.4)),
    Claim("table1", "total KB == 12.4 +- 0.3",
          lambda f: (f["storage_kb"]["total"], "==", pytest.approx(12.4, abs=0.3))),
    # Table 3: the SLD is the costliest structure to read.
    Claim("table3", "SLD read energy > AMT's",
          lambda f: (f["estimates"]["sld"]["read_energy_pj"], ">",
                     f["estimates"]["amt"]["read_energy_pj"])),
    Claim("table3", "AMT read energy > RMT's",
          lambda f: (f["estimates"]["amt"]["read_energy_pj"], ">",
                     f["estimates"]["rmt"]["read_energy_pj"])),
    Claim("table3", "|SLD read pJ - 10.76| < 0.01",
          lambda f: (abs(f["estimates"]["sld"]["read_energy_pj"] - 10.76), "<", 0.01)),
    Claim("table3", "the three structures",
          lambda f: (sorted(f["estimates"]), "==", ["amt", "rmt", "sld"])),
]

#: Numeric leaves of ``SimulationResult.to_dict()`` that take one value over
#: every committed result of the wave, each with the reason it does.  A new
#: constant leaf fails, and so does a listed leaf that starts to vary, so the
#: list can only shrink.
CONSTANT_FIELDS: Dict[str, str] = {
    "constable_stats.ordering_violations": "unexplained, ROADMAP item 3",
    "constable_stats.resets_by_l1_eviction":
        "only the fig. 22 AMT-I variant resets on an L1-D eviction, and its "
        "single-thread runs evict no L1-D line at 5000 instructions",
    "memory_stats.l2.evictions":
        "no 16-way L2 set overflows: at most 835 lines enter the 32,768-line "
        "L2 in any run",
    "memory_stats.llc.evictions":
        "no 12-way LLC set overflows: at most 267 lines enter the 3 MB LLC "
        "in any run",
    "memory_stats.llc.hits":
        "the LLC only holds lines the L2 also holds until the L2 evicts them, "
        "and the L2 evicts none",
    "memory_stats.llc.prefetch_fills":
        "no prefetcher fills the LLC: MemoryHierarchy._run_prefetchers fills "
        "the L1-D and the L2 only",
    "memory_stats.service_levels.LLC":
        "counts demand loads the LLC serves, and it serves none "
        "(memory_stats.llc.hits)",
    "power_events.div_ops": "no workload kernel calls ProgramBuilder.div",
    "stats.div_ops": "no workload kernel calls ProgramBuilder.div",
    "resource_stats.rs_allocation_stalls":
        "no run fills the RS: peak occupancy is 99 of at least 248 entries",
    "stats.lvp_misprediction_flushes":
        "every EVES prediction of the wave verifies (13,881 of 13,881)",
    "stats.mrn_misprediction_flushes":
        "every memory-renaming prediction of the wave verifies "
        "(10,019 of 10,019)",
}


class Wave(NamedTuple):
    """Every figure payload by name, and every result the wave committed."""

    figures: Dict[str, Payload]
    results: List[SimulationResult]


def run_wave() -> Wave:
    """Every figure harness, fig. 23 and tables 1 and 3 over one runner."""
    with default_runner(per_suite=WAVE_PER_SUITE, instructions=WAVE_INSTRUCTIONS,
                        workers=WAVE_WORKERS) as runner:
        figures, _ = orchestrate_figures(runner, list(FIGURE_HARNESSES))
        for name in ("fig23", "table1", "table3"):
            figures[name] = STANDALONE_HARNESSES[name](runner)
        results = [result for run in runner.workloads().values()
                   for result in run.results.values()]
        results += [result for name in plan_fig14().smt_configs
                    for result in runner.smt_results(name).values()]
    return Wave(figures, results)


@pytest.fixture(scope="module")
def wave() -> Wave:
    return run_wave()


def payload_digests(figures: Dict[str, Payload]) -> Dict[str, str]:
    """The SHA-256 of each payload's sorted-key JSON, ``text`` kept."""
    return {name: hashlib.sha256(json.dumps(payload, sort_keys=True, default=str)
                                 .encode("utf-8")).hexdigest()
            for name, payload in sorted(figures.items())}


def _case(claim: Claim):
    marks = ([pytest.mark.xfail(strict=True, reason=claim.deviation)]
             if claim.deviation else [])
    return pytest.param(claim, marks=marks, id=claim.id)


@pytest.mark.parametrize("claim", [_case(claim) for claim in CLAIMS])
def test_claim(wave, claim):
    terms = claim.terms(wave.figures[claim.figure])
    holds = all(OPS[op](left, right) for left, op, right
                in zip(terms[0::2], terms[1::2], terms[2::2]))
    observed = " ".join(term if index % 2 else repr(term)
                        for index, term in enumerate(terms))
    assert holds, f"{claim.id} does not hold: {observed}"


def test_claim_ids_are_unique():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))


def _numeric_leaves(data: Payload, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """``(dotted path, value)`` for every int or float leaf of ``data``."""
    for key, value in data.items():
        if isinstance(value, dict):
            yield from _numeric_leaves(value, f"{prefix}{key}.")
        elif isinstance(value, (int, float)):
            yield f"{prefix}{key}", value


def test_every_counter_reads_something(wave):
    seen = defaultdict(set)
    for result in wave.results:
        data = result.to_dict()
        del data["per_thread"]
        del data["stats"]["sld_update_cycles_histogram"]
        for path, value in _numeric_leaves(data):
            seen[path].add(value)
    constant = {path for path, values in seen.items() if len(values) < 2}
    unlisted = sorted(constant - set(CONSTANT_FIELDS))
    assert not unlisted, f"constant over the wave, not in CONSTANT_FIELDS: {unlisted}"
    varying = sorted(set(CONSTANT_FIELDS) - constant)
    assert not varying, f"in CONSTANT_FIELDS but not constant: {varying}"


def test_figure_payloads_reproduce(wave):
    """Every payload of the wave equals its committed digest.

    The result digests pin each ``SimulationResult``; these pin what the
    harnesses compute from them: sums, orderings and the ``text`` tables.
    When a deliberate change moves a payload, regenerate the fixture with
    ``PYTHONPATH=src python tests/test_paper_claims.py --refresh`` and name
    that change in the commit.
    """
    expected = json.loads(FIGURE_PAYLOADS_FIXTURE.read_text(encoding="utf-8"))
    actual = payload_digests(wave.figures)
    moved = sorted(name for name in set(expected) | set(actual)
                   if expected.get(name) != actual.get(name))
    assert not moved, f"figure payloads moved: {moved}"


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--refresh", action="store_true",
                        help="rewrite tests/golden/figure_payloads.json")
    if not parser.parse_args().refresh:
        parser.error("nothing to do; pass --refresh to rewrite the fixture")
    digests = payload_digests(run_wave().figures)
    FIGURE_PAYLOADS_FIXTURE.write_text(json.dumps(digests, indent=2, sort_keys=True)
                                       + "\n", encoding="utf-8")
    print(f"wrote {FIGURE_PAYLOADS_FIXTURE}")
