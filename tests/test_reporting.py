"""Coverage for the plain-text reporting helpers (``experiments/reporting.py``).

Pins the summary-table formatting the figure harnesses and the CLI embed in
their output, plus the dedup-stats rendering the orchestrator surfaces.
"""

from __future__ import annotations

import pytest

from repro.experiments.orchestrator import DedupStats
from repro.experiments.reporting import (
    format_dedup_stats,
    format_percent,
    format_speedup,
    format_table,
    per_suite_table,
)


# ---------------------------------------------------------------- primitives

@pytest.mark.parametrize("value, digits, expected", [
    (0.051, 1, "5.1%"),
    (0.0, 1, "0.0%"),
    (1.0, 0, "100%"),
    (0.12345, 3, "12.345%"),
])
def test_format_percent(value, digits, expected):
    assert format_percent(value, digits=digits) == expected


@pytest.mark.parametrize("value, digits, expected", [
    (1.051, 3, "1.051x"),
    (2.0, 1, "2.0x"),
    (0.994, 3, "0.994x"),
])
def test_format_speedup(value, digits, expected):
    assert format_speedup(value, digits=digits) == expected


# -------------------------------------------------------------------- tables

def test_format_table_pads_columns_and_draws_rule():
    text = format_table(["name", "value"], [("a", 1), ("longer", 22)],
                        title="t")
    lines = text.splitlines()
    assert lines[0] == "t"
    assert lines[1] == "name   | value"
    assert lines[2] == "-------+------"
    assert lines[3] == "a      | 1    "
    assert lines[4] == "longer | 22   "
    # All body lines align to identical width.
    assert len({len(line) for line in lines[1:]}) == 1


def test_format_table_without_title_has_no_title_line():
    text = format_table(["h"], [("x",)])
    assert text.splitlines()[0] == "h"


def test_format_table_stringifies_arbitrary_cells():
    text = format_table(["k", "v"], [("pi", 3.14159), ("none", None)])
    assert "3.14159" in text and "None" in text


def test_per_suite_table_uses_figure_layout_and_dashes_missing_cells():
    per_suite = {
        "Client": {"eves": 1.1, "constable": 1.2},
        "Server": {"eves": 1.05},
    }
    text = per_suite_table(per_suite, title="fig")
    lines = text.splitlines()
    assert lines[1].split("|")[0].strip() == "config"
    assert "Client" in lines[1] and "Server" in lines[1]
    constable_row = next(line for line in lines if line.startswith("constable"))
    assert "1.200x" in constable_row
    assert constable_row.rstrip().endswith("-"), "missing cell renders as dash"


# --------------------------------------------------------------- dedup stats

def _stats() -> DedupStats:
    return DedupStats(figures=["fig11", "fig13"], planned=20, unique=16,
                      cache_warm=5, executed=11)


def test_format_dedup_stats_from_dataclass():
    text = format_dedup_stats(_stats())
    lines = text.splitlines()
    assert lines[0] == "orchestrated wave"
    rendered = {line.split("|")[0].strip(): line.split("|")[1].strip()
                for line in lines[3:]}
    assert rendered == {
        "figures": "2",
        "jobs planned": "20",
        "unique after dedup": "16",
        "shared across figures": "4",
        "cache-warm": "5",
        "executed": "11",
    }


def test_format_dedup_stats_custom_title():
    assert format_dedup_stats(_stats(), title="wave").splitlines()[0] == "wave"


# ------------------------------------------------------ persisted dedup block

def test_format_persisted_dedup_renders_rates():
    from repro.experiments.reporting import format_persisted_dedup

    text = format_persisted_dedup({"waves": 3, "planned": 20, "unique": 14,
                                   "deduped": 6, "cache_warm": 7,
                                   "executed": 7})
    lines = text.splitlines()
    assert lines[0] == "orchestrated waves (all processes)"
    rendered = {line.split("|")[0].strip(): line.split("|")[1].strip()
                for line in lines[3:]}
    assert rendered == {
        "waves": "3",
        "jobs planned": "20",
        "unique after dedup": "14",
        "dedup rate": "30.0%",
        "cache-warm": "7",
        "cache-warm rate": "50.0%",
        "executed": "7",
    }


def test_format_persisted_dedup_handles_zero_denominators():
    from repro.experiments.reporting import format_persisted_dedup

    text = format_persisted_dedup({"waves": 0, "planned": 0, "unique": 0,
                                   "cache_warm": 0, "executed": 0})
    assert text.count("n/a") == 2, "both rates degrade to n/a, never divide"
    # `deduped` is derived when the ledger block predates the computed key.
    derived = format_persisted_dedup({"waves": 1, "planned": 5, "unique": 4,
                                      "cache_warm": 2, "executed": 2})
    assert any("dedup rate" in line and "20.0%" in line
               for line in derived.splitlines())
