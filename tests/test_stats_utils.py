"""Tests for the shared statistics helpers."""

import math

import pytest

from repro.analysis.stats_utils import (
    box_whisker_summary,
    filtered_geomean,
    geomean,
)


def test_geomean_of_identical_values():
    assert abs(geomean([2.0, 2.0, 2.0]) - 2.0) < 1e-12


def test_geomean_matches_closed_form():
    values = [1.0, 2.0, 4.0]
    assert abs(geomean(values) - 2.0) < 1e-12


def test_geomean_empty_returns_one():
    assert geomean([]) == 1.0


def test_geomean_rejects_non_positive():
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_filtered_geomean_drops_non_positive_values():
    assert filtered_geomean([1.0, 2.0, 4.0]) == pytest.approx(2.0)
    assert filtered_geomean([0.0, -3.0, 2.0, 8.0]) == pytest.approx(4.0)


def test_filtered_geomean_default_when_nothing_positive():
    assert filtered_geomean([]) == 1.0
    assert filtered_geomean([0.0, -1.0]) == 1.0
    assert filtered_geomean([0.0], default=0.0) == 0.0


def test_box_whisker_summary_quartiles():
    summary = box_whisker_summary([1, 2, 3, 4, 5])
    assert summary["median"] == 3
    assert summary["q1"] == 2
    assert summary["q3"] == 4
    assert summary["min"] == 1 and summary["max"] == 5
    assert summary["mean"] == 3


def test_box_whisker_summary_empty():
    summary = box_whisker_summary([])
    assert summary["mean"] == 0.0
    assert summary["median"] == 0.0


def test_box_whisker_whiskers_clamp_to_observed_values():
    summary = box_whisker_summary([1, 1, 1, 1, 100])
    assert summary["whisker_high"] <= 100
    assert summary["whisker_low"] >= 1
    assert not math.isnan(summary["whisker_high"])
