"""Tests for the CACTI-like estimates and the event-based core power model."""

import pytest

from repro.power.cacti import TABLE3_ESTIMATES, constable_structure_estimates
from repro.power.power_model import CorePowerModel, EnergyTable


def test_table3_calibration_points_match_paper():
    assert TABLE3_ESTIMATES["sld"].read_energy_pj == pytest.approx(10.76)
    assert TABLE3_ESTIMATES["sld"].write_energy_pj == pytest.approx(16.70)
    assert TABLE3_ESTIMATES["rmt"].leakage_mw == pytest.approx(0.31)
    assert TABLE3_ESTIMATES["amt"].area_mm2 == pytest.approx(0.017)


def test_constable_structure_estimates_modes():
    calibrated = constable_structure_estimates()
    assert set(calibrated) == {"sld", "rmt", "amt"}
    assert calibrated["sld"].read_energy_pj == pytest.approx(10.76)
    assert calibrated == TABLE3_ESTIMATES
    assert calibrated is not TABLE3_ESTIMATES


def test_power_model_unit_breakdown_structure():
    model = CorePowerModel()
    counts = {"uops_fetched": 100, "uops_decoded": 100, "uops_renamed": 100,
              "rs_allocations": 80, "rs_issues": 80, "rob_allocations": 100,
              "retired": 100, "alu_ops": 50, "agu_ops": 30, "l1d_accesses": 30,
              "dtlb_accesses": 30, "store_commits": 10, "cycles": 60}
    breakdown = model.evaluate(counts)
    assert set(breakdown.units) == {"FE", "OOO", "EU", "MEU", "Others"}
    assert breakdown.total > 0
    assert breakdown.units["FE"] > 0 and breakdown.units["MEU"] > 0
    assert 0.0 < breakdown.units["OOO"] < breakdown.total


def test_power_model_fewer_events_means_less_energy():
    model = CorePowerModel()
    base = model.evaluate({"l1d_accesses": 100, "rs_allocations": 100, "cycles": 100})
    reduced = model.evaluate({"l1d_accesses": 70, "rs_allocations": 90, "cycles": 100})
    assert reduced.total < base.total
    assert (reduced.sub_units["L1D"] / base.sub_units["L1D"]
            == pytest.approx(0.7, abs=0.05))


def test_power_model_charges_constable_structures():
    model = CorePowerModel()
    without = model.evaluate({"uops_renamed": 100})
    with_constable = model.evaluate({"uops_renamed": 100, "sld_reads": 50,
                                     "rmt_accesses": 20, "amt_accesses": 20})
    assert with_constable.units["OOO"] > without.units["OOO"]
    assert with_constable.sub_units["RAT"] > without.sub_units["RAT"]


def test_power_model_ignores_unknown_keys():
    model = CorePowerModel()
    breakdown = model.evaluate({"unknown_event": 1000})
    assert breakdown.total == 0.0


def test_energy_table_is_customisable():
    table = EnergyTable(l1d_access=500.0)
    model = CorePowerModel(table)
    breakdown = model.evaluate({"l1d_accesses": 2})
    assert breakdown.sub_units["L1D"] == pytest.approx(1000.0)
