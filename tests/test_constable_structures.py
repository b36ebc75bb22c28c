"""Unit tests for Constable's hardware structures: SLD, RMT, AMT, xPRF, storage."""

import pytest

from repro.core.amt import AddressMonitorTable
from repro.core.config import ConstableConfig
from repro.core.rmt import RegisterMonitorTable
from repro.core.sld import StableLoadDetector
from repro.core.storage import storage_overhead_report
from repro.core.xprf import ExtraRegisterFile
from repro.isa.registers import RBP, RSP


# ---------------------------------------------------------------------- config

def test_config_defaults_match_table1_geometry():
    config = ConstableConfig()
    assert config.sld_entries == 512
    assert config.amt_entries == 256
    assert config.confidence_threshold == 30
    assert config.confidence_max == 31
    assert config.xprf_entries == 32


def test_config_rejects_threshold_wider_than_counter():
    with pytest.raises(ValueError):
        ConstableConfig(confidence_bits=4, confidence_threshold=30)


# ------------------------------------------------------------------------- SLD

def test_sld_confidence_increments_on_repeat():
    sld = StableLoadDetector(ConstableConfig(confidence_threshold=3))
    for _ in range(5):
        entry = sld.record_execution(0x100, 0x8000, 42)
    assert entry.confidence == 4  # first execution initialises, next four increment


def test_sld_confidence_halves_on_change():
    sld = StableLoadDetector(ConstableConfig(confidence_threshold=3))
    for _ in range(9):
        sld.record_execution(0x100, 0x8000, 42)
    entry = sld.record_execution(0x100, 0x8000, 43)
    assert entry.confidence == 4  # halved from 8


def test_sld_confidence_saturates_at_counter_max():
    config = ConstableConfig(confidence_threshold=8)
    sld = StableLoadDetector(config)
    for _ in range(100):
        entry = sld.record_execution(0x100, 0x8000, 1)
    assert entry.confidence == config.confidence_max


def test_sld_reset_and_punish():
    sld = StableLoadDetector(ConstableConfig(confidence_threshold=2))
    for _ in range(5):
        entry = sld.record_execution(0x100, 0x8000, 1)
    entry.can_eliminate = True
    assert sld.reset_elimination(0x100) is True
    assert sld.reset_elimination(0x100) is False
    entry.can_eliminate = True
    before = entry.confidence
    sld.punish(0x100)
    assert entry.can_eliminate is False
    assert entry.confidence == before // 2


def test_sld_set_associative_eviction():
    config = ConstableConfig(sld_sets=1, sld_ways=2, confidence_threshold=3)
    sld = StableLoadDetector(config)
    sld.lookup_or_allocate(0x100)
    sld.lookup_or_allocate(0x200)
    sld.lookup_or_allocate(0x300)     # evicts 0x100 (LRU)
    assert sld.lookup(0x100) is None
    assert sld.lookup(0x200) is not None
    assert sld.evictions == 1


# ------------------------------------------------------------------------- RMT

def test_rmt_capacity_differs_for_stack_registers():
    rmt = RegisterMonitorTable(ConstableConfig())
    assert rmt.capacity(RSP) == 16
    assert rmt.capacity(RBP) == 16
    assert rmt.capacity(0) == 8


def test_rmt_insert_and_consume():
    rmt = RegisterMonitorTable(ConstableConfig())
    rmt.insert(3, 0x100)
    rmt.insert(3, 0x200)
    pcs = rmt.consume(3)
    assert set(pcs) == {0x100, 0x200}
    assert rmt.consume(3) == []


def test_rmt_capacity_eviction_returns_displaced_pc():
    config = ConstableConfig(rmt_other_capacity=2)
    rmt = RegisterMonitorTable(config)
    assert rmt.insert(0, 0x100) == []
    assert rmt.insert(0, 0x200) == []
    displaced = rmt.insert(0, 0x300)
    assert displaced == [0x100]


def test_rmt_duplicate_insert_is_idempotent():
    rmt = RegisterMonitorTable(ConstableConfig())
    rmt.insert(1, 0x100)
    rmt.insert(1, 0x100)
    assert rmt.consume(1) == [0x100]


def test_rmt_remove_pc_everywhere():
    rmt = RegisterMonitorTable(ConstableConfig())
    rmt.insert(1, 0x100)
    rmt.insert(2, 0x100)
    rmt.remove_pc(0x100)
    assert rmt.consume(1) == [] and rmt.consume(2) == []


# ------------------------------------------------------------------------- AMT

def test_amt_tracks_cacheline_granularity():
    amt = AddressMonitorTable(ConstableConfig())
    amt.insert(0x8004, 0x100)
    # A store anywhere in the same 64-byte line finds the entry.
    assert amt.lookup(0x8030) == [0x100]
    assert amt.consume(0x803F) == [0x100]
    assert amt.lookup(0x8004) == []


def test_amt_per_entry_pc_capacity():
    config = ConstableConfig(amt_pcs_per_entry=2)
    amt = AddressMonitorTable(config)
    assert amt.insert(0x8000, 0x100) == []
    assert amt.insert(0x8000, 0x200) == []
    displaced = amt.insert(0x8000, 0x300)
    assert displaced == [0x100]


def test_amt_set_eviction_returns_all_pcs():
    config = ConstableConfig(amt_sets=1, amt_ways=1)
    amt = AddressMonitorTable(config)
    amt.insert(0x8000, 0x100)
    displaced = amt.insert(0x10000, 0x200)
    assert displaced == [0x100]
    assert amt.tracked_lines() == 1


# ------------------------------------------------------------------------ xPRF

def test_xprf_allocation_until_full():
    xprf = ExtraRegisterFile(ConstableConfig(xprf_entries=2))
    assert xprf.try_allocate() and xprf.try_allocate()
    assert xprf.try_allocate() is False
    assert xprf.allocation_failures == 1
    xprf.release()
    assert xprf.try_allocate() is True
    assert (xprf.total_allocations, xprf.allocation_failures) == (3, 1)


def test_xprf_release_without_allocation_raises():
    xprf = ExtraRegisterFile()
    with pytest.raises(ValueError):
        xprf.release()


# ---------------------------------------------------------------------- storage

def test_storage_overhead_matches_table1():
    report = storage_overhead_report(ConstableConfig())
    assert report["sld"] == pytest.approx(7.875, abs=0.1)
    assert report["amt"] == pytest.approx(4.0, abs=0.1)
    assert report["rmt"] == pytest.approx(0.42, abs=0.1)
    assert report["total"] == pytest.approx(12.4, abs=0.3)


def test_storage_overhead_scales_with_geometry():
    small = storage_overhead_report(ConstableConfig(sld_sets=16, sld_ways=16))
    large = storage_overhead_report(ConstableConfig(sld_sets=64, sld_ways=16))
    assert small["sld"] < large["sld"]
