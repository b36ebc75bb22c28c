"""Tests for caches, prefetchers, DRAM, TLB, the hierarchy and the directory."""

import pytest

from repro.memory.cache import CacheConfig, SetAssociativeCache
from repro.memory.coherence import Directory
from repro.memory.dram import DramConfig, DramModel
from repro.memory.hierarchy import MemoryHierarchy, MemoryHierarchyConfig
from repro.memory.prefetcher import StridePrefetcher, StreamPrefetcher
from repro.memory.tlb import Tlb, TlbConfig


# ------------------------------------------------------------------------ cache

def test_cache_config_rejects_bad_geometry():
    with pytest.raises(ValueError):
        CacheConfig("bad", size_bytes=1000, ways=3, line_size=64)
    with pytest.raises(ValueError):
        CacheConfig("bad", size_bytes=0, ways=1)


def test_cache_miss_then_hit_after_fill():
    cache = SetAssociativeCache(CacheConfig("L1", 4096, 4))
    assert cache.access(0x1000) is False
    cache.fill(0x1000)
    assert cache.access(0x1000) is True
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_cache_lru_eviction_order():
    cache = SetAssociativeCache(CacheConfig("L1", 2 * 64, 2, line_size=64))
    # Two ways per set; three lines mapping to the same set.
    lines = [0x0, 0x80, 0x100]
    cache.fill(lines[0])
    cache.fill(lines[1])
    evicted = cache.fill(lines[2])
    assert evicted == lines[0]
    assert cache.probe(lines[1]) and cache.probe(lines[2])
    assert not cache.probe(lines[0])


def test_cache_invalidate():
    cache = SetAssociativeCache(CacheConfig("L1", 4096, 4))
    cache.fill(0x2000)
    assert cache.invalidate(0x2000) is True
    assert cache.invalidate(0x2000) is False
    assert cache.probe(0x2000) is False


def test_cache_line_address_alignment():
    cache = SetAssociativeCache(CacheConfig("L1", 4096, 4, line_size=64))
    assert cache.line_address(0x1234) == 0x1200


# ------------------------------------------------------------------- prefetcher

def test_stride_prefetcher_learns_constant_stride():
    prefetcher = StridePrefetcher(degree=2, confidence_threshold=2)
    pc = 0x400
    prefetches = []
    for i in range(6):
        prefetches = prefetcher.observe(pc, 0x1000 + i * 64)
    assert prefetches, "a stable stride should eventually produce prefetches"
    assert all(p % 64 == 0 for p in prefetches)


def test_stride_prefetcher_ignores_random_pattern():
    prefetcher = StridePrefetcher(degree=2, confidence_threshold=3)
    addresses = [0x1000, 0x5780, 0x2310, 0x9990, 0x4440]
    results = [prefetcher.observe(0x400, a) for a in addresses]
    assert all(not r for r in results)


def test_stream_prefetcher_next_lines():
    prefetcher = StreamPrefetcher(degree=2)
    prefetcher.observe(0, 0x1000)
    prefetches = prefetcher.observe(0, 0x1040)
    assert 0x1080 in prefetches and 0x10C0 in prefetches


# ------------------------------------------------------------------------- DRAM

def test_dram_row_hit_is_cheaper_than_row_miss():
    dram = DramModel(DramConfig())
    first = dram.access_latency(0x10000)
    second = dram.access_latency(0x10040)     # same row
    far = dram.access_latency(0x10000 + 64 * 2048 * 16)
    assert second < first
    assert far > second
    assert dram.accesses() == 3


# -------------------------------------------------------------------------- TLB

def test_tlb_hit_and_miss_penalties():
    tlb = Tlb(TlbConfig(entries=4, ways=2, miss_penalty=20))
    assert tlb.translate(0x1000) == 20
    assert tlb.translate(0x1008) == 0
    assert tlb.hit_rate() == 0.5


def test_tlb_config_validation():
    with pytest.raises(ValueError):
        TlbConfig(entries=5, ways=2)


# -------------------------------------------------------------------- hierarchy

def test_hierarchy_repeated_access_hits_l1():
    hierarchy = MemoryHierarchy()
    first_latency, first_level = hierarchy.load_access(0x100000, pc=0x400)
    second_latency, second_level = hierarchy.load_access(0x100000, pc=0x400)
    assert first_level in ("L2", "LLC", "DRAM")
    assert second_level == "L1D"
    assert second_latency < first_latency


def test_hierarchy_counts_l1_accesses_for_loads_and_stores():
    hierarchy = MemoryHierarchy()
    hierarchy.load_access(0x5000)
    hierarchy.store_access(0x6000)
    assert hierarchy.l1d_accesses() == 2


def test_hierarchy_eviction_listener_fires():
    small_l1 = CacheConfig("L1D", 2 * 64, 2, line_size=64, latency=5)
    config = MemoryHierarchyConfig(l1d=small_l1, enable_prefetchers=False)
    hierarchy = MemoryHierarchy(config)
    evicted = []
    hierarchy.l1_eviction_listeners.append(evicted.append)
    for i in range(8):
        hierarchy.load_access(i * 0x80)
    assert evicted, "filling past capacity must evict"


def test_hierarchy_invalidate_line_forces_miss():
    hierarchy = MemoryHierarchy()
    hierarchy.load_access(0x9000)
    hierarchy.invalidate_line(0x9000)
    _, level = hierarchy.load_access(0x9000)
    assert level != "L1D" or hierarchy.l1d.stats.misses >= 1


def test_hierarchy_stats_summary_keys():
    hierarchy = MemoryHierarchy()
    hierarchy.load_access(0x1234)
    summary = hierarchy.stats_summary()
    for key in ("l1d", "l2", "llc", "dram_accesses", "dtlb_accesses", "service_levels"):
        assert key in summary


# -------------------------------------------------------------------- directory

def test_directory_snoop_requires_cv_bit():
    directory = Directory(num_cores=2)
    assert directory.snoop_reaches_core(0x1000, core=0) is False
    directory.record_fill(0x1000, core=0)
    assert directory.snoop_reaches_core(0x1000, core=0) is True
    # The snoop delivery cleared the CV bit.
    assert directory.snoop_reaches_core(0x1000, core=0) is False


def test_directory_eviction_clears_cv_bit_unless_pinned():
    directory = Directory()
    directory.record_fill(0x2000, core=0)
    directory.record_eviction(0x2000, core=0)
    assert directory.snoop_reaches_core(0x2000, core=0) is False

    directory.record_fill(0x3000, core=0)
    directory.pin(0x3000, core=0)
    directory.record_eviction(0x3000, core=0)
    assert directory.has_cv_bit(0x3000, core=0)
    assert directory.snoop_reaches_core(0x3000, core=0) is True


def test_directory_pin_and_unpin():
    directory = Directory()
    directory.pin(0x4000, core=1)
    assert directory.is_pinned(0x4000, core=1)
    directory.unpin(0x4000, core=1)
    assert not directory.is_pinned(0x4000, core=1)


def test_directory_line_granularity():
    directory = Directory(line_size=64)
    directory.record_fill(0x5000, core=0)
    # Another byte in the same cache line shares the directory entry.
    assert directory.snoop_reaches_core(0x5020, core=0) is True
