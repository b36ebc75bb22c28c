"""Property-based tests (hypothesis) for core data structures and invariants."""

import dataclasses
import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.load_inspector import GlobalStableReport, LoadSiteStats
from repro.analysis.stats_utils import box_whisker_summary, geomean
from repro.core.amt import AddressMonitorTable
from repro.core.config import ConstableConfig
from repro.core.sld import StableLoadDetector
from repro.experiments.cache import ResultCache
from repro.frontend.branch_predictor import TageConfig, TagePredictor, _fold
from repro.isa.instruction import MemOperand, AddressingMode
from repro.isa.registers import STACK_REGISTERS
from repro.memory.cache import CacheConfig, SetAssociativeCache
from repro.pipeline.stats import PipelineStats, SimulationResult
from repro.workloads.suites import WorkloadSpec
from repro.workloads.vm import SparseMemory

_addresses = st.integers(min_value=0, max_value=(1 << 44) - 1)
_values = st.integers(min_value=0, max_value=(1 << 64) - 1)
_pcs = st.integers(min_value=0x1000, max_value=0xFFFFFF)


@given(st.lists(st.tuples(_addresses, _values), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_sparse_memory_reads_back_last_write(writes):
    memory = SparseMemory()
    shadow = {}
    for address, value in writes:
        memory.write(address, value)
        shadow[address & ~0x7] = value
    for word, value in shadow.items():
        assert memory.read(word) == value


class _ListOfListsLru:
    """Reference LRU cache: one list per set, most recently used last."""

    def __init__(self, num_sets, ways, line_size):
        self.sets = [[] for _ in range(num_sets)]
        self.ways = ways
        self.line_size = line_size

    def _locate(self, address):
        line = address - address % self.line_size
        return line, self.sets[(line // self.line_size) % len(self.sets)]

    def probe(self, address):
        line, lines = self._locate(address)
        return line in lines

    def access(self, address):
        line, lines = self._locate(address)
        if line not in lines:
            return False
        lines.remove(line)
        lines.append(line)
        return True

    def fill(self, address):
        line, lines = self._locate(address)
        if line in lines:
            lines.remove(line)
            lines.append(line)
            return None
        evicted = lines.pop(0) if len(lines) >= self.ways else None
        lines.append(line)
        return evicted

    def resident_lines(self):
        return sum(len(lines) for lines in self.sets)


# Small addresses span 24 lines over 4 sets of 4 ways, so hits, LRU updates
# and evictions all occur; the full range covers sparse, mostly-cold sets.
_cache_addresses = st.one_of(_addresses, st.integers(min_value=0, max_value=24 * 64 - 1))


@given(st.lists(_cache_addresses, min_size=1, max_size=200))
# Fills set 0, hits its oldest line, then misses into it three times: each
# eviction must take the least recently used line.
@example([0, 256, 512, 768, 0, 1024, 256, 1280, 8, 1 << 40])
@settings(max_examples=50, deadline=None)
def test_cache_occupancy_never_exceeds_capacity(addresses):
    cache = SetAssociativeCache(CacheConfig("L1", 16 * 64, 4, line_size=64))
    reference = _ListOfListsLru(num_sets=4, ways=4, line_size=64)
    for address in addresses:
        assert cache.probe(address) == reference.probe(address)
        hit = cache.access(address)
        assert hit == reference.access(address)
        if not hit:
            assert cache.fill(address) == reference.fill(address)
        assert cache.resident_lines() == reference.resident_lines()
    assert cache.resident_lines() <= 16
    assert cache.stats.hits + cache.stats.misses == len(addresses)


@given(st.lists(st.tuples(_pcs, _addresses, _values), min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_sld_confidence_is_always_within_counter_range(executions):
    config = ConstableConfig(confidence_threshold=8)
    sld = StableLoadDetector(config)
    for pc, address, value in executions:
        entry = sld.record_execution(pc, address, value)
        assert 0 <= entry.confidence <= config.confidence_max
    assert sld.tracked_loads() <= config.sld_entries


@given(st.lists(st.tuples(_addresses, _pcs), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_amt_capacity_invariants(insertions):
    config = ConstableConfig(confidence_threshold=8)
    amt = AddressMonitorTable(config)
    for address, pc in insertions:
        amt.insert(address, pc)
        assert amt.tracked_lines() <= config.amt_entries
    for address, _ in insertions:
        assert len(amt.lookup(address)) <= config.amt_pcs_per_entry


@given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_geomean_is_bounded_by_min_and_max(values):
    result = geomean(values)
    assert min(values) - 1e-9 <= result <= max(values) + 1e-9


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_box_whisker_summary_ordering(values):
    summary = box_whisker_summary(values)
    tolerance = 1e-9 + 1e-9 * max(abs(v) for v in values)
    assert summary["min"] <= summary["q1"] <= summary["median"] <= summary["q3"] <= summary["max"]
    assert summary["min"] - tolerance <= summary["mean"] <= summary["max"] + tolerance


@given(base=st.one_of(st.none(), st.integers(min_value=0, max_value=15)),
       index=st.one_of(st.none(), st.integers(min_value=0, max_value=15)),
       scale=st.sampled_from([1, 2, 4, 8]),
       disp=st.integers(min_value=-4096, max_value=1 << 30))
@settings(max_examples=200, deadline=None)
def test_addressing_mode_classification_is_total_and_consistent(base, index, scale, disp):
    operand = MemOperand(base=base, index=index, scale=scale, disp=disp)
    mode = operand.addressing_mode()
    registers = operand.address_registers()
    if not registers:
        assert mode is AddressingMode.PC_RELATIVE
    elif all(r in STACK_REGISTERS for r in registers):
        assert mode is AddressingMode.STACK_RELATIVE
    else:
        assert mode is AddressingMode.REG_RELATIVE


# ------------------------------------------------- serialization round-trips

_counters = st.integers(min_value=0, max_value=1 << 40)


def _json_round_trip(data):
    return json.loads(json.dumps(data))


@st.composite
def pipeline_stats_strategy(draw):
    counter_fields = [f.name for f in dataclasses.fields(PipelineStats)
                      if f.name != "sld_update_cycles_histogram"]
    values = {name: draw(_counters) for name in counter_fields}
    histogram = draw(st.dictionaries(st.integers(min_value=0, max_value=64),
                                     st.integers(min_value=1, max_value=1 << 20),
                                     max_size=8))
    stats = PipelineStats(**values)
    stats.sld_update_cycles_histogram = histogram
    return stats


@given(pipeline_stats_strategy())
@settings(max_examples=50, deadline=None)
def test_pipeline_stats_serialization_round_trips(stats):
    assert PipelineStats.from_dict(_json_round_trip(stats.to_dict())) == stats


_metric_dicts = st.dictionaries(
    st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=12),
    st.one_of(st.integers(min_value=0, max_value=1 << 40),
              st.floats(min_value=0, max_value=1e9, allow_nan=False)),
    max_size=6)


@given(stats=pipeline_stats_strategy(), cycles=_counters, instructions=_counters,
       power=_metric_dicts, resources=_metric_dicts,
       constable=st.one_of(st.none(), _metric_dicts),
       lvp=st.one_of(st.none(), _metric_dicts))
@settings(max_examples=50, deadline=None)
def test_simulation_result_serialization_round_trips(stats, cycles, instructions,
                                                     power, resources, constable, lvp):
    result = SimulationResult(
        trace_name="w", config_name="c", cycles=cycles, instructions=instructions,
        stats=stats, power_events=power, resource_stats=resources,
        constable_stats=constable, lvp_stats=lvp,
        memory_stats={"service_levels": dict(power)},
        per_thread=[{"thread": 0, "ipc": 1.5}])
    assert SimulationResult.from_dict(_json_round_trip(result.to_dict())) == result


# ----------------------------------------------------- cache GC invariants

_entry_sizes = st.lists(st.integers(min_value=0, max_value=8192),
                        min_size=1, max_size=20)


@given(sizes=_entry_sizes, cap_kb=st.integers(min_value=1, max_value=48))
@settings(max_examples=40, deadline=None)
def test_cache_gc_evicts_exactly_the_minimal_lru_prefix(sizes, cap_kb):
    """GC never acts below the cap, and above it evicts only the LRU prefix
    needed to get back under — never more, never newer-before-older."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        paths = []
        for index, size in enumerate(sizes):
            key = hashlib.sha256(str(index).encode("utf-8")).hexdigest()
            path = cache._path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"x" * size)
            timestamp = 1_000_000 + index  # strictly increasing recency
            os.utime(path, (timestamp, timestamp))
            paths.append(path)

        total = sum(sizes)
        cap_bytes = cap_kb * 1024
        removed = cache.gc(max_mb=cap_kb / 1024.0)

        assert cache.total_bytes() <= cap_bytes
        if total <= cap_bytes:
            assert removed == [], "GC must never evict while under the cap"
        else:
            expected_removals = 0
            remaining = total
            while remaining > cap_bytes:
                remaining -= sizes[expected_removals]
                expected_removals += 1
            assert removed == paths[:expected_removals]
            assert cache.total_bytes() == remaining
        # Survivors are exactly the most-recent suffix, all still on disk.
        survivors = {path for path, _, _ in cache.entries()}
        assert survivors == set(paths[len(removed):])


_kernel_params = st.dictionaries(
    st.sampled_from(["inner_iterations", "depth", "num_globals", "region_words"]),
    st.integers(min_value=1, max_value=1 << 20), max_size=4)


@given(name=st.text(st.characters(min_codepoint=97, max_codepoint=122),
                    min_size=1, max_size=16),
       suite=st.sampled_from(["Client", "Enterprise", "FSPEC17", "ISPEC17", "Server"]),
       kernels=st.lists(st.tuples(st.sampled_from(["streaming", "branchy", "matrix"]),
                                  _kernel_params), min_size=1, max_size=5),
       seed=st.integers(min_value=0, max_value=(1 << 31) - 1),
       interval=st.integers(min_value=0, max_value=10_000),
       silent=st.booleans(),
       registers=st.sampled_from([16, 32]))
@settings(max_examples=50, deadline=None)
def test_workload_spec_serialization_round_trips(name, suite, kernels, seed,
                                                 interval, silent, registers):
    spec = WorkloadSpec(name=name, suite=suite, kernels=kernels, seed=seed,
                        external_write_interval=interval,
                        external_writes_silent=silent, num_registers=registers,
                        metadata={"origin": "property-test"})
    rebuilt = WorkloadSpec.from_dict(_json_round_trip(spec.to_dict()))
    assert rebuilt == spec
    assert all(isinstance(recipe, tuple) for recipe in rebuilt.kernels)


@st.composite
def load_site_strategy(draw):
    load_modes = [AddressingMode.PC_RELATIVE, AddressingMode.STACK_RELATIVE,
                  AddressingMode.REG_RELATIVE]
    site = LoadSiteStats(draw(_pcs), draw(st.sampled_from(load_modes)))
    site.dynamic_count = draw(st.integers(min_value=0, max_value=1 << 20))
    site.first_address = draw(st.one_of(st.none(), _addresses))
    site.first_value = draw(st.one_of(st.none(), _values))
    site.stable = draw(st.booleans())
    site.last_seq = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 30)))
    for label in site.distance_buckets:
        site.distance_buckets[label] = draw(st.integers(min_value=0, max_value=1 << 20))
    site.distinct_addresses = set(draw(st.lists(_addresses, max_size=8)))
    return site


@given(sites=st.lists(load_site_strategy(), max_size=6, unique_by=lambda s: s.pc),
       total=st.integers(min_value=0, max_value=1 << 30))
@settings(max_examples=50, deadline=None)
def test_global_stable_report_serialization_round_trips(sites, total):
    report = GlobalStableReport({site.pc: site for site in sites}, total)
    rebuilt = GlobalStableReport.from_dict(_json_round_trip(report.to_dict()))
    assert rebuilt.to_dict() == report.to_dict()
    assert rebuilt.summary() == report.summary()
    assert rebuilt.global_stable_pcs() == report.global_stable_pcs()


@given(outcomes=st.lists(st.tuples(_pcs, st.booleans()), min_size=1, max_size=300),
       config=st.sampled_from([TageConfig(), TageConfig(tag_bits=7),
                               TageConfig(tagged_entries=256, tag_bits=12,
                                          num_tables=6, max_history=160)]))
@settings(max_examples=60, deadline=None)
def test_tage_incremental_folds_match_the_reference_fold(outcomes, config):
    """After every outcome, each table's index and tag mix is what ``_fold``
    gives over that table's history window, at the index width and (where
    it differs) the tag width; one geometry's longest window outgrows the
    history register."""
    predictor = TagePredictor(config)
    index_bits = predictor._index_bits
    for pc, taken in outcomes:
        predictor.update(pc, taken)
        history = predictor._global_history
        for table, length in enumerate(predictor.history_lengths):
            window = history & ((1 << length) - 1)
            assert predictor._index_mix[table] == (
                _fold(window, index_bits) ^ (table * 0x9E5))
            assert predictor._tag_mix[table] == (
                (_fold(window, config.tag_bits) << 1) ^ table)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_vm_trace_sequence_numbers_are_dense(budget, seed):
    from repro.workloads.suites import workload_specs_for_suite
    from repro.workloads.generator import generate_trace
    spec = workload_specs_for_suite("Client")[seed % 3]
    trace = generate_trace(spec, num_instructions=budget)
    sequence = [d.seq for d in trace.instructions]
    assert sequence == list(range(len(sequence)))


# ------------------------------------------------- bench statistics helpers

_samples = st.lists(
    st.floats(min_value=-1e9, max_value=1e9,
              allow_nan=False, allow_infinity=False, width=64),
    min_size=1, max_size=40)


@given(_samples)
@settings(max_examples=100, deadline=None)
def test_median_matches_statistics_module_and_is_bounded(values):
    import statistics

    from repro.analysis.stats_utils import median

    result = median(values)
    assert min(values) <= result <= max(values)
    # The linear-interpolated 50th percentile is exactly the textbook median
    # (middle element, or the midpoint of the two middle elements).
    assert result == pytest.approx(statistics.median(values), abs=1e-6)
    # Order independence: the helper sorts internally.
    assert median(list(reversed(sorted(values)))) == result


@given(_samples, st.floats(min_value=-1e6, max_value=1e6,
                           allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_median_abs_deviation_invariances(values, shift):
    from repro.analysis.stats_utils import median_abs_deviation

    mad = median_abs_deviation(values)
    assert mad >= 0.0
    if len(values) < 2:
        assert mad == 0.0, "spread of fewer than two samples is defined as 0"
    assert median_abs_deviation([v for v in values for _ in (0, 1)]) \
        == pytest.approx(mad, abs=1e-6), "duplicating every sample keeps MAD"
    # Translation invariance: shifting every sample leaves the spread alone.
    assert median_abs_deviation([v + shift for v in values]) \
        == pytest.approx(mad, abs=max(1e-6, abs(shift) * 1e-9))
    assert median_abs_deviation([values[0]] * len(values)) == 0.0


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
                          allow_infinity=False, width=64),
                min_size=1, max_size=40),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_percentile_is_monotone_and_clamped(values, f1, f2):
    from repro.analysis.stats_utils import _percentile

    data = sorted(values)
    low, high = sorted((f1, f2))
    p_low, p_high = _percentile(data, low), _percentile(data, high)
    # Monotone in the requested fraction, and always inside the data range
    # (the clamp exists precisely because interpolation rounding can escape).
    assert p_low <= p_high
    assert data[0] <= p_low <= data[-1]
    assert _percentile(data, 0.0) == data[0]
    assert _percentile(data, 1.0) == data[-1]
    assert _percentile([], 0.5) == 0.0
