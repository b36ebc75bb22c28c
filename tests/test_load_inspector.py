"""Tests for the Load Inspector (global-stable load analysis)."""

from repro.analysis.load_inspector import (
    DISTANCE_BUCKETS,
    LoadInspector,
    bucket_for_distance,
    inspect_trace,
)
from repro.isa.instruction import DynamicInstruction, MemOperand, OpClass, StaticInstruction


def _make_load(pc, seq, address, value):
    static = StaticInstruction(pc=pc, opclass=OpClass.LOAD, dest=1,
                               mem=MemOperand(base=None, disp=address))
    return DynamicInstruction(seq=seq, static=static, address=address, load_value=value,
                              next_pc=pc + 4)


def _make_alu(pc, seq):
    static = StaticInstruction(pc=pc, opclass=OpClass.ALU, dest=0, srcs=(1,))
    return DynamicInstruction(seq=seq, static=static, next_pc=pc + 4)


def test_bucket_boundaries_match_figure3():
    assert bucket_for_distance(0) == "[0-50)"
    assert bucket_for_distance(49) == "[0-50)"
    assert bucket_for_distance(50) == "[50-100)"
    assert bucket_for_distance(249) == "[100-250)"
    assert bucket_for_distance(250) == "250+"
    assert bucket_for_distance(10_000) == "250+"
    assert len(DISTANCE_BUCKETS) == 4


def test_stable_load_detection_same_address_same_value():
    inspector = LoadInspector()
    for seq in range(5):
        inspector.observe(_make_load(0x100, seq * 10, 0x8000, 42))
    report = inspector.report()
    assert report.global_stable_pcs() == {0x100}
    assert report.global_stable_dynamic_fraction() == 1.0


def test_value_change_breaks_stability():
    inspector = LoadInspector()
    inspector.observe(_make_load(0x100, 0, 0x8000, 42))
    inspector.observe(_make_load(0x100, 10, 0x8000, 43))
    report = inspector.report()
    assert report.global_stable_pcs() == set()


def test_address_change_breaks_stability():
    inspector = LoadInspector()
    inspector.observe(_make_load(0x100, 0, 0x8000, 42))
    inspector.observe(_make_load(0x100, 10, 0x8008, 42))
    assert inspector.report().global_stable_pcs() == set()


def test_single_occurrence_is_not_global_stable():
    inspector = LoadInspector()
    inspector.observe(_make_load(0x100, 0, 0x8000, 42))
    assert inspector.report().global_stable_pcs() == set()


def test_distance_distribution_buckets():
    inspector = LoadInspector()
    inspector.observe(_make_load(0x100, 0, 0x8000, 1))
    inspector.observe(_make_load(0x100, 10, 0x8000, 1))     # distance 10
    inspector.observe(_make_load(0x100, 400, 0x8000, 1))    # distance 390
    report = inspector.report()
    distribution = report.distance_distribution()
    assert abs(distribution["[0-50)"] - 0.5) < 1e-9
    assert abs(distribution["250+"] - 0.5) < 1e-9


def test_mixed_instructions_counted_in_fraction():
    inspector = LoadInspector()
    for seq in range(4):
        inspector.observe(_make_alu(0x200, seq))
    for seq in range(4, 8):
        inspector.observe(_make_load(0x100, seq, 0x8000, 7))
    report = inspector.report()
    assert report.total_instructions == 8
    assert report.total_dynamic_loads() == 4


def test_inspect_trace_on_generated_workload(tiny_trace):
    report = inspect_trace(tiny_trace)
    assert report.total_dynamic_loads() == len(tiny_trace.loads())
    assert 0.0 <= report.global_stable_dynamic_fraction() <= 1.0
    modes = report.addressing_mode_breakdown()
    assert abs(sum(modes.values()) - 1.0) < 1e-6 or sum(modes.values()) == 0.0


def test_report_summary_keys(tiny_trace):
    summary = inspect_trace(tiny_trace).summary()
    for key in ("total_instructions", "total_dynamic_loads", "static_loads",
                "global_stable_static_loads", "global_stable_dynamic_fraction"):
        assert key in summary


def test_distance_distribution_by_mode_has_all_modes(tiny_trace):
    by_mode = inspect_trace(tiny_trace).distance_distribution_by_mode()
    assert set(by_mode) == {"pc_relative", "stack", "register"}
    for buckets in by_mode.values():
        assert set(buckets) == {label for label, _, _ in DISTANCE_BUCKETS}
