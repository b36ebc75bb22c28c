"""Unit tests for the ConstableEngine state machine (paper §5-§6 semantics)."""

import pytest

from repro.core.config import ConstableConfig
from repro.core.constable import ConstableEngine
from repro.core.ideal import IdealMode, IdealOracle, build_oracle_from_trace
from repro.isa.instruction import AddressingMode


def _train_until_eliminable(engine, pc=0x100, address=0x8000, value=42,
                            source_registers=(5,), repetitions=None):
    """Execute the load repeatedly until its can_eliminate flag is set."""
    threshold = engine.config.confidence_threshold
    repetitions = repetitions if repetitions is not None else threshold + 2
    for _ in range(repetitions):
        decision = engine.on_load_rename(pc, AddressingMode.STACK_RELATIVE)
        if decision.eliminate:
            return decision
        engine.on_load_writeback(pc, address, value, source_registers,
                                 decision.likely_stable)
    return engine.on_load_rename(pc, AddressingMode.STACK_RELATIVE)


def _engine(threshold=4, **overrides):
    return ConstableEngine(ConstableConfig(confidence_threshold=threshold, **overrides))


def test_load_becomes_eliminable_after_confidence_threshold():
    engine = _engine(threshold=4)
    decision = _train_until_eliminable(engine)
    assert decision.eliminate is True
    assert decision.value == 42
    assert decision.address == 0x8000
    assert engine.stats.loads_eliminated >= 1


def test_load_below_threshold_is_not_eliminated():
    engine = _engine(threshold=10)
    for _ in range(3):
        decision = engine.on_load_rename(0x100, AddressingMode.STACK_RELATIVE)
        assert decision.eliminate is False
        engine.on_load_writeback(0x100, 0x8000, 42, (5,), decision.likely_stable)
    assert engine.stats.loads_eliminated == 0


def test_register_write_resets_elimination():
    engine = _engine()
    _train_until_eliminable(engine, source_registers=(5,))
    engine.on_register_write(5)
    decision = engine.on_load_rename(0x100, AddressingMode.STACK_RELATIVE)
    assert decision.eliminate is False
    assert decision.likely_stable is True        # confidence survives the reset
    assert engine.stats.resets_by_register_write >= 1


def test_unrelated_register_write_does_not_reset():
    engine = _engine()
    _train_until_eliminable(engine, source_registers=(5,))
    engine.on_register_write(7)
    assert engine.on_load_rename(0x100, AddressingMode.STACK_RELATIVE).eliminate is True


def test_store_to_same_line_resets_elimination():
    engine = _engine()
    _train_until_eliminable(engine, address=0x8000)
    engine.on_store_address(0x8008)     # same 64-byte cacheline
    assert engine.on_load_rename(0x100, AddressingMode.STACK_RELATIVE).eliminate is False
    assert engine.stats.resets_by_store >= 1


def test_store_to_other_line_keeps_elimination():
    engine = _engine()
    _train_until_eliminable(engine, address=0x8000)
    engine.on_store_address(0x9000)
    assert engine.on_load_rename(0x100, AddressingMode.STACK_RELATIVE).eliminate is True


def test_snoop_resets_elimination():
    engine = _engine()
    _train_until_eliminable(engine, address=0x8000)
    engine.on_snoop(0x8010)
    assert engine.on_load_rename(0x100, AddressingMode.STACK_RELATIVE).eliminate is False
    assert engine.stats.resets_by_snoop >= 1


def test_l1_eviction_only_resets_in_amt_invalidate_variant():
    vanilla = _engine()
    _train_until_eliminable(vanilla, address=0x8000)
    vanilla.on_l1_eviction(0x8000)
    assert vanilla.on_load_rename(0x100, AddressingMode.STACK_RELATIVE).eliminate is True

    amt_i = _engine(amt_invalidate_on_l1_eviction=True, pin_cv_bits=False)
    _train_until_eliminable(amt_i, address=0x8000)
    amt_i.on_l1_eviction(0x8000)
    assert amt_i.on_load_rename(0x100, AddressingMode.STACK_RELATIVE).eliminate is False


def test_cv_pin_requested_for_likely_stable_writeback():
    engine = _engine(threshold=2)
    pin = False
    for _ in range(5):
        decision = engine.on_load_rename(0x100, AddressingMode.PC_RELATIVE)
        if decision.eliminate:
            break
        pin = engine.on_load_writeback(0x100, 0x8000, 1, (), decision.likely_stable)
    assert pin is True
    assert engine.stats.cv_pin_requests >= 1


def test_addressing_mode_filter_blocks_elimination():
    config = ConstableConfig(confidence_threshold=4,
                             eliminate_addressing_modes=frozenset({AddressingMode.PC_RELATIVE}))
    engine = ConstableEngine(config)
    decision = _train_until_eliminable(engine)
    assert decision.eliminate is False
    assert engine.stats.eliminations_blocked_by_mode >= 1


def test_xprf_exhaustion_blocks_elimination():
    engine = _engine(xprf_entries=1)
    if _train_until_eliminable(engine, pc=0x100, address=0x8000).eliminate:
        engine.release_xprf()
    if _train_until_eliminable(engine, pc=0x200, address=0x9000).eliminate:
        engine.release_xprf()
    first = engine.on_load_rename(0x100, AddressingMode.STACK_RELATIVE)
    second = engine.on_load_rename(0x200, AddressingMode.STACK_RELATIVE)
    assert first.eliminate is True
    assert second.eliminate is False
    assert engine.stats.eliminations_blocked_by_xprf >= 1
    engine.release_xprf()
    assert engine.on_load_rename(0x200, AddressingMode.STACK_RELATIVE).eliminate is True


def test_ordering_violation_halves_confidence_and_blocks_elimination():
    engine = _engine()
    _train_until_eliminable(engine)
    engine.on_ordering_violation(0x100)
    decision = engine.on_load_rename(0x100, AddressingMode.STACK_RELATIVE)
    assert decision.eliminate is False
    entry = engine.sld.lookup(0x100)
    assert entry.confidence < engine.config.confidence_max
    assert engine.stats.ordering_violations == 1


def test_context_switch_clears_all_structures():
    engine = _engine()
    _train_until_eliminable(engine)
    engine.on_context_switch()
    assert engine.on_load_rename(0x100, AddressingMode.STACK_RELATIVE).eliminate is False
    assert engine.rmt.tracked_pcs() == 0
    assert engine.amt.tracked_lines() == 0


def test_sld_update_counter_tracks_per_cycle_writes():
    engine = _engine()
    _train_until_eliminable(engine, source_registers=(5,))
    engine.begin_cycle()
    engine.on_register_write(5)
    assert engine.sld_updates_this_cycle == 1
    engine.begin_cycle()
    assert engine.sld_updates_this_cycle == 0


def test_elimination_resumes_after_reset_and_reexecution():
    engine = _engine()
    _train_until_eliminable(engine, source_registers=(5,))
    engine.on_register_write(5)
    # The next instance executes normally and re-arms elimination.
    decision = engine.on_load_rename(0x100, AddressingMode.STACK_RELATIVE)
    assert decision.eliminate is False and decision.likely_stable is True
    engine.on_load_writeback(0x100, 0x8000, 42, (5,), decision.likely_stable)
    assert engine.on_load_rename(0x100, AddressingMode.STACK_RELATIVE).eliminate is True


def test_coverage_statistic():
    engine = _engine()
    _train_until_eliminable(engine)
    for _ in range(5):
        engine.on_load_rename(0x100, AddressingMode.STACK_RELATIVE)
        engine.release_xprf()
    assert 0.0 < engine.coverage() <= 1.0


# ----------------------------------------------------------------------- ideal

def test_ideal_oracle_covers_after_first_execution():
    oracle = IdealOracle(stable_pcs={0x100}, mode=IdealMode.CONSTABLE)
    assert oracle.covers(0x100) is False
    oracle.observe_execution(0x100, 0x8000, 42)
    assert oracle.covers(0x100) is True
    assert oracle.known_value(0x100) == (0x8000, 42)
    assert oracle.covers(0x200) is False
    assert 0.0 < oracle.coverage() < 1.0


def test_build_oracle_from_trace(tiny_trace):
    oracle = build_oracle_from_trace(tiny_trace, mode=IdealMode.STABLE_LVP)
    assert oracle.mode is IdealMode.STABLE_LVP
    assert len(oracle.stable_pcs) > 0
