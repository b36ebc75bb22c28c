"""Tests for the branch predictor and backend building blocks."""

import pytest

from repro.backend.dependence import MemoryDependencePredictor
from repro.backend.ports import ExecutionPorts, PortKind
from repro.backend.store_queue import StoreQueue
from repro.frontend.branch_predictor import BimodalPredictor, BranchPredictor, TagePredictor
from repro.pipeline.config import BackendSizes, PortConfig


# --------------------------------------------------------------------- bimodal

def test_bimodal_learns_always_taken():
    predictor = BimodalPredictor(entries=64)
    for _ in range(4):
        predictor.update(0x400, True)
    assert predictor.predict(0x400) is True


def test_bimodal_learns_never_taken():
    predictor = BimodalPredictor(entries=64)
    for _ in range(4):
        predictor.update(0x400, False)
    assert predictor.predict(0x400) is False


# ------------------------------------------------------------------------ TAGE

def test_tage_learns_loop_exit_pattern():
    predictor = TagePredictor()
    # A loop of 4 iterations: T T T NT, repeated; history-based tables should
    # beat the 75%-taken bimodal baseline after warm-up.
    pattern = [True, True, True, False]
    warmup_mispredicts = 0
    late_mispredicts = 0
    for round_index in range(200):
        for taken in pattern:
            predicted = predictor.predict(0x800)
            if predicted != taken:
                if round_index < 100:
                    warmup_mispredicts += 1
                else:
                    late_mispredicts += 1
            predictor.update(0x800, taken)
    assert late_mispredicts <= warmup_mispredicts
    assert late_mispredicts < 100  # better than always-taken on the exit


def test_branch_predictor_facade_unconditional_always_correct():
    facade = BranchPredictor()
    assert facade.predict_taken(0x100, is_conditional=False) is True
    assert facade.resolve(0x100, False, True, True) is False


def test_branch_predictor_facade_counts_mispredictions():
    facade = BranchPredictor()
    predicted = facade.predict_taken(0x200, is_conditional=True)
    mispredicted = facade.resolve(0x200, True, predicted, not predicted)
    assert mispredicted is True
    assert facade.resolve(0x200, True, predicted, predicted) is False


# -------------------------------------------------------------------- resources

def test_backend_sizes_scaling():
    sizes = BackendSizes()
    scaled = sizes.scaled(2.0)
    assert scaled.rob == sizes.rob * 2
    assert scaled.rs == sizes.rs * 2
    with pytest.raises(ValueError):
        sizes.scaled(0)


# ------------------------------------------------------------------------ ports

def test_ports_enforce_per_kind_limits():
    ports = ExecutionPorts(PortConfig(issue_width=6, alu=2, load=1, store_address=1, store_data=1))
    ports.new_cycle()
    assert ports.issue(PortKind.LOAD)
    assert not ports.issue(PortKind.LOAD)
    assert ports.issue(PortKind.ALU) and ports.issue(PortKind.ALU)
    assert not ports.issue(PortKind.ALU)
    ports.new_cycle()
    assert ports.issue(PortKind.LOAD) and ports.issue(PortKind.ALU)


def test_ports_enforce_issue_width():
    ports = ExecutionPorts(PortConfig(issue_width=2, alu=5, load=3))
    ports.new_cycle()
    assert ports.issue(PortKind.ALU)
    assert ports.issue(PortKind.ALU)
    assert not ports.issue(PortKind.LOAD)


# ------------------------------------------------------- dependence / store queue

def test_dependence_predictor_trains_and_decays():
    predictor = MemoryDependencePredictor()
    assert not predictor.should_wait_for_stores(0x700)
    predictor.train_violation(0x700)
    assert predictor.should_wait_for_stores(0x700)
    for _ in range(10):
        predictor.observe_safe_execution(0x700)
    assert not predictor.should_wait_for_stores(0x700)


def test_store_queue_forwarding_candidate_and_ordering():
    queue = StoreQueue()
    older = queue.insert(seq=10, pc=0x100)
    younger = queue.insert(seq=20, pc=0x104)
    older.address = 0x8000
    older.line_address = 0x8000
    older.address_ready = True
    older.data_ready = True
    candidate = queue.forwarding_candidate(load_seq=15, address=0x8004)
    assert candidate is older
    assert queue.forwarding_candidate(load_seq=5, address=0x8000) is None
    assert queue.has_unresolved_older_store(load_seq=25) is True
    younger.address_ready = True
    assert queue.has_unresolved_older_store(load_seq=25) is False


def test_store_queue_squash_and_remove():
    queue = StoreQueue()
    queue.insert(seq=1, pc=0x1)
    queue.insert(seq=2, pc=0x2)
    queue.insert(seq=3, pc=0x3)
    queue.squash_younger_than(2)
    assert [s.seq for s in queue.records()] == [1, 2]
    queue.remove(1)
    assert [s.seq for s in queue.records()] == [2]
    queue.remove(2)
    assert len(queue) == 0
