"""Tests for the RAT, rename optimizations, MRN, value predictors, ELAR and RFP."""

from repro.isa.instruction import DynamicInstruction, MemOperand, OpClass, StaticInstruction
from repro.isa.registers import RBP, RSP
from repro.lvp.eves import EvesConfig, EvesPredictor
from repro.prior.elar import EarlyLoadAddressResolver
from repro.prior.rfp import RegisterFilePrefetcher
from repro.rename.memory_renaming import MemoryRenamer, MemoryRenamingConfig
from repro.pipeline.config import RenameOptimizationConfig
from repro.rename.optimizations import OptimizationKind, RenameOptimizer
from repro.rename.rat import RegisterAliasTable


def _dyn(opclass, pc=0x100, dest=None, srcs=(), imm=0, mem=None, cond="", target=None):
    static = StaticInstruction(pc=pc, opclass=opclass, dest=dest, srcs=srcs, imm=imm,
                               mem=mem, branch_target=target, cond=cond)
    return DynamicInstruction(seq=0, static=static, next_pc=pc + 4)


# -------------------------------------------------------------------------- RAT

def test_rat_tracks_latest_producer():
    rat = RegisterAliasTable(16)
    rat.producers[3] = "op_a"
    rat.producers[3] = "op_b"
    rat.clear_producer(3, "op_a")   # not the latest: no effect
    assert rat.producers[3] == "op_b"
    rat.clear_producer(3, "op_b")
    assert rat.producers[3] is None


def test_rat_rebuild_from_window():
    rat = RegisterAliasTable(8)
    window = [("op1", 1), ("op2", 2), ("op3", 1)]
    rat.rebuild([w for w, _ in window], dest_of=lambda op: dict(window)[op])
    assert rat.producers[1] == "op3"
    assert rat.producers[2] == "op2"


# ---------------------------------------------------------------- optimizations

def test_move_elimination_classification():
    optimizer = RenameOptimizer()
    assert optimizer.classify(_dyn(OpClass.MOVE_REG, dest=1, srcs=(2,))) is OptimizationKind.MOVE_ELIMINATION


def test_zero_and_constant_idiom_classification():
    optimizer = RenameOptimizer()
    assert optimizer.classify(_dyn(OpClass.MOVE_IMM, dest=1, imm=0)) is OptimizationKind.ZERO_ELIMINATION
    assert optimizer.classify(_dyn(OpClass.MOVE_IMM, dest=1, imm=7)) is OptimizationKind.CONSTANT_FOLDING


def test_branch_folding_and_nop_elimination():
    optimizer = RenameOptimizer()
    jump = _dyn(OpClass.JUMP, target=0x2000, cond="always")
    assert optimizer.classify(jump) is OptimizationKind.BRANCH_FOLDING
    assert optimizer.classify(_dyn(OpClass.NOP)) is OptimizationKind.NOP_ELIMINATION


def test_loads_and_alu_are_not_optimized():
    optimizer = RenameOptimizer()
    load = _dyn(OpClass.LOAD, dest=1, mem=MemOperand(base=RBP, disp=-8))
    alu = _dyn(OpClass.ALU, dest=1, srcs=(2, 3))
    assert optimizer.classify(load) is OptimizationKind.NONE
    assert optimizer.classify(alu) is OptimizationKind.NONE


def test_optimizations_can_be_disabled():
    optimizer = RenameOptimizer(RenameOptimizationConfig(move_elimination=False,
                                                         zero_elimination=False,
                                                         constant_folding=False,
                                                         branch_folding=False))
    assert optimizer.classify(_dyn(OpClass.MOVE_REG, dest=1, srcs=(2,))) is OptimizationKind.NONE
    assert optimizer.classify(_dyn(OpClass.MOVE_IMM, dest=1, imm=0)) is OptimizationKind.NONE


# -------------------------------------------------------------------------- MRN

def test_memory_renamer_learns_store_load_pair():
    mrn = MemoryRenamer(MemoryRenamingConfig(confidence_threshold=2))
    for seq in range(0, 40, 10):
        mrn.observe_store(store_pc=0x500, address=0x9000, seq=seq)
        mrn.observe_load(load_pc=0x600, address=0x9000, seq=seq + 5)
    assert mrn.predicted_store_pc(0x600) == 0x500


def test_memory_renamer_unrelated_load_not_predicted():
    mrn = MemoryRenamer()
    mrn.observe_load(load_pc=0x600, address=0x9000, seq=10)
    assert mrn.predicted_store_pc(0x600) is None


# ------------------------------------------------------------------------- EVES

def test_eves_predicts_constant_value_after_training():
    eves = EvesPredictor(EvesConfig(stride_confidence_threshold=4, vtage_confidence_threshold=4))
    for _ in range(10):
        eves.train(0x700, 1234, branch_history=0)
    prediction = eves.predict(0x700, branch_history=0)
    assert prediction.predicted and prediction.value == 1234


def test_eves_predicts_strided_values():
    eves = EvesPredictor(EvesConfig(stride_confidence_threshold=4, vtage_confidence_threshold=30))
    value = 0
    for _ in range(10):
        eves.train(0x704, value)
        value += 8
    prediction = eves.predict(0x704)
    assert prediction.predicted and prediction.value == value


def test_eves_does_not_predict_random_values():
    eves = EvesPredictor()
    values = [17, 9134, 223, 8, 99123, 42, 7, 3131]
    for value in values:
        eves.train(0x708, value)
    assert eves.predict(0x708).predicted is False


def test_eves_outcome_accounting():
    eves = EvesPredictor(EvesConfig(stride_confidence_threshold=2, vtage_confidence_threshold=2))
    for _ in range(6):
        eves.train(0x70C, 5)
    prediction = eves.predict(0x70C)
    assert eves.record_outcome(prediction, 5) is True
    assert eves.record_outcome(prediction, 6) is False
    assert (eves.attempts, eves.predictions, eves.correct) == (2, 2, 1)


# ------------------------------------------------------------------- ELAR / RFP

def test_elar_resolves_stack_and_pc_relative_loads():
    elar = EarlyLoadAddressResolver()
    stack_load = _dyn(OpClass.LOAD, dest=1, mem=MemOperand(base=RSP, disp=-8))
    pc_load = _dyn(OpClass.LOAD, dest=1, mem=MemOperand(base=None, disp=0x1000))
    reg_load = _dyn(OpClass.LOAD, dest=1, mem=MemOperand(base=3, disp=0))
    assert elar.can_resolve_early(stack_load)
    assert elar.can_resolve_early(pc_load)
    assert not elar.can_resolve_early(reg_load)
    assert elar.latency_savings() > 0


def test_rfp_learns_stable_address():
    rfp = RegisterFilePrefetcher()
    for _ in range(5):
        rfp.train(0x720, 0x8000)
    assert rfp.predict_address(0x720) == 0x8000
    prefetched = rfp.issue_prefetch(0x720)
    assert rfp.verify(prefetched, 0x8000) is True
    assert rfp.verify(prefetched, 0x9000) is False


def test_rfp_learns_strided_address():
    rfp = RegisterFilePrefetcher()
    for i in range(6):
        rfp.train(0x724, 0x1000 + i * 64)
    assert rfp.predict_address(0x724) == 0x1000 + 6 * 64
