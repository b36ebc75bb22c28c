"""Unit tests for micro-op, addressing mode and operand modelling."""

import pytest

from repro.isa.instruction import (
    AddressingMode,
    DynamicInstruction,
    MemOperand,
    OpClass,
    SnoopEvent,
    StaticInstruction,
)
from repro.isa.registers import RBP, RSP


def test_mem_operand_pc_relative_classification():
    operand = MemOperand(base=None, index=None, disp=0x1000)
    assert operand.addressing_mode() is AddressingMode.PC_RELATIVE
    assert operand.address_registers() == ()


def test_mem_operand_stack_relative_classification():
    for register in (RSP, RBP):
        operand = MemOperand(base=register, disp=-8)
        assert operand.addressing_mode() is AddressingMode.STACK_RELATIVE


def test_mem_operand_register_relative_classification():
    operand = MemOperand(base=3, index=2, scale=8)
    assert operand.addressing_mode() is AddressingMode.REG_RELATIVE
    assert set(operand.address_registers()) == {3, 2}


def test_mem_operand_mixed_stack_and_general_register_is_register_relative():
    operand = MemOperand(base=RSP, index=1, scale=8)
    assert operand.addressing_mode() is AddressingMode.REG_RELATIVE


def test_mem_operand_rejects_bad_scale():
    with pytest.raises(ValueError):
        MemOperand(base=0, scale=3)


def test_static_instruction_requires_mem_operand_for_loads():
    with pytest.raises(ValueError):
        StaticInstruction(pc=0x100, opclass=OpClass.LOAD, dest=1)


def test_static_instruction_requires_target_for_branches():
    with pytest.raises(ValueError):
        StaticInstruction(pc=0x100, opclass=OpClass.BRANCH, srcs=(1,), cond="nz")


def test_static_instruction_source_registers_include_address_registers():
    inst = StaticInstruction(pc=0x100, opclass=OpClass.LOAD, dest=1,
                             mem=MemOperand(base=5, index=6, scale=8, disp=16))
    assert set(inst.source_registers()) == {5, 6}


def test_static_instruction_addressing_mode_none_for_alu():
    inst = StaticInstruction(pc=0x104, opclass=OpClass.ALU, dest=0, srcs=(1, 2))
    assert inst.addressing_mode() is AddressingMode.NONE


def test_dynamic_instruction_properties():
    static = StaticInstruction(pc=0x200, opclass=OpClass.LOAD, dest=2,
                               mem=MemOperand(base=RBP, disp=-16))
    dyn = DynamicInstruction(seq=5, static=static, address=0x7000, load_value=99,
                             next_pc=0x204)
    assert dyn.pc == 0x200
    assert dyn.is_load
    assert not dyn.is_store
    assert not dyn.is_branch
    assert dyn.load_value == 99


def test_snoop_event_fields():
    snoop = SnoopEvent(after_seq=12, address=0x5000_0040)
    assert snoop.after_seq == 12
    assert snoop.address == 0x5000_0040
