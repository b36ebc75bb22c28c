"""Unit tests for the architectural register model."""

import pytest

from repro.isa.registers import (
    APX_REGISTER_COUNT,
    ARCH_REGISTER_COUNT,
    RBP,
    RSP,
    STACK_REGISTERS,
    RegisterFile,
    register_name,
)


def test_register_counts():
    assert ARCH_REGISTER_COUNT == 16
    assert APX_REGISTER_COUNT == 32


def test_stack_registers_are_rsp_and_rbp():
    assert RSP in STACK_REGISTERS
    assert RBP in STACK_REGISTERS
    assert len(STACK_REGISTERS) == 2
    assert register_name(RSP) == "rsp"
    assert register_name(RBP) == "rbp"


def test_register_name_for_apx_registers():
    assert register_name(16) == "r16"
    assert register_name(31) == "r31"


def test_register_name_rejects_negative_index():
    with pytest.raises(ValueError):
        register_name(-1)


def test_register_file_read_write_roundtrip():
    regs = RegisterFile()
    regs.write(3, 0xDEADBEEF)
    assert regs.read(3) == 0xDEADBEEF
    assert regs.read(0) == 0


def test_register_file_wraps_to_64_bits():
    regs = RegisterFile()
    regs.write(1, 1 << 70)
    assert regs.read(1) == ((1 << 70) & ((1 << 64) - 1))


def test_register_file_rejects_bad_sizes():
    with pytest.raises(ValueError):
        RegisterFile(count=0)
    with pytest.raises(ValueError):
        RegisterFile(count=2, initial=[1])


def test_register_file_len_and_count():
    regs = RegisterFile(count=32)
    assert len(regs) == 32
    assert regs.count == 32
