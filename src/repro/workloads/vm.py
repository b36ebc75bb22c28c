"""Functional VM executing synthetic programs to produce dynamic traces.

The VM is architecturally simple: a flat 64-bit register file, a sparse
8-byte-granular memory, and straightforward semantics for the small micro-op
ISA.  Untouched memory reads a deterministic pseudo-random value derived from
the address, so traces are reproducible without an explicit memory image.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa.instruction import DynamicInstruction, OpClass, StaticInstruction
from repro.isa.program import INSTRUCTION_SIZE, Program
from repro.isa.registers import ARCH_REGISTER_COUNT, RegisterFile

_MASK64 = (1 << 64) - 1

#: Multiplier/increment of the default-value hash for untouched memory.
_ADDR_HASH_MUL = 0x9E3779B97F4A7C15
_ADDR_HASH_ADD = 0x2545F4914F6CDD1D


def default_memory_value(address: int) -> int:
    """Deterministic value returned when reading memory never written before."""
    x = (address * _ADDR_HASH_MUL + _ADDR_HASH_ADD) & _MASK64
    x ^= x >> 29
    return x & _MASK64


class SparseMemory:
    """A sparse 64-bit-word memory with deterministic default contents."""

    __slots__ = ("_words",)

    def __init__(self, initial: Optional[Dict[int, int]] = None):
        self._words: Dict[int, int] = {}
        if initial:
            for addr, value in initial.items():
                self.write(addr, value)

    @staticmethod
    def _align(address: int) -> int:
        return address & ~0x7

    def read(self, address: int) -> int:
        """Read the 64-bit word containing ``address``."""
        key = self._align(address)
        if key in self._words:
            return self._words[key]
        return default_memory_value(key)

    def write(self, address: int, value: int) -> None:
        """Write ``value`` into the 64-bit word containing ``address``."""
        self._words[self._align(address)] = value & _MASK64

    def is_written(self, address: int) -> bool:
        """True if the word containing ``address`` has ever been written."""
        return self._align(address) in self._words


class FunctionalVM:
    """Executes a :class:`~repro.isa.program.Program` and records the dynamic trace."""

    def __init__(self, program: Program,
                 registers: Optional[RegisterFile] = None,
                 memory: Optional[SparseMemory] = None,
                 num_registers: int = ARCH_REGISTER_COUNT,
                 thread_id: int = 0):
        self.program = program
        self.registers = registers if registers is not None else RegisterFile(num_registers)
        self.memory = memory if memory is not None else SparseMemory()
        self.pc = program.entry_pc
        self.thread_id = thread_id
        self.instruction_count = 0
        self.halted = False

    # ------------------------------------------------------------------ helpers

    def _effective_address(self, inst: StaticInstruction) -> int:
        mem = inst.mem
        address = mem.disp
        if mem.base is not None:
            address += self.registers.read(mem.base)
        if mem.index is not None:
            address += self.registers.read(mem.index) * mem.scale
        return address & _MASK64

    def _alu_result(self, inst: StaticInstruction) -> int:
        values = [self.registers.read(r) for r in inst.srcs]
        op = inst.alu_op
        imm = inst.imm
        if op == "add":
            result = sum(values) + imm
        elif op == "sub":
            if len(values) >= 2:
                result = values[0] - values[1] - imm
            elif values:
                result = values[0] - imm
            else:
                result = -imm
        elif op == "xor":
            result = imm
            for v in values:
                result ^= v
        elif op == "and":
            result = values[0] if values else imm
            for v in values[1:]:
                result &= v
            if imm:
                result &= imm
        elif op == "or":
            result = imm
            for v in values:
                result |= v
        elif op == "mul":
            result = 1
            for v in values:
                result *= v
            if imm:
                result *= imm
        elif op == "div":
            numerator = values[0] if values else imm
            denominator = values[1] if len(values) > 1 else (imm or 1)
            result = numerator // denominator if denominator else 0
        elif op == "shl":
            result = (values[0] if values else 0) << (imm & 63)
        elif op == "shr":
            result = (values[0] if values else 0) >> (imm & 63)
        elif op == "lcg":
            # Linear congruential step: handy for generating pseudo-random indices.
            seed = values[0] if values else imm
            result = seed * 6364136223846793005 + 1442695040888963407
        elif op == "mov":
            result = values[0] if values else imm
        else:
            raise ValueError(f"unknown ALU operation {op!r}")
        return result & _MASK64

    def _branch_taken(self, inst: StaticInstruction) -> bool:
        if inst.opclass is OpClass.JUMP:
            return True
        value = self.registers.read(inst.srcs[0]) if inst.srcs else 0
        if inst.cond == "nz":
            return value != 0
        if inst.cond == "z":
            return value == 0
        raise ValueError(f"unknown branch condition {inst.cond!r}")

    # --------------------------------------------------------------------- step

    def step(self) -> DynamicInstruction:
        """Execute one instruction and return its dynamic record."""
        if self.halted:
            raise RuntimeError("VM has halted (fell off the end of the program)")
        inst = self.program.fetch(self.pc)
        seq = self.instruction_count
        address = 0
        load_value = 0
        store_value = 0
        branch_taken = False
        next_pc = self.pc + INSTRUCTION_SIZE

        opclass = inst.opclass
        if opclass is OpClass.LOAD:
            address = self._effective_address(inst)
            load_value = self.memory.read(address)
            if inst.dest is not None:
                self.registers.write(inst.dest, load_value)
        elif opclass is OpClass.STORE:
            address = self._effective_address(inst)
            store_value = self.registers.read(inst.srcs[0]) if inst.srcs else inst.imm
            self.memory.write(address, store_value)
        elif opclass in (OpClass.BRANCH, OpClass.JUMP):
            branch_taken = self._branch_taken(inst)
            if branch_taken:
                next_pc = inst.branch_target
        elif opclass is OpClass.MOVE_IMM:
            self.registers.write(inst.dest, inst.imm)
        elif opclass is OpClass.MOVE_REG:
            self.registers.write(inst.dest, self.registers.read(inst.srcs[0]))
        elif opclass in (OpClass.ALU, OpClass.MUL, OpClass.DIV):
            if inst.dest is not None:
                self.registers.write(inst.dest, self._alu_result(inst))
        elif opclass is OpClass.NOP:
            pass
        else:  # pragma: no cover - defensive
            raise ValueError(f"unhandled opclass {opclass}")

        record = DynamicInstruction(
            seq=seq, static=inst, address=address, load_value=load_value,
            store_value=store_value, branch_taken=branch_taken, next_pc=next_pc,
            thread_id=self.thread_id,
        )
        self.instruction_count += 1
        self.pc = next_pc
        if self.pc not in self.program:
            self.halted = True
        return record

    def run(self, max_instructions: int) -> List[DynamicInstruction]:
        """Execute up to ``max_instructions`` instructions and return the trace."""
        if max_instructions <= 0:
            raise ValueError("max_instructions must be positive")
        trace: List[DynamicInstruction] = []
        while len(trace) < max_instructions and not self.halted:
            trace.append(self.step())
        return trace

    def apply_external_write(self, address: int, value: int) -> None:
        """Apply a write performed by another core (used to generate snoop traffic)."""
        self.memory.write(address, value)
