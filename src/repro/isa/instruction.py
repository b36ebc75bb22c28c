"""Micro-op model: opcode classes, addressing modes, static and dynamic instructions.

A *static* instruction is a single program location (PC).  A *dynamic*
instruction is one executed instance of a static instruction, carrying the
values the functional VM observed (effective address, loaded value, branch
outcome).  The timing model consumes dynamic instructions; the Constable golden
check compares what the out-of-order model produced against these functional
values at retirement (paper §8.5).
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from repro.isa.registers import STACK_REGISTERS


class OpClass(enum.Enum):
    """Coarse operation classes, enough to drive port binding and latency."""

    ALU = "alu"          # single-cycle integer op
    MUL = "mul"          # 3-cycle integer multiply
    DIV = "div"          # long-latency divide
    LOAD = "load"        # memory read
    STORE = "store"      # memory write
    BRANCH = "branch"    # conditional branch
    JUMP = "jump"        # unconditional branch / call / return
    MOVE_REG = "movr"    # register-to-register move (move-elimination candidate)
    MOVE_IMM = "movi"    # immediate move (zero/constant-idiom candidate)
    NOP = "nop"


#: Operation classes that reference memory.
MEMORY_OP_CLASSES = frozenset({OpClass.LOAD, OpClass.STORE})

#: Operation classes that redirect control flow.
CONTROL_OP_CLASSES = frozenset({OpClass.BRANCH, OpClass.JUMP})


class AddressingMode(enum.Enum):
    """Load/store addressing-mode taxonomy used throughout the paper (Fig. 3b)."""

    NONE = "none"                  # not a memory operation
    PC_RELATIVE = "pc_relative"    # RIP-relative: no register address sources
    STACK_RELATIVE = "stack"       # RSP/RBP is the only register address source
    REG_RELATIVE = "register"      # any other general-purpose register source


class MemOperand:
    """Memory operand of a load or store: ``[base + index*scale + disp]``.

    ``base``/``index`` are architectural register indices or ``None``.  A
    PC-relative operand has neither base nor index.
    """

    __slots__ = ("base", "index", "scale", "disp")

    def __init__(self, base: Optional[int] = None, index: Optional[int] = None,
                 scale: int = 1, disp: int = 0):
        if scale not in (1, 2, 4, 8):
            raise ValueError(f"scale must be 1, 2, 4 or 8, got {scale}")
        self.base = base
        self.index = index
        self.scale = scale
        self.disp = disp

    def address_registers(self) -> Tuple[int, ...]:
        """Architectural registers read to form the effective address."""
        regs = []
        if self.base is not None:
            regs.append(self.base)
        if self.index is not None and self.index != self.base:
            regs.append(self.index)
        return tuple(regs)

    def addressing_mode(self) -> AddressingMode:
        """Classify this operand per the paper's PC/stack/register-relative taxonomy."""
        regs = self.address_registers()
        if not regs:
            return AddressingMode.PC_RELATIVE
        if all(r in STACK_REGISTERS for r in regs):
            return AddressingMode.STACK_RELATIVE
        return AddressingMode.REG_RELATIVE

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"MemOperand(base={self.base}, index={self.index}, "
                f"scale={self.scale}, disp={self.disp:#x})")


class StaticInstruction:
    """One program location: opcode, operands, and control-flow targets.

    Decode-time facts (``is_load``/``is_store``/``is_branch``, the source
    register set, the addressing mode) are computed once at construction:
    the out-of-order core consults them for every dynamic instance, and the
    operands they derive from are final after construction (only
    ``branch_target`` is patched later, by label resolution).
    """

    __slots__ = (
        "pc", "opclass", "dest", "srcs", "alu_op", "imm", "mem",
        "branch_target", "cond", "size",
        "is_load", "is_store", "is_branch", "_source_registers", "_addressing_mode",
    )

    def __init__(self, pc: int, opclass: OpClass, dest: Optional[int] = None,
                 srcs: Tuple[int, ...] = (), alu_op: str = "add", imm: int = 0,
                 mem: Optional[MemOperand] = None, branch_target: Optional[int] = None,
                 cond: str = "", size: int = 8):
        if opclass in MEMORY_OP_CLASSES and mem is None:
            raise ValueError("memory operations require a MemOperand")
        if opclass in CONTROL_OP_CLASSES and branch_target is None:
            raise ValueError("control operations require a branch target")
        self.pc = pc
        self.opclass = opclass
        self.dest = dest
        self.srcs = tuple(srcs)
        self.alu_op = alu_op
        self.imm = imm
        self.mem = mem
        self.branch_target = branch_target
        self.cond = cond
        self.size = size
        self.is_load = opclass is OpClass.LOAD
        self.is_store = opclass is OpClass.STORE
        self.is_branch = opclass in CONTROL_OP_CLASSES
        regs = list(self.srcs)
        if mem is not None:
            for r in mem.address_registers():
                if r not in regs:
                    regs.append(r)
        self._source_registers = tuple(regs)
        self._addressing_mode = (AddressingMode.NONE if mem is None
                                 else mem.addressing_mode())

    def source_registers(self) -> Tuple[int, ...]:
        """All architectural registers this instruction reads.

        For a load, these are exactly the address-source registers that
        Constable's Register Monitor Table has to watch (Condition 1, §5).
        """
        return self._source_registers

    def addressing_mode(self) -> AddressingMode:
        """Addressing mode of the memory operand (``NONE`` for non-memory ops)."""
        return self._addressing_mode

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"StaticInstruction(pc={self.pc:#x}, {self.opclass.value}, "
                f"dest={self.dest}, srcs={self.srcs})")


class DynamicInstruction:
    """One executed instance of a static instruction, as seen by the functional VM.

    The static decode (``pc``/``opclass``/``is_load``/``is_store``/``is_branch``)
    is flattened onto the dynamic record at construction so the simulator's hot
    loop reads plain slot attributes instead of chasing ``.static.*`` chains on
    every cycle.
    """

    __slots__ = (
        "seq", "static", "address", "load_value", "store_value",
        "branch_taken", "next_pc", "thread_id",
        "pc", "opclass", "is_load", "is_store", "is_branch",
    )

    def __init__(self, seq: int, static: StaticInstruction, address: int = 0,
                 load_value: int = 0, store_value: int = 0,
                 branch_taken: bool = False, next_pc: int = 0, thread_id: int = 0):
        self.seq = seq
        self.static = static
        self.address = address
        self.load_value = load_value
        self.store_value = store_value
        self.branch_taken = branch_taken
        self.next_pc = next_pc
        self.thread_id = thread_id
        self.pc = static.pc
        self.opclass = static.opclass
        self.is_load = static.is_load
        self.is_store = static.is_store
        self.is_branch = static.is_branch

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"DynamicInstruction(seq={self.seq}, pc={self.pc:#x}, "
                f"{self.opclass.value}, addr={self.address:#x})")


class SnoopEvent:
    """A cross-core invalidation arriving at the core.

    ``after_seq`` anchors the snoop in the dynamic instruction stream: the
    timing model delivers it once the instruction with that sequence number has
    been fetched.  ``address`` is a byte address; delivery happens at cacheline
    granularity (paper §6.6).
    """

    __slots__ = ("after_seq", "address", "writer_core")

    def __init__(self, after_seq: int, address: int, writer_core: int = 1):
        self.after_seq = after_seq
        self.address = address
        self.writer_core = writer_core

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SnoopEvent(after_seq={self.after_seq}, address={self.address:#x})"
