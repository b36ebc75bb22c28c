"""Architectural register definitions and a simple register file.

The register namespace mirrors x86-64: sixteen general-purpose integer
registers, with ``RSP``/``RBP`` designated as stack registers (the paper's
"stack-relative" addressing mode uses exactly these two as the only source
register).  The optional APX extension (paper appendix B) doubles the register
count to 32; workloads can be generated for either register budget.
"""

from __future__ import annotations

from typing import List, Optional

#: Baseline x86-64 general purpose register names, in encoding order.
REGISTER_NAMES: List[str] = [
    "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
]

#: Number of architectural integer registers without APX.
ARCH_REGISTER_COUNT = 16

#: Number of architectural integer registers with the APX extension.
APX_REGISTER_COUNT = 32

#: Stack pointer register index (``rsp``).
RSP = REGISTER_NAMES.index("rsp")

#: Frame/base pointer register index (``rbp``).
RBP = REGISTER_NAMES.index("rbp")

#: The two registers whose use as the sole address source makes a load
#: "stack-relative" in the paper's taxonomy.
STACK_REGISTERS = frozenset({RSP, RBP})

_MASK64 = (1 << 64) - 1


def register_name(index: int) -> str:
    """Return a printable name for register ``index`` (APX registers are ``r16``..)."""
    if index < 0:
        raise ValueError(f"register index must be non-negative, got {index}")
    if index < len(REGISTER_NAMES):
        return REGISTER_NAMES[index]
    return f"r{index}"


class RegisterFile:
    """A flat architectural register file holding 64-bit unsigned values.

    Used by the functional VM (`repro.workloads.vm`) to execute synthetic
    programs and produce traces.  Values wrap modulo 2**64 like hardware.
    """

    def __init__(self, count: int = ARCH_REGISTER_COUNT, initial: Optional[List[int]] = None):
        if count <= 0:
            raise ValueError("register file must have at least one register")
        self._count = count
        if initial is None:
            self._values = [0] * count
        else:
            if len(initial) != count:
                raise ValueError("initial values length must equal register count")
            self._values = [v & _MASK64 for v in initial]

    @property
    def count(self) -> int:
        """Number of architectural registers."""
        return self._count

    def read(self, index: int) -> int:
        """Read register ``index``."""
        return self._values[index]

    def write(self, index: int, value: int) -> None:
        """Write ``value`` (wrapped to 64 bits) into register ``index``."""
        self._values[index] = value & _MASK64

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        pairs = ", ".join(f"{register_name(i)}={v:#x}" for i, v in enumerate(self._values))
        return f"RegisterFile({pairs})"
