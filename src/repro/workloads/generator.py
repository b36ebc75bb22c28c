"""Workload generation: compose kernels into a program, run the VM, emit a trace.

A workload is: a preamble (stack setup + kernel setup code), an outer loop
whose body concatenates every kernel's body, and an effectively unbounded
outer-loop counter.  The functional VM executes the program for the requested
instruction budget; cross-core writes to the shared region are interleaved
while the VM runs so the functional load values stay consistent with the
snoop events delivered by the timing model.
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.isa.instruction import DynamicInstruction, SnoopEvent
from repro.isa.program import Program, ProgramBuilder
from repro.isa.registers import ARCH_REGISTER_COUNT, RBP, RSP
from repro.workloads.trace import Trace

if TYPE_CHECKING:
    from repro.workloads.kernels import KernelContext
    from repro.workloads.vm import FunctionalVM

#: Code base address of each hardware thread's workload, by thread position:
#: an SMT second thread starts elsewhere so two threads never alias in the
#: PC-indexed predictors.
THREAD_BASE_PCS = (0x400000, 0x800000)

#: Code base address of a generated workload (the first thread's).
DEFAULT_BASE_PC = THREAD_BASE_PCS[0]

#: Register used as the outer-loop counter in every generated workload.
OUTER_COUNTER_REGISTER = 15

#: Outer-loop trip count; large enough that the loop never exits within any
#: realistic instruction budget.
_OUTER_TRIP_COUNT = 1 << 30


def build_workload_program(kernel_recipes: Sequence[Tuple[str, Dict[str, object]]],
                           num_registers: int = ARCH_REGISTER_COUNT,
                           seed: int = 0,
                           base_pc: int = DEFAULT_BASE_PC) -> Tuple[Program, KernelContext]:
    """Assemble a workload program from ``(kernel_name, params)`` recipes.

    Returns the program and the kernel context (which records, among other
    things, the shared-region addresses eligible for external writes).
    """
    # Imported on first use, like the VM in generate_trace: the runner binds
    # this module, and the caches read its base PCs, in runs that generate no
    # trace at all.
    from repro.workloads.kernels import STACK_TOP, KernelContext, create_kernel

    if not kernel_recipes:
        raise ValueError("a workload needs at least one kernel")
    rng = random.Random(seed)
    ctx = KernelContext(num_registers=num_registers)
    builder = ProgramBuilder(base_pc=base_pc)

    # Stack setup: rbp at the top of the stack region, rsp one page below.
    builder.movi(RBP, STACK_TOP)
    builder.movi(RSP, STACK_TOP - 0x1000)
    builder.movi(OUTER_COUNTER_REGISTER, _OUTER_TRIP_COUNT)

    kernels = [create_kernel(name, ctx, rng, **dict(params))
               for name, params in kernel_recipes]
    for kernel in kernels:
        kernel.setup(builder)

    outer_top = builder.here("outer_loop")
    for kernel in kernels:
        kernel.body(builder)
    builder.addi(OUTER_COUNTER_REGISTER, OUTER_COUNTER_REGISTER, -1)
    builder.jnz(OUTER_COUNTER_REGISTER, outer_top)

    return builder.build(), ctx


def _run_with_external_writes(vm: FunctionalVM,
                              num_instructions: int,
                              shared_addresses: Sequence[int],
                              external_write_interval: int,
                              silent: bool,
                              rng: random.Random) -> Tuple[List[DynamicInstruction], List[SnoopEvent]]:
    """Run the VM, interleaving cross-core writes every ``external_write_interval`` instructions."""
    instructions: List[DynamicInstruction] = []
    snoops: List[SnoopEvent] = []
    next_write_at = external_write_interval if external_write_interval else None
    while len(instructions) < num_instructions and not vm.halted:
        if (next_write_at is not None and shared_addresses
                and vm.instruction_count >= next_write_at):
            address = rng.choice(list(shared_addresses))
            if silent:
                value = vm.memory.read(address)
            else:
                value = rng.randrange(1, 1 << 40)
            vm.apply_external_write(address, value)
            snoops.append(SnoopEvent(after_seq=vm.instruction_count, address=address))
            next_write_at += external_write_interval
        instructions.append(vm.step())
    return instructions, snoops


def generate_trace(spec, num_instructions: int = 50_000,
                   num_registers: Optional[int] = None,
                   base_pc: int = DEFAULT_BASE_PC) -> Trace:
    """Generate the dynamic trace for a :class:`~repro.workloads.suites.WorkloadSpec`."""
    if num_instructions <= 0:
        raise ValueError("num_instructions must be positive")
    registers = num_registers if num_registers is not None else spec.num_registers
    kernel_recipes = spec.kernel_recipes(num_registers=registers)
    program, ctx = build_workload_program(
        kernel_recipes, num_registers=registers, seed=spec.seed, base_pc=base_pc,
    )
    from repro.workloads.vm import FunctionalVM, SparseMemory

    memory = SparseMemory(initial=ctx.initial_memory)
    vm = FunctionalVM(program, num_registers=registers, memory=memory)
    rng = random.Random(spec.seed ^ 0xBEEF)
    instructions, snoops = _run_with_external_writes(
        vm, num_instructions, ctx.shared_addresses,
        spec.external_write_interval, spec.external_writes_silent, rng,
    )
    metadata = {
        "seed": spec.seed,
        "kernels": [name for name, _ in kernel_recipes],
        "external_write_interval": spec.external_write_interval,
        "shared_addresses": list(ctx.shared_addresses),
    }
    return Trace(
        name=spec.name, category=spec.suite, instructions=instructions,
        snoops=snoops, program=program, num_registers=registers, metadata=metadata,
    )


def trace_signature(trace: Trace) -> str:
    """SHA-256 digest of a trace's complete dynamic content.

    Two traces are bit-identical exactly when their signatures match: the
    digest covers every dynamic instruction (sequence number, PC, effective
    address, load/store values, branch outcome, next PC, thread), every snoop
    event, and the trace-level parameters.  The differential determinism tests
    and the committed golden fixtures use this to pin trace generation without
    storing traces.
    """
    hasher = hashlib.sha256()
    hasher.update(repr((trace.name, trace.category, trace.num_registers,
                        len(trace.instructions))).encode("utf-8"))
    for dyn in trace.instructions:
        hasher.update(repr((dyn.seq, dyn.pc, dyn.opclass.value, dyn.address,
                            dyn.load_value, dyn.store_value, dyn.branch_taken,
                            dyn.next_pc, dyn.thread_id)).encode("utf-8"))
    for snoop in trace.snoops:
        hasher.update(repr((snoop.after_seq, snoop.address,
                            snoop.writer_core)).encode("utf-8"))
    return hasher.hexdigest()
