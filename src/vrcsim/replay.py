"""In-order functional replay of a trace.

This is the architectural reference every timing simulation is compared
against: registers start at zero, ALU results are computed from operand
values, loads yield the value observed in the trace, and stores write their
traced value to a byte-granular memory image. The timing core must commit
exactly these values regardless of policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .isa import MASK64, alu_eval
from .trace import Trace


@dataclass(slots=True)
class ReplayResult:
    results: list          # per-seq destination value, None for no dst
    final_regs: list[int]
    final_mem: dict[int, int] = field(default_factory=dict)  # byte addr -> byte
    store_mismatches: list[int] = field(default_factory=list)


def functional_replay(trace: Trace) -> ReplayResult:
    regs = [0] * 64
    results: list = [None] * len(trace.instructions)
    mem: dict[int, int] = {}
    mismatches: list[int] = []
    for ins in trace.instructions:
        if ins.kind == "ALU":
            ops = [regs[r] for r in ins.srcs]
            if ins.imm is not None:
                ops.append(ins.imm)
            value = alu_eval(ins.alu_op, ops)
            regs[ins.dst] = value
            results[ins.seq] = value
        elif ins.kind == "LOAD":
            value = ins.mem_value & MASK64
            if ins.dst is not None:
                regs[ins.dst] = value
            results[ins.seq] = value
        elif ins.kind == "STORE":
            data = regs[ins.srcs[0]] if ins.srcs else (ins.imm or 0)
            if data & MASK64 != ins.mem_value & MASK64:
                mismatches.append(ins.seq)
            for off in range(ins.mem_size):
                mem[ins.mem_addr + off] = (ins.mem_value >> (8 * off)) & 0xFF
    return ReplayResult(results=results, final_regs=regs, final_mem=mem,
                        store_mismatches=mismatches)
