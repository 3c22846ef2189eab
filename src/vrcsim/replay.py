"""In-order functional replay of a trace.

This is the architectural reference every timing simulation is compared
against: registers start at zero, ALU results are computed from operand
values and loads yield the value observed in the trace. Stores write no
register, so the replay keeps no memory image: `validate_trace` checks each
load's traced value against the bytes earlier stores wrote. Nothing checks a
store's traced value against its data register. The timing core must commit
exactly these values regardless of policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .isa import MASK64, alu_eval
from .trace import Trace


@dataclass(slots=True)
class ReplayResult:
    results: list          # per-seq destination value, None for no dst
    final_regs: list[int]


def functional_replay(trace: Trace) -> ReplayResult:
    regs = [0] * 64
    results: list = [None] * len(trace.instructions)
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
    return ReplayResult(results=results, final_regs=regs)
