"""Shared builders for hand-crafted traces."""

from __future__ import annotations

import pytest

from vrcsim.isa import alu_eval
from vrcsim.trace import BranchInfo, Trace, TraceHeader, TraceInstruction


class TraceBuilder:
    """Assembles small hand-written traces with automatic seq numbering,
    a register-value model, and byte-accurate store/load consistency."""

    def __init__(self, regs: int = 64):
        self.num_regs = regs
        self.regs = [0] * regs
        self.instrs: list[TraceInstruction] = []
        self._mem: dict[int, int] = {}

    def _append(self, **kw) -> TraceInstruction:
        ins = TraceInstruction(seq=len(self.instrs), **kw)
        self.instrs.append(ins)
        return ins

    def alu(self, pc, dst, op, srcs=(), imm=None, fault=False):
        ops = [self.regs[r] for r in srcs]
        if imm is not None:
            ops.append(imm)
        self.regs[dst] = alu_eval(op, ops)
        return self._append(pc=pc, kind="ALU", dst=dst, srcs=tuple(srcs), imm=imm,
                            alu_op=op, may_fault=fault)

    def load(self, pc, dst, addr, value=None, size=8, srcs=(), fault=False):
        if value is None:
            value = self.read_mem(addr, size)
        if dst is not None:
            self.regs[dst] = value
        return self._append(pc=pc, kind="LOAD", dst=dst, srcs=tuple(srcs),
                            mem_addr=addr, mem_size=size, mem_value=value,
                            may_fault=fault)

    def store(self, pc, addr, value=None, size=8, srcs=(), fault=False):
        if value is None:
            value = self.regs[srcs[0]] if srcs else 0
        for off in range(size):
            self._mem[addr + off] = (value >> (8 * off)) & 0xFF
        return self._append(pc=pc, kind="STORE", srcs=tuple(srcs),
                            mem_addr=addr, mem_size=size, mem_value=value,
                            may_fault=fault)

    def branch(self, pc, srcs=(), taken=True, predicted=True):
        return self._append(pc=pc, kind="BRANCH", srcs=tuple(srcs),
                            br=BranchInfo(taken=taken, predicted_correctly=predicted))

    def nop(self, pc, srcs=(), fault=False):
        return self._append(pc=pc, kind="NOP", srcs=tuple(srcs), may_fault=fault)

    def read_mem(self, addr, size=8) -> int:
        return sum(self._mem.get(addr + off, 0) << (8 * off) for off in range(size))

    def build(self) -> Trace:
        return Trace(header=TraceHeader(regs=self.num_regs),
                     instructions=tuple(self.instrs))


@pytest.fixture
def tb() -> TraceBuilder:
    return TraceBuilder()
