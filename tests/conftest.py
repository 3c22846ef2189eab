"""Shared builders for hand-crafted traces."""

from __future__ import annotations

import random

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


def random_loop_trace(seed: int) -> Trace:
    """A seeded random looped program: a body of 6-16 static instructions
    run 2-8 times. Loads and stores of 4 or 8 bytes fall in the first 16
    bytes of six lines, half of them addressed by a register. A store often
    writes the last MUL's result and a load often reads the last store's
    address, so loads forward, overlap stores partly and wait for store
    data in flight. ADDs and MULs work over eight registers, and one branch
    in five is mispredicted."""
    rng = random.Random(seed)
    tb = TraceBuilder()
    lines = [0x40_0000 + i * 0x1040 for i in range(6)]
    body = [(0x100 + 4 * k,
             rng.choice(("LOAD", "LOAD", "STORE", "STORE", "ADD", "MUL", "MUL",
                         "BRANCH")),
             rng.randrange(1, 9), rng.randrange(1, 9), rng.randrange(1, 9))
            for k in range(rng.randint(6, 16))]
    mul_dst, stored = 1, lines[0]
    for _ in range(rng.randint(2, 8)):
        for pc, kind, a, b, c in body:
            size = rng.choice((4, 8))
            addr = rng.choice(lines) + rng.randrange(16 // size) * size
            addr_srcs = (b,) if rng.random() < 0.5 else ()
            if kind == "LOAD":
                if rng.random() < 0.5:
                    addr = stored - stored % size
                tb.load(pc, a, addr, size=size, srcs=addr_srcs)
            elif kind == "STORE":
                data = mul_dst if rng.random() < 0.5 else a
                tb.store(pc, addr, tb.regs[data] & ((1 << 8 * size) - 1), size=size,
                         srcs=(data,) + addr_srcs)
                stored = addr
            elif kind == "ADD":
                tb.alu(pc, a, "ADD", srcs=(b,), imm=rng.randrange(1, 16))
            elif kind == "MUL":
                tb.alu(pc, a, "MUL", srcs=(b, c))
                mul_dst = a
            else:
                tb.branch(pc, srcs=(a,), predicted=rng.random() < 0.8)
    return tb.build()


@pytest.fixture
def tb() -> TraceBuilder:
    return TraceBuilder()
