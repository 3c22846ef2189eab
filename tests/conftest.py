"""Shared test traces: seeded random looped programs and the `tb` fixture,
an empty `workloads.TraceBuilder`."""

from __future__ import annotations

import random

import pytest

from vrcsim.trace import Trace
from vrcsim.workloads import TraceBuilder


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
