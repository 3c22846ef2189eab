"""Integer operation semantics shared by the trace replayer, the slicer and
the recomputation engine.

All values are 64-bit unsigned; arithmetic wraps. Shift counts are taken
modulo 64 by the core datapath. The recomputation engine deliberately does
NOT mask shift counts and instead raises ArithmeticFault for counts >= 64,
which is the fallback path for stale or adversarial slice annotations.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

# cache line size: no trace access crosses a line, the hierarchy caches
# lines and the engine's lossy store tags are line-granular
LINE_BYTES = 64

# core datapath semantics, one function per op over positional operands
# (register sources, then the immediate): total on all inputs, operands
# masked to 64 bits, shift counts masked
ALU_FNS = {
    "ADD": lambda a, b: (a + b) & MASK64,
    "SUB": lambda a, b: (a - b) & MASK64,
    "AND": lambda a, b: a & b & MASK64,
    "OR": lambda a, b: (a | b) & MASK64,
    "XOR": lambda a, b: (a ^ b) & MASK64,
    "SHL": lambda a, b: (a << (b & 63)) & MASK64,
    "SHR": lambda a, b: (a & MASK64) >> (b & 63),
    "MUL": lambda a, b: (a * b) & MASK64,
    "MOV": lambda a: a & MASK64,
    "CMOV": lambda c, a, b: (a if c & MASK64 else b) & MASK64,
}
ALU_OPS = tuple(ALU_FNS)
# number of input operands each op consumes
ALU_ARITY = {op: fn.__code__.co_argcount for op, fn in ALU_FNS.items()}

# cycles on a functional unit; MUL is the only long-latency op
ALU_LATENCY = {op: 3 if op == "MUL" else 1 for op in ALU_OPS}

# functional-unit classes: MUL issues to a multiplier, every other op (and
# a branch) to an ALU
FU_ALU, FU_MUL = 0, 1
ALU_FU = {op: FU_MUL if op == "MUL" else FU_ALU for op in ALU_OPS}


class ArithmeticFault(Exception):
    """Raised by the strict evaluator for operations the datapath would trap on."""


def alu_eval(op: str, operands: list[int] | tuple[int, ...]) -> int:
    """Core datapath semantics: total on all inputs, shift counts masked."""
    return ALU_FNS[op](*operands)


def alu_eval_strict(op: str, operands: list[int] | tuple[int, ...]) -> int:
    """Recomputation-engine semantics: faults on out-of-range shift counts."""
    if op in ("SHL", "SHR") and (operands[1] & MASK64) > 63:
        raise ArithmeticFault(f"{op} count {operands[1]} out of range")
    return alu_eval(op, operands)
