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

ALU_OPS = ("ADD", "SUB", "AND", "OR", "XOR", "SHL", "SHR", "MUL", "MOV", "CMOV")

# number of input operands each op consumes (register sources + immediate)
ALU_ARITY = {
    "ADD": 2, "SUB": 2, "AND": 2, "OR": 2, "XOR": 2,
    "SHL": 2, "SHR": 2, "MUL": 2, "MOV": 1, "CMOV": 3,
}

# cycles on a functional unit; MUL is the only long-latency op
ALU_LATENCY = {
    "ADD": 1, "SUB": 1, "AND": 1, "OR": 1, "XOR": 1,
    "SHL": 1, "SHR": 1, "MUL": 3, "MOV": 1, "CMOV": 1,
}

# functional-unit classes: MUL issues to a multiplier, every other op (and
# a branch) to an ALU
FU_ALU, FU_MUL = 0, 1
ALU_FU = {op: FU_MUL if op == "MUL" else FU_ALU for op in ALU_OPS}


class ArithmeticFault(Exception):
    """Raised by the strict evaluator for operations the datapath would trap on."""


def alu_eval(op: str, operands: list[int] | tuple[int, ...]) -> int:
    """Core datapath semantics: total on all inputs, shift counts masked."""
    a = operands[0] & MASK64
    if op == "MOV":
        return a
    if op == "CMOV":
        return (operands[1] if a != 0 else operands[2]) & MASK64
    b = operands[1] & MASK64
    if op == "ADD":
        return (a + b) & MASK64
    if op == "SUB":
        return (a - b) & MASK64
    if op == "AND":
        return a & b
    if op == "OR":
        return a | b
    if op == "XOR":
        return a ^ b
    if op == "MUL":
        return (a * b) & MASK64
    if op == "SHL":
        return (a << (b & 63)) & MASK64
    if op == "SHR":
        return (a >> (b & 63)) & MASK64
    raise ValueError(f"unknown alu op {op!r}")


def alu_eval_strict(op: str, operands: list[int] | tuple[int, ...]) -> int:
    """Recomputation-engine semantics: faults on out-of-range shift counts."""
    if op in ("SHL", "SHR") and (operands[1] & MASK64) > 63:
        raise ArithmeticFault(f"{op} count {operands[1]} out of range")
    return alu_eval(op, operands)
