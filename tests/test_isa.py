import pytest
from hypothesis import example, given, settings, strategies as st

from vrcsim.isa import (ALU_ARITY, ALU_FNS, ALU_OPS, MASK64, ArithmeticFault,
                        alu_eval, alu_eval_strict)


def reference_alu_eval(op, operands):
    """The datapath as an if-chain over an operand list, kept as the
    reference the op table must match."""
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


# immediates may be negative, and values at or above 2**64 must be masked
_operand = st.one_of(st.integers(-(1 << 70), 1 << 70),
                     st.sampled_from([0, 1, 63, 64, 65, 127, MASK64, 1 << 64,
                                      (1 << 64) + 1, -1, -64, -(1 << 64)]))


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(st.sampled_from(ALU_OPS), st.lists(_operand, min_size=3, max_size=3))
@example("CMOV", [0, 5, 7])
@example("CMOV", [1 << 64, 5, 7])
@example("CMOV", [-3, 1 << 64, 7])
@example("SHL", [1, 64, 0])
@example("SHR", [-1, 65, 0])
def test_alu_table_matches_the_if_chain(op, operands):
    operands = operands[:ALU_ARITY[op]]
    expected = reference_alu_eval(op, operands)
    assert ALU_FNS[op](*operands) == expected
    assert alu_eval(op, operands) == expected
    assert 0 <= expected <= MASK64


def test_operand_counts_come_from_the_table():
    assert ALU_ARITY == {"ADD": 2, "SUB": 2, "AND": 2, "OR": 2, "XOR": 2,
                         "SHL": 2, "SHR": 2, "MUL": 2, "MOV": 1, "CMOV": 3}
    assert ALU_OPS == tuple(ALU_FNS)


@pytest.mark.parametrize("op", ["SHL", "SHR"])
@pytest.mark.parametrize("count", [64, 65, 1 << 64 | 64])
def test_strict_eval_faults_on_shift_counts_out_of_range(op, count):
    with pytest.raises(ArithmeticFault):
        alu_eval_strict(op, [1, count])
    assert alu_eval_strict(op, [1, count & 63]) == alu_eval(op, [1, count])
