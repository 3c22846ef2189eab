import dataclasses
import hashlib
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from vrcsim import slicer, trace as trace_mod
from vrcsim.core import POLICIES, CoreConfig, ProbeSpec, inject_transient_probe, run
from vrcsim.isa import ALU_LATENCY, FU_ALU, FU_MUL
from vrcsim.trace import (
    KINDS, PATTERNS, SyntheticSpecError, SyntheticWorkloadSpec,
    Trace, TraceFormatError, TraceHeader, TraceInstruction, BranchInfo,
    emit_trace, gen_synthetic, parse_trace, validate_trace, window_trace,
)

HEADER = "H version=1 regs=64\n"


def test_parse_single_alu_record():
    t = parse_trace(HEADER + "I seq=0 pc=0x10 kind=ALU dst=1 srcs=2,3 alu_op=ADD\n")
    assert len(t) == 1
    ins = t[0]
    assert ins.kind == "ALU" and ins.dst == 1 and ins.srcs == (2, 3)
    assert ins.alu_op == "ADD"


def test_parse_empty_body():
    t = parse_trace(HEADER)
    assert len(t) == 0
    assert t.header.regs == 64


def test_parse_bad_mem_size_reports_line():
    stream = HEADER + "I seq=0 pc=0x10 kind=LOAD dst=1 mem_addr=0x40 mem_size=3 mem_value=0x1\n"
    with pytest.raises(TraceFormatError, match="out of range") as exc:
        parse_trace(stream)
    assert exc.value.lineno == 2


def test_parse_version_mismatch():
    with pytest.raises(TraceFormatError, match="version mismatch"):
        parse_trace("H version=9 regs=64\n")


def test_parse_register_out_of_range():
    with pytest.raises(TraceFormatError, match="register"):
        parse_trace("H version=1 regs=8\nI seq=0 pc=0x0 kind=ALU dst=9 srcs=1 imm=1 alu_op=ADD\n")


def test_parse_rejects_bytes_and_accepts_them():
    t = parse_trace((HEADER + "I seq=0 pc=0x4 kind=NOP\n").encode())
    assert t[0].kind == "NOP"


def test_parse_arity_check():
    with pytest.raises(TraceFormatError, match="expects 2 operands"):
        parse_trace(HEADER + "I seq=0 pc=0x0 kind=ALU dst=1 srcs=2 alu_op=ADD\n")


_I = "I seq=0 pc=0x0 "
_LD = "kind=LOAD dst=1 mem_addr=0x40 mem_size=8 mem_value=0x1"
_ST = "kind=STORE srcs=1 mem_addr=0x40 mem_size=8 mem_value=0x1"
_BR = "kind=BRANCH srcs=1 taken=1 pred=1"
_ALU = "kind=ALU dst=1 srcs=2,3 alu_op=ADD"

# (stream, lineno, message): one malformed line per rejection branch of the
# header path and of an instruction record; instruction rows sit on line 2
MALFORMED = [
    # record framing and header
    ("", 1, "missing header record"),
    ("# note: only a comment\n\n", 1, "missing header record"),
    (_I + "kind=NOP\n", 1, "instruction record before header"),
    (HEADER + "X seq=0\n", 2, "unknown record tag 'X'"),
    (HEADER + HEADER, 2, "duplicate header record"),
    ("H version=1 regs\n", 1, "malformed field 'regs' (expected key=value)"),
    ("H version=1 version=1 regs=64\n", 1, "duplicate field 'version'"),
    ("H version=1 regs=64 bogus=3\n", 1, "unknown fields ['bogus']"),
    ("H version=1 bogus=3 notes=x\n", 1, "unknown fields ['bogus', 'notes']"),
    ("H version=1\n", 1, "header must carry version and regs"),
    ("H regs=64\n", 1, "header must carry version and regs"),
    ("H version=one regs=64\n", 1, "field version: not an integer: 'one'"),
    ("H version=2 regs=64\n", 1, "version mismatch: got 2, expected 1"),
    ("H version=1 regs=x\n", 1, "field regs: not an integer: 'x'"),
    ("H version=1 regs=0\n", 1, "field out of range: regs 0"),
    ("H version=1 regs=65\n", 1, "field out of range: regs 65"),
    # instruction fields
    (HEADER + _I + "kind=NOP x\n", 2, "malformed field 'x' (expected key=value)"),
    (HEADER + "I seq=0 seq=1 pc=0x0 kind=NOP\n", 2, "duplicate field 'seq'"),
    (HEADER + _I + "kind=NOP zap=2 bogus=1\n", 2, "unknown fields ['bogus', 'zap']"),
    (HEADER + "I pc=0x0 kind=NOP\n", 2, "missing required field 'seq'"),
    (HEADER + "I seq=0 kind=NOP\n", 2, "missing required field 'pc'"),
    (HEADER + "I seq=0 pc=0x0\n", 2, "missing required field 'kind'"),
    (HEADER + _I + "kind=FOO\n", 2, "field kind: out of range: 'FOO'"),
    (HEADER + "I seq=x pc=0x0 kind=NOP\n", 2, "field seq: not an integer: 'x'"),
    (HEADER + "I seq=0 pc=0xg kind=NOP\n", 2, "field pc: not an integer: '0xg'"),
    (HEADER + "I seq=-1 pc=0x0 kind=NOP\n", 2,
     "field out of range: seq/pc must be non-negative"),
    (HEADER + "I seq=0 pc=-4 kind=NOP\n", 2,
     "field out of range: seq/pc must be non-negative"),
    (HEADER + _I + "kind=ALU dst=r1 srcs=2,3 alu_op=ADD\n", 2,
     "field dst: not an integer: 'r1'"),
    (HEADER + _I + "kind=ALU dst=1 srcs=2,,3 alu_op=ADD\n", 2,
     "field srcs: not an integer: ''"),
    (HEADER + _I + "kind=ALU dst=1 srcs=2 imm=z alu_op=ADD\n", 2,
     "field imm: not an integer: 'z'"),
    (HEADER + _I + "kind=ALU dst=1 srcs=1,2,3,4 alu_op=ADD\n", 2,
     "field out of range: more than 3 srcs"),
    (HEADER + _I + "kind=ALU dst=1 srcs=2,64 alu_op=ADD\n", 2,
     "field out of range: register 64 (regs=64)"),
    ("H version=1 regs=8\n" + _I + "kind=ALU dst=8 srcs=2,3 alu_op=ADD\n", 2,
     "field out of range: register 8 (regs=8)"),
    (HEADER + _I + "kind=ALU dst=-1 srcs=2,3 alu_op=ADD\n", 2,
     "field out of range: register -1 (regs=64)"),
    (HEADER + _I + "kind=LOAD dst=1 mem_size=8 mem_value=0x1\n", 2,
     "LOAD record missing 'mem_addr'"),
    (HEADER + _I + "kind=STORE srcs=1 mem_addr=0x40 mem_value=0x1\n", 2,
     "STORE record missing 'mem_size'"),
    (HEADER + _I + "kind=LOAD dst=1 mem_addr=0x40 mem_size=8\n", 2,
     "LOAD record missing 'mem_value'"),
    (HEADER + _I + _LD.replace("mem_addr=0x40", "mem_addr=a") + "\n", 2,
     "field mem_addr: not an integer: 'a'"),
    (HEADER + _I + _ST.replace("mem_size=8", "mem_size=b") + "\n", 2,
     "field mem_size: not an integer: 'b'"),
    (HEADER + _I + _LD.replace("mem_value=0x1", "mem_value=c") + "\n", 2,
     "field mem_value: not an integer: 'c'"),
    (HEADER + _I + _LD.replace("mem_size=8", "mem_size=3") + "\n", 2,
     "field out of range: mem_size 3"),
    (HEADER + _I + _ST.replace("mem_addr=0x40", "mem_addr=-64") + "\n", 2,
     "field out of range: mem_addr/mem_value"),
    (HEADER + _I + _LD.replace("mem_value=0x1", "mem_value=0x10000000000000000")
     + "\n", 2, "field out of range: mem_addr/mem_value"),
    (HEADER + _I + _LD.replace("mem_value=0x1", "mem_value=-1") + "\n", 2,
     "field out of range: mem_addr/mem_value"),
    (HEADER + _I + _ALU + " mem_size=8\n", 2, "memory fields not allowed on kind ALU"),
    (HEADER + _I + "kind=NOP mem_value=0x0\n", 2, "memory fields not allowed on kind NOP"),
    (HEADER + _I + "kind=BRANCH srcs=1 taken=1\n", 2, "BRANCH record missing taken/pred"),
    (HEADER + _I + "kind=BRANCH srcs=1 pred=1\n", 2, "BRANCH record missing taken/pred"),
    (HEADER + _I + _BR.replace("taken=1", "taken=y") + "\n", 2,
     "field taken: not an integer: 'y'"),
    (HEADER + _I + _BR.replace("pred=1", "pred=q") + "\n", 2,
     "field pred: not an integer: 'q'"),
    (HEADER + _I + "kind=NOP taken=1\n", 2, "branch fields not allowed on kind NOP"),
    (HEADER + _I + _ST + " pred=0\n", 2, "branch fields not allowed on kind STORE"),
    (HEADER + _I + "kind=ALU dst=1 srcs=2,3\n", 2, "ALU record missing alu_op"),
    (HEADER + _I + "kind=ALU dst=1 srcs=2,3 alu_op=FOO\n", 2,
     "field out of range: alu_op 'FOO'"),
    (HEADER + _I + "kind=ALU srcs=2,3 alu_op=ADD\n", 2, "ALU record missing dst"),
    (HEADER + _I + "kind=ALU dst=1 srcs=2 alu_op=ADD\n", 2,
     "alu_op ADD expects 2 operands, got 1"),
    (HEADER + _I + "kind=ALU dst=1 srcs=2 imm=3 alu_op=MOV\n", 2,
     "alu_op MOV expects 1 operands, got 2"),
    (HEADER + _I + _LD + " alu_op=ADD\n", 2, "alu_op not allowed on kind LOAD"),
    (HEADER + _I + "kind=STORE dst=1 srcs=1 mem_addr=0x40 mem_size=8 mem_value=0x1\n",
     2, "dst not allowed on kind STORE"),
    (HEADER + _I + "kind=BRANCH dst=1 srcs=1 taken=1 pred=1\n", 2,
     "dst not allowed on kind BRANCH"),
    (HEADER + _I + "kind=NOP dst=1\n", 2, "dst not allowed on kind NOP"),
    (HEADER + _I + "kind=NOP fault=maybe\n", 2, "field fault: not an integer: 'maybe'"),
    # 0/1 flags
    (HEADER + _I + _BR.replace("taken=1", "taken=7") + "\n", 2,
     "field taken: not 0 or 1: '7'"),
    (HEADER + _I + _BR.replace("pred=1", "pred=2") + "\n", 2,
     "field pred: not 0 or 1: '2'"),
    (HEADER + _I + "kind=NOP fault=5\n", 2, "field fault: not 0 or 1: '5'"),
    (HEADER + _I + "kind=NOP fault=-1\n", 2, "field fault: not 0 or 1: '-1'"),
    # line numbers count comments and blank lines
    ("# note: n\n\n" + HEADER + "# c\n\n  " + _I + "kind=FOO\n", 6,
     "field kind: out of range: 'FOO'"),
]


@pytest.mark.parametrize("stream,lineno,message", MALFORMED,
                         ids=[m for _, _, m in MALFORMED])
def test_parse_rejects_malformed_line(stream, lineno, message):
    with pytest.raises(TraceFormatError) as exc:
        parse_trace(stream)
    assert str(exc.value) == f"line {lineno}: {message}"
    assert exc.value.lineno == lineno


def test_malformed_rows_edit_wellformed_records():
    # each malformed row above breaks one of these valid records
    t = parse_trace(HEADER + "\n".join(
        _I.replace("seq=0", f"seq={i}") + body
        for i, body in enumerate((_LD, _ST, _BR, _ALU, "kind=NOP fault=1"))) + "\n")
    assert [ins.kind for ins in t.instructions] == ["LOAD", "STORE", "BRANCH",
                                                    "ALU", "NOP"]
    assert t[2].br == BranchInfo(True, True) and t[4].may_fault


def test_validate_consistent_store_load(tb):
    tb.store(0x10, 0x40, 7, srcs=(1,))
    tb.load(0x14, 2, 0x40)
    assert validate_trace(tb.build()).ok


def test_validate_value_inconsistency(tb):
    tb.store(0x10, 0x40, 7, srcs=(1,))
    tb.load(0x14, 2, 0x40, value=8)
    report = validate_trace(tb.build())
    assert not report.ok
    assert "value inconsistency at seq=1" in report.violations[0].message


def test_validate_line_crossing(tb):
    tb.load(0x10, 1, 0x3C, value=0)
    report = validate_trace(tb.build())
    assert any("line crossing" in v.message for v in report.violations)


def test_validate_dense_seq():
    t = Trace(header=TraceHeader(),
              instructions=(TraceInstruction(seq=1, pc=0, kind="NOP"),))
    report = validate_trace(t)
    assert any("non-dense" in v.message for v in report.violations)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_gen_validates_clean_and_roundtrips(pattern):
    spec = SyntheticWorkloadSpec(pattern=pattern, count=3000, seed=5)
    t = gen_synthetic(spec)
    assert len(t) == 3000
    assert validate_trace(t).ok
    assert parse_trace(emit_trace(t)) == t


def test_gen_deterministic():
    spec = SyntheticWorkloadSpec(pattern="POINTER_CHASE", count=1000, seed=7)
    assert emit_trace(gen_synthetic(spec)) == emit_trace(gen_synthetic(spec))


def test_gen_seed_changes_output():
    a = gen_synthetic(SyntheticWorkloadSpec(pattern="MIXED", count=1000, seed=1))
    b = gen_synthetic(SyntheticWorkloadSpec(pattern="MIXED", count=1000, seed=2))
    assert emit_trace(a) != emit_trace(b)


def test_gen_invalid_count():
    with pytest.raises(SyntheticSpecError):
        gen_synthetic(SyntheticWorkloadSpec(pattern="STREAM", count=0))


def test_gen_infeasible_recomputable_without_loads():
    with pytest.raises(SyntheticSpecError):
        gen_synthetic(SyntheticWorkloadSpec(
            pattern="COMPUTE_STORE_LOAD", count=100, load_density=0.0,
            recomputable_fraction=1.0))


def test_gen_bad_density():
    with pytest.raises(SyntheticSpecError):
        gen_synthetic(SyntheticWorkloadSpec(pattern="STREAM", count=100,
                                            branch_density=1.5))


def test_window_trace_renumbers():
    t = gen_synthetic(SyntheticWorkloadSpec(pattern="STREAM", count=500, seed=3))
    w = window_trace(t, skip=100, limit=200)
    assert len(w) == 200
    assert [i.seq for i in w.instructions] == list(range(200))
    # windowing preserves store/load value agreement within the window
    assert not any("inconsisten" in v.message
                   for v in validate_trace(w).violations)


def test_window_trace_rejects_negative_skip_and_limit():
    t = gen_synthetic(SyntheticWorkloadSpec(pattern="STREAM", count=100, seed=3))
    with pytest.raises(ValueError, match="skip and limit"):
        window_trace(t, skip=-5)
    with pytest.raises(ValueError, match="skip and limit"):
        window_trace(t, limit=-1)
    assert len(window_trace(t, skip=100, limit=0)) == 0


def _frozen_record_sources():
    t = gen_synthetic(SyntheticWorkloadSpec(pattern="MIXED", count=600, seed=3))
    return {"gen_synthetic": t, "parse_trace": parse_trace(emit_trace(t)),
            "window_trace": window_trace(t, skip=150, limit=300)}


@pytest.mark.parametrize("source", ("gen_synthetic", "parse_trace", "window_trace"))
def test_built_records_are_frozen_trace_instructions(source):
    t = _frozen_record_sources()[source]
    assert {ins.kind for ins in t.instructions} == set(KINDS) - {"NOP"}
    for ins in t.instructions:
        assert type(ins) is TraceInstruction
        kw = {f.name: getattr(ins, f.name) for f in dataclasses.fields(ins)}
        twin = TraceInstruction(**kw)
        assert ins == twin and hash(ins) == hash(twin)
        assert replace(ins, pc=ins.pc + 4) == replace(twin, pc=twin.pc + 4)
        assert type(replace(ins, seq=0)) is TraceInstruction
    for ins in t.instructions[:20]:
        for name in ("seq", "kind", "srcs", "br", "may_fault"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ins, name, None)


# sha256 of emit_trace(gen_synthetic(...)) at count=1500, seed=11: the
# generator and the emitter may change only with a deliberate format change
EMITTED_SHA256 = {
    "POINTER_CHASE": "203ab4a5f7e73efbbe58783476a9f45dde15f13da20ab742fabac2e71fe5611d",
    "STREAM": "72e547a3bfb9f135391245720bba105745e119882ba81ee6410b6a6113a2b6a1",
    "COMPUTE_STORE_LOAD": "481aca261b10c4f8a6d9e6d066b0a06cc9f7a569dcf39c5cfc481428b29520ab",
    "MIXED": "42c734918d12e7f27cd375602fab7ecf7c325bf526da515bfc4e12fc440b87ce",
}


@pytest.mark.parametrize("pattern", PATTERNS)
def test_emitted_trace_bytes_are_pinned(pattern):
    text = emit_trace(gen_synthetic(SyntheticWorkloadSpec(pattern=pattern,
                                                          count=1500, seed=11)))
    assert hashlib.sha256(text.encode()).hexdigest() == EMITTED_SHA256[pattern]


def test_header_notes_roundtrip():
    t = gen_synthetic(SyntheticWorkloadSpec(pattern="STREAM", count=100, seed=1))
    assert t.header.notes
    assert parse_trace(emit_trace(t)).header.notes == t.header.notes


_value = st.integers(min_value=0, max_value=(1 << 64) - 1)


@st.composite
def _instruction_stream(draw):
    n = draw(st.integers(min_value=0, max_value=20))
    instrs = []
    for seq in range(n):
        kind = draw(st.sampled_from(["ALU", "LOAD", "STORE", "BRANCH", "NOP"]))
        pc = draw(st.integers(min_value=0, max_value=1 << 40))
        fault = draw(st.booleans())
        if kind == "ALU":
            op = draw(st.sampled_from(["ADD", "MOV", "CMOV"]))
            nsrc = {"ADD": 2, "MOV": 1, "CMOV": 3}[op]
            use_imm = draw(st.booleans())
            srcs = tuple(draw(st.integers(0, 63))
                         for _ in range(nsrc - (1 if use_imm else 0)))
            imm = draw(st.integers(-1000, 1000)) if use_imm else None
            instrs.append(TraceInstruction(seq=seq, pc=pc, kind=kind, dst=draw(
                st.integers(0, 63)), srcs=srcs, imm=imm, alu_op=op, may_fault=fault))
        elif kind in ("LOAD", "STORE"):
            line = draw(st.integers(0, 1 << 30)) * 64
            size = draw(st.sampled_from([1, 2, 4, 8]))
            offset = draw(st.integers(0, (64 - size) // size)) * size
            common = dict(seq=seq, pc=pc, kind=kind, mem_addr=line + offset,
                          mem_size=size, mem_value=draw(_value), may_fault=fault)
            if kind == "LOAD":
                instrs.append(TraceInstruction(dst=draw(st.integers(0, 63)),
                                               **common))
            else:
                instrs.append(TraceInstruction(srcs=(draw(st.integers(0, 63)),),
                                               **common))
        elif kind == "BRANCH":
            instrs.append(TraceInstruction(
                seq=seq, pc=pc, kind=kind, srcs=(draw(st.integers(0, 63)),),
                br=BranchInfo(draw(st.booleans()), draw(st.booleans())),
                may_fault=fault))
        else:
            instrs.append(TraceInstruction(seq=seq, pc=pc, kind=kind,
                                           may_fault=fault))
    return Trace(header=TraceHeader(), instructions=tuple(instrs))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_instruction_stream())
def test_roundtrip_property(t):
    assert parse_trace(emit_trace(t)) == t


FUZZ_TEXT = emit_trace(gen_synthetic(SyntheticWorkloadSpec(pattern="MIXED",
                                                           count=300, seed=1)))
_TRACE_FRAGMENTS = ("0", "1", "-1", "3", "4", "7", "64", "99", "0x40", "0x3f",
                    "0xffffffffffffffff", "0x10000000000000000", "1,2", "1,2,3,4",
                    "ALU", "LOAD", "STORE", "BRANCH", "NOP", "ADD", "MUL", "CMOV",
                    "FOO", "x", "=", "", "#", "I", "H", "dst=1", "srcs=", "imm=7",
                    "mem_size=4", "taken=1", "pred=0", "fault=1", "version=2")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 100_000), st.booleans(),
                          st.sampled_from(_TRACE_FRAGMENTS)), min_size=1, max_size=3))
@example([])
def test_fuzzed_traces_fail_only_typed(edits):
    # mutate tokens (or just their values) of an emitted trace: parsing
    # either raises TraceFormatError or yields a trace that validates
    # without raising, and a trace that validates runs to completion
    lines = [line.split(" ") for line in FUZZ_TEXT.splitlines()]
    slots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
    for k, value_only, frag in edits:
        i, j = slots[k % len(slots)]
        key, eq, _ = lines[i][j].partition("=")
        lines[i][j] = key + eq + frag if value_only and eq else frag
    try:
        t = parse_trace("\n".join(" ".join(toks) for toks in lines))
    except TraceFormatError:
        return
    if not validate_trace(t).ok:
        return
    for policy in ("BASELINE", "DOM"):
        assert run(t, config=CoreConfig(policy=policy)).committed == len(t)


def test_gen_recomputable_fraction_contract():
    # the slicer, run over the output, must find at least the requested
    # fraction of loads carrying arithmetic-only producer chains
    from vrcsim.slicer import annotate
    for fraction in (0.25, 0.5, 1.0):
        spec = SyntheticWorkloadSpec(pattern="COMPUTE_STORE_LOAD",
                                     count=10_000, seed=1,
                                     recomputable_fraction=fraction)
        _, stats = annotate(gen_synthetic(spec))
        assert stats.dynamic_coverage >= fraction, (fraction, stats.dynamic_coverage)


def _scan_writer(t: Trace, reg: int, seq: int) -> int | None:
    for i in range(seq - 1, -1, -1):
        if t[i].dst == reg:
            return i
    return None


def _check_dataflow_against_scan(t: Trace) -> None:
    df = t.decode
    for seq, ins in enumerate(t.instructions):
        assert df.src_writers[seq] == tuple(_scan_writer(t, r, seq) for r in ins.srcs)
    for seq in sorted({0, len(t)} | set(range(1, len(t), 37))):
        for reg in range(64):
            assert df.writer_before(reg, seq) == _scan_writer(t, reg, seq), (reg, seq)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_dataflow_matches_backward_scan(pattern):
    t = gen_synthetic(SyntheticWorkloadSpec(pattern=pattern, count=600, seed=4))
    _check_dataflow_against_scan(t)


def test_dataflow_of_window_matches_backward_scan():
    t = gen_synthetic(SyntheticWorkloadSpec(pattern="MIXED", count=1500, seed=2))
    _check_dataflow_against_scan(window_trace(t, skip=450, limit=600))


def test_dataflow_unwritten_source_register(tb):
    tb.alu(0x0, 1, "ADD", srcs=(2, 3))      # r2, r3 never written before
    tb.alu(0x4, 2, "MOV", srcs=(1,))
    tb.store(0x8, 0x40, srcs=(2,))
    tb.load(0xC, 4, 0x40, srcs=(5,))        # r5 never written at all
    tb.branch(0x10, srcs=(4,))
    t = tb.build()
    assert t.decode.src_writers == [(None, None), (0,), (1,), (None,), (3,)]
    assert t.decode.writer_before(5, len(t)) is None
    _check_dataflow_against_scan(t)


def _check_core_decode(t: Trace) -> None:
    """Rebuild every decoded field from the instruction and its source
    writers: a store's first source is its data, its others the address; a
    load's sources are its address; any other kind's sources are data. The
    consumer lists are the source writers inverted."""
    dec = t.decode
    fields = (dec.kinds, dec.fus, dec.latencies, dec.casts, dec.src_writers,
              dec.addr_writers, dec.data_writers, dec.consumers)
    assert all(len(f) == len(t) for f in fields)
    for seq, ins in enumerate(t.instructions):
        addr, data = [], []
        for i, w in enumerate(dec.src_writers[seq]):
            is_addr = ins.kind == "LOAD" or (ins.kind == "STORE" and i > 0)
            if w is not None:
                (addr if is_addr else data).append(w)
        assert KINDS[dec.kinds[seq]] == ins.kind
        assert dec.fus[seq] == (FU_MUL if ins.alu_op == "MUL" else FU_ALU)
        assert dec.latencies[seq] == (ALU_LATENCY[ins.alu_op]
                                      if ins.kind == "ALU" else 1)
        assert dec.casts[seq] == (int(ins.may_fault)
                                  + int(ins.kind == "BRANCH")
                                  + int(ins.kind == "STORE"))
        assert dec.addr_writers[seq] == tuple(addr)
        assert dec.data_writers[seq] == tuple(data)
        assert dec.consumers[seq] == [c for c in range(seq + 1, len(t))
                                      if seq in dec.src_writers[c]]


@pytest.mark.parametrize("pattern", PATTERNS)
def test_core_decode_matches_rebuild(pattern):
    t = gen_synthetic(SyntheticWorkloadSpec(pattern=pattern, count=600, seed=4))
    _check_core_decode(t)
    if pattern == "COMPUTE_STORE_LOAD":
        assert FU_MUL in t.decode.fus


def test_core_decode_of_window_matches_rebuild():
    t = gen_synthetic(SyntheticWorkloadSpec(pattern="MIXED", count=1500, seed=2))
    _check_core_decode(window_trace(t, skip=450, limit=600))


def test_core_decode_unwritten_and_repeated_sources(tb):
    tb.alu(0x0, 1, "MUL", srcs=(2, 3), fault=True)  # r2, r3 never written
    tb.alu(0x4, 2, "ADD", srcs=(1, 1))              # one producer, read twice
    tb.store(0x8, 0x40, srcs=(2, 1))
    tb.store(0xC, 0x48, srcs=(5, 2))                # data register unwritten
    tb.load(0x10, 4, 0x40, srcs=(5,))               # r5 never written at all
    tb.branch(0x14, srcs=(4,))
    tb.nop(0x18, fault=True)
    t = tb.build()
    dec = t.decode
    assert dec.src_writers == [(None, None), (0, 0), (1, 0), (None, 1), (None,),
                               (4,), ()]
    assert dec.addr_writers == [(), (), (0,), (1,), (), (), ()]
    assert dec.data_writers == [(), (0, 0), (1,), (), (), (4,), ()]
    assert dec.consumers == [[1, 2], [2, 3], [], [], [5], [], []]
    assert dec.casts == [1, 0, 1, 1, 0, 1, 1]
    assert dec.latencies == [ALU_LATENCY["MUL"], 1, 1, 1, 1, 1, 1]
    _check_core_decode(t)


def _count_decodes(monkeypatch) -> list:
    built = []
    decode = trace_mod.TraceDecode.__init__

    def counting_decode(self, instructions):
        built.append(self)
        decode(self, instructions)

    monkeypatch.setattr(trace_mod.TraceDecode, "__init__", counting_decode)
    return built


def test_dataflow_decoded_once_per_trace(monkeypatch):
    # the slicer's annotation builds the one decode; later runs reuse it
    built = _count_decodes(monkeypatch)
    t = gen_synthetic(SyntheticWorkloadSpec(pattern="COMPUTE_STORE_LOAD",
                                            count=600, seed=1))
    table, _ = slicer.annotate(t)
    dec = t.decode
    assert built == [dec]
    run(t, annotations=table, config=CoreConfig(policy="VRC"))
    run(t, annotations=table, config=CoreConfig(policy="DOM"))
    assert t.decode is dec
    assert built == [dec]


def test_core_decode_built_once_per_trace(monkeypatch):
    # every policy run, clean or probed, reads the decode annotation built
    built = _count_decodes(monkeypatch)
    t = gen_synthetic(SyntheticWorkloadSpec(pattern="COMPUTE_STORE_LOAD",
                                            count=600, seed=1,
                                            mispredict_rate=0.3))
    table, _ = slicer.annotate(t)
    assert built == [t.decode]
    for policy in POLICIES:
        run(t, annotations=table, config=CoreConfig(policy=policy))
    site = next(ins.seq for ins in t.instructions
                if ins.kind == "BRANCH" and not ins.br.predicted_correctly)
    inject_transient_probe(t, ProbeSpec(site, (0x7000_0000,)), annotations=table,
                           config=CoreConfig(policy="DOM"))
    assert built == [t.decode]
