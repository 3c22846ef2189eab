"""Dynamic instruction traces: record format, parsing, validation and
synthetic workload generation.

A trace is a dynamic instruction stream annotated with the data values and
addresses observed when the program ran, plus per-branch outcome/prediction
annotations. Values carried in the trace are the ground truth every other
module is checked against.

File format (UTF-8, one record per line):
    # comment                      (lines starting with '#'; '# note:' lines
                                    before the header are kept as header notes)
    H version=1 regs=64
    I seq=0 pc=0x1000 kind=ALU dst=1 srcs=2,3 alu_op=ADD
    I seq=1 pc=0x1004 kind=STORE srcs=1 mem_addr=0x100 mem_size=8 mem_value=0x2a
    I seq=2 pc=0x1008 kind=BRANCH srcs=1 taken=1 pred=1
`emit_trace` writes a record's fields in the order shown and omits optional
fields when absent; `fault=1` marks instructions that cast an exception
shadow. The header carries exactly `version` and `regs`; `taken`, `pred` and
`fault` are 0 or 1. Integers may be written in hex with a `0x` prefix;
addresses and data values are emitted in hex. `parse_trace` reads a record
spelled exactly as `emit_trace` writes it with one compiled match, and
accepts every other valid spelling (any field order, a decimal address,
`0X` hex, `fault=0`, ...) through the field-by-field parser.
"""

from __future__ import annotations

import bisect
import random
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property

from .isa import (ALU_ARITY, ALU_FU, ALU_LATENCY, ALU_OPS, FU_ALU, LINE_BYTES,
                  MASK64, alu_eval)

KINDS = ("ALU", "LOAD", "STORE", "BRANCH", "NOP")
# kind codes, the positions in KINDS
KIND_ALU, KIND_LOAD, KIND_STORE, KIND_BRANCH, KIND_NOP = range(len(KINDS))
# an ALU op's operand form (`TraceDecode.forms`): two registers and no
# immediate, one register and the immediate, or any other shape (and any op
# reading a register that nothing earlier in the trace writes); FORM_ANY for
# every other kind
FORM_RR, FORM_RI, FORM_ANY = range(3)
PATTERNS = ("POINTER_CHASE", "STREAM", "COMPUTE_STORE_LOAD", "MIXED")

TRACE_VERSION = 1


class TraceFormatError(ValueError):
    """Malformed trace stream; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True, slots=True)
class BranchInfo:
    taken: bool
    predicted_correctly: bool


@dataclass(frozen=True, slots=True)
class TraceInstruction:
    seq: int
    pc: int
    kind: str
    dst: int | None = None
    srcs: tuple[int, ...] = ()
    imm: int | None = None
    alu_op: str | None = None
    mem_addr: int | None = None
    mem_size: int | None = None
    mem_value: int | None = None
    br: BranchInfo | None = None
    may_fault: bool = False

    def mem_bytes(self) -> range:
        return range(self.mem_addr, self.mem_addr + self.mem_size)

    def crosses_line(self) -> bool:
        return (self.mem_addr // LINE_BYTES) != (
            (self.mem_addr + self.mem_size - 1) // LINE_BYTES
        )


class _InstructionDraft:
    """Builds a TraceInstruction from its twelve fields in declaration
    order, with plain slot stores instead of the frozen dataclass
    `__init__`, which pays one `object.__setattr__` call per field. The
    slots match TraceInstruction's, so the finished draft becomes one by
    class assignment: the caller gets a TraceInstruction, equal, hashed and
    frozen like one built by keyword. Only the parser and the generator,
    which build every instruction of a trace, use it."""

    __slots__ = TraceInstruction.__slots__

    def __init__(self, seq, pc, kind, dst, srcs, imm, alu_op, mem_addr,
                 mem_size, mem_value, br, may_fault):
        self.seq = seq
        self.pc = pc
        self.kind = kind
        self.dst = dst
        self.srcs = srcs
        self.imm = imm
        self.alu_op = alu_op
        self.mem_addr = mem_addr
        self.mem_size = mem_size
        self.mem_value = mem_value
        self.br = br
        self.may_fault = may_fault
        self.__class__ = TraceInstruction


@dataclass(frozen=True, slots=True)
class TraceHeader:
    version: int = TRACE_VERSION
    regs: int = 64
    notes: tuple[str, ...] = ()


class TraceDecode:
    """A trace's one decode: per-instruction facts and the register
    dataflow graph both ways, built in one program-order pass by the first
    reader (the slicer or a core run) and shared by every later one.

    Per seq: `kinds` holds the kind code; `fus` the functional-unit class
    (`isa.ALU_FU` for an ALU op, FU_ALU for anything else) and `latencies`
    the execute latency (the op's latency for an ALU op, else 1); `casts`
    the shadows dispatch casts whatever the consistency model (an exception
    shadow for a faulting instruction, plus one for a branch or a store).
    `src_writers[seq]` holds, per source register, the seq of its most
    recent earlier writer, or None when nothing earlier in the trace writes
    it. `addr_writers` and `data_writers` are the producers of the address
    (a load's sources, a store's sources after the first) and of the data
    (a store's first source, every source of an ALU op or branch), without
    None; a NOP has neither.
    `forms` holds an ALU op's operand form (FORM_RR, FORM_RI or FORM_ANY).
    `consumers` is the reverse edge: the later seqs that read the seq's
    value, each once, in program order. `writers[reg]` lists every writer of
    `reg` in program order. Seqs are trace positions. `kind_counts` holds
    (kind code, instruction count) pairs in order of first appearance."""

    __slots__ = ("kinds", "fus", "latencies", "casts", "forms", "src_writers",
                 "addr_writers", "data_writers", "consumers", "writers",
                 "kind_counts")

    def __init__(self, instructions: tuple[TraceInstruction, ...]):
        kind_code = {k: i for i, k in enumerate(KINDS)}
        self.kinds, self.fus, self.latencies, self.casts = [], [], [], []
        self.forms = []
        self.src_writers, self.addr_writers, self.data_writers = [], [], []
        self.consumers: list[list[int]] = []
        self.writers: dict[int, list[int]] = {}
        consumers, last, writers = self.consumers, {}, self.writers
        last_writer = last.get
        add_kind, add_fu = self.kinds.append, self.fus.append
        add_latency, add_casts = self.latencies.append, self.casts.append
        add_form = self.forms.append
        add_src, add_addr = self.src_writers.append, self.addr_writers.append
        add_data, add_readers = self.data_writers.append, consumers.append
        for seq, ins in enumerate(instructions):
            kind = kind_code[ins.kind]
            src_ws = tuple(map(last_writer, ins.srcs))
            written = src_ws if None not in src_ws else \
                tuple([w for w in src_ws if w is not None])
            fu, latency, casts, form = FU_ALU, 1, int(ins.may_fault), FORM_ANY
            data, addr = written, ()
            if kind == KIND_ALU:
                fu, latency = ALU_FU[ins.alu_op], ALU_LATENCY[ins.alu_op]
                if written is src_ws:
                    if len(src_ws) == 2 and ins.imm is None:
                        form = FORM_RR
                    elif len(src_ws) == 1 and ins.imm is not None:
                        form = FORM_RI
            elif kind == KIND_LOAD:
                data, addr = (), written
            elif kind == KIND_STORE:
                casts += 1
                data = src_ws[:1] if src_ws and src_ws[0] is not None else ()
                addr = tuple([w for w in src_ws[1:] if w is not None])
            elif kind == KIND_BRANCH:
                casts += 1
            elif kind == KIND_NOP:
                data = written = ()  # reads nothing, so nothing wakes it
            add_kind(kind)
            add_fu(fu)
            add_latency(latency)
            add_casts(casts)
            add_form(form)
            add_src(src_ws)
            add_addr(addr)
            add_data(data)
            add_readers([])
            for w in written:
                readers = consumers[w]
                if not readers or readers[-1] != seq:
                    readers.append(seq)
            dst = ins.dst
            if dst is not None:
                last[dst] = seq
                if dst in writers:
                    writers[dst].append(seq)
                else:
                    writers[dst] = [seq]
        self.kind_counts = tuple(Counter(self.kinds).items())

    def writer_before(self, reg: int, seq: int) -> int | None:
        """The last writer of `reg` strictly before `seq`, or None."""
        seqs = self.writers.get(reg, ())
        i = bisect.bisect_left(seqs, seq)
        return seqs[i - 1] if i else None


@dataclass(frozen=True)
class Trace:
    header: TraceHeader
    instructions: tuple[TraceInstruction, ...]

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, i: int) -> TraceInstruction:
        return self.instructions[i]

    @cached_property
    def decode(self) -> TraceDecode:
        """The trace's decode, built on first use and shared by every later
        reader of this trace."""
        return TraceDecode(self.instructions)


@dataclass(frozen=True, slots=True)
class Violation:
    seq: int | None
    message: str


@dataclass(slots=True)
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, seq: int | None, message: str) -> None:
        self.violations.append(Violation(seq, message))


# ---------------------------------------------------------------------------
# serialization

# every field an `I` record may carry, and every field of the `H` record
_INSTRUCTION_FIELDS = frozenset((
    "seq", "pc", "kind", "dst", "srcs", "imm", "alu_op",
    "mem_addr", "mem_size", "mem_value", "taken", "pred", "fault",
))
_HEADER_FIELDS = frozenset(("version", "regs"))
_MEM_FIELDS = ("mem_addr", "mem_size", "mem_value")


def _format_instruction(ins: TraceInstruction) -> str:
    line = f"I seq={ins.seq} pc={ins.pc:#x} kind={ins.kind}"
    if ins.dst is not None:
        line += f" dst={ins.dst}"
    if ins.srcs:
        line += " srcs=" + ",".join(map(str, ins.srcs))
    if ins.imm is not None:
        line += f" imm={ins.imm}"
    if ins.alu_op is not None:
        line += f" alu_op={ins.alu_op}"
    if ins.mem_addr is not None:
        line += f" mem_addr={ins.mem_addr:#x}"
    if ins.mem_size is not None:
        line += f" mem_size={ins.mem_size}"
    if ins.mem_value is not None:
        line += f" mem_value={ins.mem_value:#x}"
    if ins.br is not None:
        line += f" taken={ins.br.taken:d} pred={ins.br.predicted_correctly:d}"
    if ins.may_fault:
        line += " fault=1"
    return line


def emit_trace(t: Trace) -> str:
    lines = [f"# note: {n}" for n in t.header.notes]
    lines.append(f"H version={t.header.version} regs={t.header.regs}")
    lines.extend(_format_instruction(ins) for ins in t.instructions)
    lines.append("")
    return "\n".join(lines)


def save_trace(t: Trace, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(emit_trace(t))


def _parse_int(lineno: int, key: str, text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise TraceFormatError(lineno, f"field {key}: not an integer: {text!r}") from None


def _parse_flag(lineno: int, key: str, text: str) -> bool:
    value = _parse_int(lineno, key, text)
    if value not in (0, 1):
        raise TraceFormatError(lineno, f"field {key}: not 0 or 1: {text!r}")
    return value == 1


def _parse_kv(lineno: int, tokens: list[str]) -> dict[str, str]:
    fields: dict[str, str] = {}
    for tok in tokens:
        key, eq, val = tok.partition("=")
        if not eq:
            raise TraceFormatError(lineno, f"malformed field {tok!r} (expected key=value)")
        if key in fields:
            raise TraceFormatError(lineno, f"duplicate field {key!r}")
        fields[key] = val
    return fields


def _parse_instruction(lineno: int, tokens: list[str], regs: int) -> TraceInstruction:
    fields = _parse_kv(lineno, tokens)
    if not _INSTRUCTION_FIELDS.issuperset(fields):
        unknown = fields.keys() - _INSTRUCTION_FIELDS
        raise TraceFormatError(lineno, f"unknown fields {sorted(unknown)}")
    try:
        seq, pc, kind = fields["seq"], fields["pc"], fields["kind"]
    except KeyError as missing:
        raise TraceFormatError(
            lineno, f"missing required field {missing.args[0]!r}") from None
    if kind not in KINDS:
        raise TraceFormatError(lineno, f"field kind: out of range: {kind!r}")
    seq = _parse_int(lineno, "seq", seq)
    pc = _parse_int(lineno, "pc", pc)
    if seq < 0 or pc < 0:
        raise TraceFormatError(lineno, "field out of range: seq/pc must be non-negative")

    get = fields.get
    dst = get("dst")
    if dst is not None:
        dst = _parse_int(lineno, "dst", dst)
    srcs = get("srcs")
    if srcs:
        srcs = tuple([_parse_int(lineno, "srcs", s) for s in srcs.split(",")])
    else:
        srcs = ()
    imm = get("imm")
    if imm is not None:
        imm = _parse_int(lineno, "imm", imm)
    if len(srcs) > 3:
        raise TraceFormatError(lineno, "field out of range: more than 3 srcs")
    for r in srcs:
        if not 0 <= r < regs:
            raise TraceFormatError(lineno, f"field out of range: register {r} (regs={regs})")
    if dst is not None and not 0 <= dst < regs:
        raise TraceFormatError(lineno, f"field out of range: register {dst} (regs={regs})")

    mem = (get("mem_addr"), get("mem_size"), get("mem_value"))
    mem_addr, mem_size, mem_value = mem
    if kind == "LOAD" or kind == "STORE":
        if None in mem:
            missing = _MEM_FIELDS[mem.index(None)]
            raise TraceFormatError(lineno, f"{kind} record missing {missing!r}")
        mem_addr = _parse_int(lineno, "mem_addr", mem_addr)
        mem_size = _parse_int(lineno, "mem_size", mem_size)
        mem_value = _parse_int(lineno, "mem_value", mem_value)
        if mem_size not in (1, 2, 4, 8):
            raise TraceFormatError(lineno, f"field out of range: mem_size {mem_size}")
        if mem_addr < 0 or not 0 <= mem_value <= MASK64:
            raise TraceFormatError(lineno, "field out of range: mem_addr/mem_value")
    elif mem != (None, None, None):
        raise TraceFormatError(lineno, f"memory fields not allowed on kind {kind}")

    taken, pred, br = get("taken"), get("pred"), None
    if kind == "BRANCH":
        if taken is None or pred is None:
            raise TraceFormatError(lineno, "BRANCH record missing taken/pred")
        br = BranchInfo(_parse_flag(lineno, "taken", taken),
                        _parse_flag(lineno, "pred", pred))
    elif taken is not None or pred is not None:
        raise TraceFormatError(lineno, f"branch fields not allowed on kind {kind}")

    alu_op = get("alu_op")
    if kind == "ALU":
        if alu_op is None:
            raise TraceFormatError(lineno, "ALU record missing alu_op")
        if alu_op not in ALU_OPS:
            raise TraceFormatError(lineno, f"field out of range: alu_op {alu_op!r}")
        if dst is None:
            raise TraceFormatError(lineno, "ALU record missing dst")
        arity = len(srcs) + (imm is not None)
        if arity != ALU_ARITY[alu_op]:
            raise TraceFormatError(
                lineno, f"alu_op {alu_op} expects {ALU_ARITY[alu_op]} operands, got {arity}"
            )
    elif alu_op is not None:
        raise TraceFormatError(lineno, f"alu_op not allowed on kind {kind}")
    elif imm is not None:
        raise TraceFormatError(lineno, f"imm not allowed on kind {kind}")
    elif dst is not None and kind != "LOAD":
        raise TraceFormatError(lineno, f"dst not allowed on kind {kind}")
    if srcs and kind == "NOP":
        raise TraceFormatError(lineno, "srcs not allowed on kind NOP")

    fault = get("fault")
    may_fault = fault is not None and _parse_flag(lineno, "fault", fault)
    return _InstructionDraft(seq, pc, kind, dst, srcs, imm, alu_op, mem_addr,
                             mem_size, mem_value, br, may_fault)


# an `I` record exactly as `_format_instruction` writes it: ASCII decimal
# without leading zeros, lowercase `0x` hex, at most 3 srcs. Digit counts
# are bounded (`int` refuses over 4300 decimal digits); longer spellings,
# like every other, are left to `_parse_instruction`
_DEC, _REG, _HEX = "0|[1-9][0-9]{0,19}", "0|[1-9][0-9]?", "0x(0|[1-9a-f][0-9a-f]{0,15})"
_CANONICAL_INSTRUCTION = re.compile(
    rf"I seq=({_DEC}) pc={_HEX} kind=({'|'.join(KINDS)})(?: dst=({_REG}))?"
    rf"(?: srcs=((?:{_REG})(?:,(?:{_REG})){{0,2}}))?(?: imm=(0|-?[1-9][0-9]{{0,19}}))?"
    rf"(?: alu_op=({'|'.join(ALU_OPS)}))?(?: mem_addr={_HEX} mem_size=([1248]) "
    rf"mem_value={_HEX})?(?: taken=([01]) pred=([01]))?( fault=1)?")
_BRANCH_INFO = {(t, p): BranchInfo(t == "1", p == "1") for t in "01" for p in "01"}


def _parse_canonical(line: str, regs: int) -> TraceInstruction | None:
    """The record on `line` when it is an `I` record spelled exactly as
    `emit_trace` writes it and valid under `regs`; None for any other line,
    which `_parse_instruction` then reads or rejects. The pattern fixes the
    spelling; this checks what it cannot: which fields each kind allows or
    requires, registers below `regs`, and ALU arity."""
    m = _CANONICAL_INSTRUCTION.fullmatch(line)
    if m is None:
        return None
    seq, pc, kind, dst, srcs, imm, alu_op, addr, size, value, taken, pred, \
        fault = m.groups()
    dst = None if dst is None else int(dst)
    srcs = () if srcs is None else tuple(map(int, srcs.split(",")))
    if dst is not None and dst >= regs or srcs and max(srcs) >= regs:
        return None
    if kind == "ALU":
        imm = None if imm is None else int(imm)
        if dst is None or alu_op is None or addr is not None or taken is not None \
                or len(srcs) + (imm is not None) != ALU_ARITY[alu_op]:
            return None
    elif alu_op is not None or imm is not None or dst is not None and kind != "LOAD" \
            or (addr is not None) != (kind == "LOAD" or kind == "STORE") \
            or (taken is not None) != (kind == "BRANCH") or srcs and kind == "NOP":
        return None
    if addr is not None:
        addr, size, value = int(addr, 16), int(size), int(value, 16)
    return _InstructionDraft(int(seq), int(pc, 16), kind, dst, srcs, imm, alu_op,
                             addr, size, value,
                             None if taken is None else _BRANCH_INFO[taken, pred],
                             fault is not None)


def _read_text(data) -> str:
    """The text of bytes, a string, or a binary or text file object; bytes
    that are not UTF-8 raise TraceFormatError at the line of the first bad
    byte."""
    try:
        if hasattr(data, "read"):
            data = data.read()  # a text file decodes here
        return data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as e:
        # `e.object` holds the bytes being decoded, a text file's too
        raw, at = e.object, e.start
        raise TraceFormatError(raw.count(b"\n", 0, at) + 1,
                               f"not UTF-8: byte {raw[at]:#04x}") from None


def parse_trace(data) -> Trace:
    """Parse a trace from bytes, a string, or a file-like object. Records
    end at a line feed; a carriage return before it is whitespace, so CRLF
    files parse too."""
    data = _read_text(data)
    header: TraceHeader | None = None
    notes: list[str] = []
    instructions: list[TraceInstruction] = []
    for lineno, raw in enumerate(data.split("\n"), start=1):
        if header is not None:
            ins = _parse_canonical(raw, regs)
            if ins is not None:
                instructions.append(ins)
                continue
        tokens = raw.split()
        if not tokens:
            continue
        tag = tokens[0]
        if tag == "I":
            if header is None:
                raise TraceFormatError(lineno, "instruction record before header")
            instructions.append(_parse_instruction(lineno, tokens[1:], regs))
        elif tag[0] == "#":
            body = raw.strip()[1:].strip()
            if header is None and body.startswith("note:"):
                notes.append(body[len("note:"):].strip())
        elif tag == "H":
            if header is not None:
                raise TraceFormatError(lineno, "duplicate header record")
            fields = _parse_kv(lineno, tokens[1:])
            if not _HEADER_FIELDS.issuperset(fields):
                unknown = fields.keys() - _HEADER_FIELDS
                raise TraceFormatError(lineno, f"unknown fields {sorted(unknown)}")
            if "version" not in fields or "regs" not in fields:
                raise TraceFormatError(lineno, "header must carry version and regs")
            version = _parse_int(lineno, "version", fields["version"])
            if version != TRACE_VERSION:
                raise TraceFormatError(
                    lineno, f"version mismatch: got {version}, expected {TRACE_VERSION}"
                )
            regs = _parse_int(lineno, "regs", fields["regs"])
            if not 1 <= regs <= 64:
                raise TraceFormatError(lineno, f"field out of range: regs {regs}")
            header = TraceHeader(version=version, regs=regs, notes=tuple(notes))
        else:
            raise TraceFormatError(lineno, f"unknown record tag {tag!r}")
    if header is None:
        raise TraceFormatError(1, "missing header record")
    return Trace(header=header, instructions=tuple(instructions))


def load_trace(path) -> Trace:
    with open(path, "rb") as f:
        return parse_trace(f)


# ---------------------------------------------------------------------------
# validation

def validate_trace(t: Trace) -> ValidationReport:
    """Check cross-record invariants; violations are report entries, never raises.

    Checks: dense seq numbering from 0, no line-crossing accesses, and value
    consistency (a load must observe the bytes written by the most recent
    overlapping stores, byte-wise; loads from never-stored bytes are
    unconstrained).
    """
    report = ValidationReport()
    mem: dict[int, int] = {}
    for i, ins in enumerate(t.instructions):
        if ins.seq != i:
            report.add(ins.seq, f"non-dense seq: expected {i}, got {ins.seq}")
        if ins.kind in ("LOAD", "STORE"):
            if ins.crosses_line():
                report.add(
                    ins.seq,
                    f"line crossing: addr {ins.mem_addr:#x} size {ins.mem_size}",
                )
            if ins.kind == "STORE":
                for off, addr in enumerate(ins.mem_bytes()):
                    mem[addr] = (ins.mem_value >> (8 * off)) & 0xFF
            else:
                for off, addr in enumerate(ins.mem_bytes()):
                    if addr in mem:
                        got = (ins.mem_value >> (8 * off)) & 0xFF
                        if got != mem[addr]:
                            report.add(ins.seq, f"value inconsistency at seq={ins.seq}")
                            break
    return report


# ---------------------------------------------------------------------------
# synthetic workloads

@dataclass(frozen=True, slots=True)
class SyntheticWorkloadSpec:
    pattern: str
    count: int
    branch_density: float = 0.05
    mispredict_rate: float = 0.1
    load_density: float = 0.04
    store_density: float = 0.04
    working_set_bytes: int = 256 * 1024
    recomputable_fraction: float = 0.5
    seed: int = 0


class SyntheticSpecError(ValueError):
    """The workload spec is invalid or infeasible."""


# register roles used by the generator
_INPUT_REGS = tuple(range(0, 8))       # initialized once, never rewritten
_HIST_REGS = tuple(range(8, 16))       # rewritten by a fixed MOV each use
_TEMP_REGS = tuple(range(16, 48))      # chain temporaries
_PTR_REG = 56                          # pointer-chase cursor
_SCRATCH_REGS = tuple(range(57, 64))   # filler targets

_RING_BASE = 0x1000_0000
_STREAM_BASE = 0x2000_0000
_CHASE_BASE = 0x3000_0000
_UNTRACED_BASE = 0x4000_0000


class _TraceBuilder:
    """Emits instructions while tracking static-site identity, register values
    and the memory image, so the output always passes validate_trace."""

    def __init__(self, spec: SyntheticWorkloadSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.instrs: list[TraceInstruction] = []
        self.regs = [0] * 64
        self.mem: dict[int, int] = {}        # byte image of stored data
        self.sites: dict[object, tuple] = {} # site key -> (pc, static fields)
        self.next_pc = 0x1000
        self.untraced: dict[int, int] = {}   # stable values for never-stored addrs

    def full(self) -> bool:
        return len(self.instrs) >= self.spec.count

    def emit(self, key, kind, *, dst=None, srcs=(), imm=None, alu_op=None,
             mem_addr=None, mem_size=None, mem_value=None, br=None,
             may_fault=False) -> bool:
        seq = len(self.instrs)
        if seq >= self.spec.count:
            return False
        srcs = tuple(srcs)
        # one pc per static site, which must always carry the same fields
        static = (kind, dst, srcs, imm, alu_op, may_fault)
        site = self.sites.get(key)
        if site is None:
            pc = self.next_pc
            self.next_pc += 4
            self.sites[key] = (pc, static)
        else:
            pc, prev = site
            assert prev == static, f"static site {key} reused with different fields"
        self.instrs.append(_InstructionDraft(
            seq, pc, kind, dst, srcs, imm, alu_op, mem_addr, mem_size,
            mem_value, br, may_fault))
        if kind == "ALU":
            ops = [self.regs[r] for r in srcs]
            if imm is not None:
                ops.append(imm)
            self.regs[dst] = alu_eval(alu_op, ops)
        elif kind == "LOAD":
            if dst is not None:
                self.regs[dst] = mem_value
        return True

    def alu(self, key, dst, op, srcs=(), imm=None, may_fault=False) -> None:
        self.emit(key, "ALU", dst=dst, srcs=srcs, imm=imm, alu_op=op,
                  may_fault=may_fault)

    def store(self, key, data_reg, addr) -> None:
        value = self.regs[data_reg]
        if self.emit(key, "STORE", srcs=(data_reg,), mem_addr=addr, mem_size=8,
                     mem_value=value):
            for off in range(8):
                self.mem[addr + off] = (value >> (8 * off)) & 0xFF

    def load(self, key, dst, addr, srcs=()) -> None:
        value = self._read_mem(addr)
        self.emit(key, "LOAD", dst=dst, srcs=srcs, mem_addr=addr, mem_size=8,
                  mem_value=value)

    def _read_mem(self, addr) -> int:
        if addr in self.mem:
            return sum(self.mem.get(addr + off, 0) << (8 * off) for off in range(8))
        if addr not in self.untraced:
            # stable arbitrary content for memory the trace never stores to
            self.untraced[addr] = random.Random((self.spec.seed << 32) ^ addr).getrandbits(64)
        return self.untraced[addr]

    def branch(self, key, src_reg) -> None:
        taken = self.rng.random() < 0.5
        predicted = self.rng.random() >= self.spec.mispredict_rate
        self.emit(key, "BRANCH", srcs=(src_reg,),
                  br=BranchInfo(taken=taken, predicted_correctly=predicted))


@dataclass(frozen=True)
class _ComputeTemplate:
    index: int
    recomputable: bool
    chain_ops: tuple[tuple, ...]   # (op, uses imm, imm) per chain step
    uses_hist: bool                # chain input reloaded each slot -> Hist leaf
    hist_reg: int
    hist_addr: int                 # fixed untraced address the hist input reads
    input_a: int
    input_b: int
    has_branch: bool
    fault_site: bool
    filler: int


@dataclass(frozen=True)
class _ComputeLayout:
    """Shared store ring for the compute pattern. Ring lines all map to one
    L1 set (4 KiB stride), so a dozen intervening stores are enough to evict
    the produced line before its consuming load; the slot lag also exceeds
    the reorder-buffer window so the store queue can never forward. Slots in
    the warmup prefix produce values but read nothing."""
    ring_base: int
    ring_slots: int
    lag: int
    slot_len: int


def _check_spec(spec: SyntheticWorkloadSpec) -> None:
    if spec.pattern not in PATTERNS:
        raise SyntheticSpecError(f"unknown pattern {spec.pattern!r}")
    if spec.count <= 0:
        raise SyntheticSpecError("count must be positive")
    for name in ("branch_density", "mispredict_rate", "load_density",
                 "store_density", "recomputable_fraction"):
        v = getattr(spec, name)
        if not 0.0 <= v <= 1.0:
            raise SyntheticSpecError(f"{name} must be within [0,1], got {v}")
    if spec.working_set_bytes < 4 * LINE_BYTES:
        raise SyntheticSpecError("working set too small")
    if spec.pattern in ("COMPUTE_STORE_LOAD", "MIXED"):
        if spec.recomputable_fraction > 0 and spec.load_density == 0:
            raise SyntheticSpecError("recomputable loads requested but load density is 0")
        if spec.load_density > 0.2:
            raise SyntheticSpecError(
                "load density too high to fit compute/store/load slots"
            )


def _tag_id(tag: str) -> int:
    return sum(ord(c) * (i + 1) for i, c in enumerate(tag)) & 0xFF


# stores-to-one-set stride: 64 sets x 64 B lines in the modeled L1
_SET_STRIDE = 4096
# slot lag must clear the reorder-buffer window so stores always commit
# (and their lines get evicted) before the paired load dispatches
_FORWARD_SAFE_DISTANCE = 224


def _make_compute_layout(b: _TraceBuilder, tag: str,
                         n_templates: int) -> _ComputeLayout:
    spec = b.spec
    slot_len = max(5, int(round(1.0 / spec.load_density)) if spec.load_density else 16)
    # the lag covers the reorder-buffer drain (commit-lagged stores have not
    # filled their lines yet) plus the 8 committed same-set fills needed to
    # evict the produced line, with margin
    lag = -(-_FORWARD_SAFE_DISTANCE // slot_len) + 12
    # a multiple of the template count so each ring position is only ever
    # written by one static store site (sites own disjoint mini-rings)
    ring_slots = n_templates * max(2, -(-(lag + 8) // n_templates))
    return _ComputeLayout(
        ring_base=_RING_BASE + _tag_id(tag) * 0x100_0000,
        ring_slots=ring_slots,
        lag=lag,
        slot_len=slot_len,
    )


def _make_compute_templates(b: _TraceBuilder, n_templates: int, slot_len: int,
                            tag: str) -> list[_ComputeTemplate]:
    spec = b.spec
    rng = b.rng
    f = spec.recomputable_fraction
    # checkpoint-input templates add one auxiliary (non-recomputable) load
    # per slot; provision extra recomputable templates to cover the dilution
    # so that at least the requested fraction of loads carries an
    # arithmetic-only producer chain. Near full fraction the budget has no
    # room for auxiliary loads at all.
    n_hist = n_templates // 8 if f <= n_templates / (n_templates + n_templates // 8) \
        else 0
    n_rec = 0 if f == 0 else min(n_templates,
                                 -(-int(f * (n_templates + n_hist) * 1000) // 1000) + 1)
    templates = []
    for t in range(n_templates):
        chain_len = rng.randint(1, 3)
        ops = []
        op_pool = ("ADD", "SUB", "XOR", "AND", "OR", "ADD", "XOR", "MUL")
        for _ in range(chain_len):
            op = rng.choice(op_pool)
            use_imm = rng.random() < 0.4
            imm = rng.randint(1, 0xFFFF) if use_imm else None
            ops.append((op, use_imm, imm))
        uses_hist = n_hist > 0 and t % 8 == 7
        has_branch = rng.random() < spec.branch_density * slot_len
        # bias chain inputs toward the load-initialized registers: their
        # producers cannot be expanded, keeping slices short
        pick = lambda: _INPUT_REGS[4 + rng.randrange(4)] \
            if rng.random() < 0.75 else _INPUT_REGS[rng.randrange(4)]
        base_cost = chain_len + 2 + (1 if uses_hist else 0) + (1 if has_branch else 0)
        templates.append(_ComputeTemplate(
            index=t,
            recomputable=t < n_rec,
            chain_ops=tuple(ops),
            uses_hist=uses_hist,
            hist_reg=_HIST_REGS[t % len(_HIST_REGS)],
            hist_addr=_UNTRACED_BASE + 0x100_0000 + (_tag_id(tag) * 256 + t) * LINE_BYTES,
            input_a=pick(),
            input_b=pick(),
            has_branch=has_branch,
            fault_site=rng.random() < 0.05,
            filler=max(0, slot_len - base_cost),
        ))
    return templates


def _emit_prologue(b: _TraceBuilder) -> None:
    # r0..r3: immediates (slices expand their MOVs into constants);
    # r4..r7: loaded once from untraced memory and never rewritten, so
    # slices consuming them bind live register values. When every load must
    # be recomputable there is no budget for unresolvable seed loads, so the
    # live registers fall back to immediates too.
    for r in _INPUT_REGS[:4]:
        b.alu(("init", r), r, "MOV", imm=b.rng.randint(1, MASK64 >> 1))
    for i, r in enumerate(_INPUT_REGS[4:]):
        if b.spec.recomputable_fraction >= 1.0 and \
                b.spec.pattern == "COMPUTE_STORE_LOAD":
            b.alu(("init", r), r, "MOV", imm=b.rng.randint(1, MASK64 >> 1))
        else:
            b.load(("init", r), r, _UNTRACED_BASE + 0x200_0000 + i * LINE_BYTES)
    b.alu(("init", _PTR_REG), _PTR_REG, "MOV", imm=0)


def _emit_compute_slot(b: _TraceBuilder, tpl: _ComputeTemplate,
                       layout: _ComputeLayout, slot: int, tag: str) -> None:
    t = tpl.index
    temps = [_TEMP_REGS[(t * 4 + i) % len(_TEMP_REGS)] for i in range(4)]
    if tpl.has_branch:
        b.branch((tag, "br", t), tpl.input_a)
    if tpl.uses_hist:
        # reloaded every slot from a fixed untraced address: the register is
        # dead by the time the paired load runs, forcing a Hist checkpoint
        b.load((tag, "hld", t), tpl.hist_reg, tpl.hist_addr)
    cur = tpl.hist_reg if tpl.uses_hist else tpl.input_a
    for step, (op, use_imm, imm) in enumerate(tpl.chain_ops):
        dst = temps[step % len(temps)]
        if use_imm:
            b.alu((tag, "chain", t, step), dst, op, srcs=(cur,), imm=imm)
        else:
            b.alu((tag, "chain", t, step), dst, op, srcs=(cur, tpl.input_b))
        cur = dst
    b.store((tag, "st", t), cur,
            layout.ring_base + (slot % layout.ring_slots) * _SET_STRIDE)
    dst = _SCRATCH_REGS[t % len(_SCRATCH_REGS)]
    if slot < layout.lag:
        pass  # warmup prefix: fill the ring, read nothing
    elif tpl.recomputable:
        addr = layout.ring_base + ((slot - layout.lag) % layout.ring_slots) * _SET_STRIDE
        b.load((tag, "ld", t), dst, addr)
    else:
        span = max(1, b.spec.working_set_bytes // LINE_BYTES)
        line = b.rng.randrange(span)
        b.load((tag, "ldu", t), dst, _UNTRACED_BASE + line * LINE_BYTES)
    for i in range(tpl.filler):
        dst = _SCRATCH_REGS[(t + i) % len(_SCRATCH_REGS)]
        b.alu((tag, "fill", t, i), dst, "ADD", srcs=(dst,), imm=1,
              may_fault=tpl.fault_site and i == 0)


def _emit_compute(b: _TraceBuilder, tag: str = "c") -> None:
    layout = _make_compute_layout(b, tag, n_templates=40)
    templates = _make_compute_templates(b, n_templates=40,
                                        slot_len=layout.slot_len, tag=tag)
    slot = 0
    while not b.full():
        tpl = templates[slot % len(templates)]
        _emit_compute_slot(b, tpl, layout, slot, tag=tag)
        slot += 1


def _emit_pointer_chase(b: _TraceBuilder, tag: str = "p", bound: int | None = None) -> None:
    spec = b.spec
    ws_lines = max(8, spec.working_set_bytes // LINE_BYTES)
    slot_len = max(2, int(round(1.0 / spec.load_density)) if spec.load_density else 16)
    cursor = b.rng.randrange(ws_lines)
    slot = 0
    limit = bound if bound is not None else spec.count
    while not b.full() and len(b.instrs) < limit:
        addr = _CHASE_BASE + cursor * LINE_BYTES
        b.load((tag, "ld"), _PTR_REG, addr, srcs=(_PTR_REG,))
        # next hop derived from the (stable) loaded value
        cursor = b.regs[_PTR_REG] % ws_lines
        if b.rng.random() < spec.branch_density * slot_len:
            b.branch((tag, "br"), _PTR_REG)
        for i in range(slot_len - 1):
            dst = _SCRATCH_REGS[i % len(_SCRATCH_REGS)]
            b.alu((tag, "fill", i), dst, "ADD", srcs=(dst,), imm=1)
        slot += 1


def _emit_stream(b: _TraceBuilder, tag: str = "s", bound: int | None = None) -> None:
    spec = b.spec
    ws_lines = max(8, spec.working_set_bytes // LINE_BYTES)
    gap = max(1, int(round(1.0 / spec.load_density)) - 2 if spec.load_density else 8)
    pos = 0
    limit = bound if bound is not None else spec.count
    while not b.full() and len(b.instrs) < limit:
        addr = _STREAM_BASE + (pos % (ws_lines * 8)) * 8
        b.load((tag, "ld"), _SCRATCH_REGS[0], addr)
        pos += 1
        if spec.store_density > 0 and pos % max(1, int(1 / max(spec.store_density, 1e-9))) == 0:
            b.alu((tag, "val"), _TEMP_REGS[0], "ADD", srcs=(_INPUT_REGS[0],), imm=7)
            waddr = _STREAM_BASE + 0x80_0000 + (pos % ws_lines) * LINE_BYTES
            b.store((tag, "st"), _TEMP_REGS[0], waddr)
        if b.rng.random() < spec.branch_density * gap:
            b.branch((tag, "br"), _SCRATCH_REGS[0])
        for i in range(gap):
            dst = _SCRATCH_REGS[(1 + i) % len(_SCRATCH_REGS)]
            b.alu((tag, "fill", i), dst, "XOR", srcs=(dst, _INPUT_REGS[1]))


def _emit_mixed(b: _TraceBuilder) -> None:
    spec = b.spec
    seg = max(200, spec.count // 12)
    layout = _make_compute_layout(b, "mc", n_templates=20)
    templates = _make_compute_templates(b, n_templates=20,
                                        slot_len=layout.slot_len, tag="mc")
    compute_slot = 0
    i = 0
    while not b.full():
        kind = ("c", "s", "p")[i % 3]
        target = min(spec.count, len(b.instrs) + seg)
        if kind == "c":
            while not b.full() and len(b.instrs) < target:
                tpl = templates[compute_slot % len(templates)]
                _emit_compute_slot(b, tpl, layout, compute_slot, tag="mc")
                compute_slot += 1
        elif kind == "s":
            _emit_stream(b, tag="ms", bound=target)
        else:
            _emit_pointer_chase(b, tag="mp", bound=target)
        i += 1


def gen_synthetic(spec: SyntheticWorkloadSpec) -> Trace:
    """Generate a deterministic synthetic trace for the given spec.

    Output always passes validate_trace with zero violations; for
    COMPUTE_STORE_LOAD at least the requested fraction of loads read values
    produced by arithmetic-only chains.
    """
    _check_spec(spec)
    b = _TraceBuilder(spec)
    _emit_prologue(b)
    if spec.pattern == "COMPUTE_STORE_LOAD":
        _emit_compute(b)
    elif spec.pattern == "POINTER_CHASE":
        _emit_pointer_chase(b)
    elif spec.pattern == "STREAM":
        _emit_stream(b)
    else:
        _emit_mixed(b)
    header = TraceHeader(
        version=TRACE_VERSION, regs=64,
        notes=(f"pattern={spec.pattern} count={spec.count} seed={spec.seed}",),
    )
    return Trace(header=header, instructions=tuple(b.instrs[: spec.count]))


def window_trace(t: Trace, skip: int = 0, limit: int | None = None) -> Trace:
    """Region-of-interest selection: drop the first `skip` instructions, keep
    at most `limit`, and renumber seqs densely from zero. A negative `skip`
    or `limit` is a ValueError."""
    if skip < 0 or (limit is not None and limit < 0):
        raise ValueError(f"window skip and limit must be >= 0, got {skip} and {limit}")
    body = t.instructions[skip: skip + limit if limit is not None else None]
    renumbered = tuple(replace(ins, seq=i) for i, ins in enumerate(body))
    return Trace(header=t.header, instructions=renumbered)
