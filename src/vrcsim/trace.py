"""Dynamic instruction traces: record format, parsing, validation and
decoding. Synthetic traces come from `workloads.py`.

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
every other spelling (any field order, a decimal address, `0X` hex,
`fault=0`, ...) with the field-by-field parser. Both check only spelling;
one function, `_checked_record`, holds the record rules, and both pass
their values through it, so a record that breaks a rule gets one message
however it is spelled. In one call, a non-memory record repeating an
earlier one's text after ` pc=`, with an `emit_trace` seq, copies that
one's fields, `srcs` and `BranchInfo` too.
"""

from __future__ import annotations

import bisect
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .isa import (ALU_ARITY, ALU_FU, ALU_LATENCY, ALU_OPS, FU_ALU, LINE_BYTES,
                  MASK64)

KINDS = ("ALU", "LOAD", "STORE", "BRANCH", "NOP")
# kind codes, the positions in KINDS
KIND_ALU, KIND_LOAD, KIND_STORE, KIND_BRANCH, KIND_NOP = range(len(KINDS))
# an ALU op's operand form (`TraceDecode.forms`): two registers and no
# immediate, one register and the immediate, or any other shape (and any op
# reading a register that nothing earlier in the trace writes); FORM_ANY for
# every other kind
FORM_RR, FORM_RI, FORM_ANY = range(3)

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
    frozen like one built by keyword. Only `workloads.TraceBuilder` and the
    parser (a repeated record from its seq and its first instance's other
    eleven fields) use it, as they build every instruction of a trace."""

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
_BRANCH_INFO = {(t, p): BranchInfo(t, p) for t in (False, True) for p in (False, True)}


def _format_instruction(ins: TraceInstruction, srcs_text: dict) -> str:
    srcs = srcs_text.get(ins.srcs)  # a srcs tuple's " srcs=..." text
    if srcs is None:
        srcs = srcs_text[ins.srcs] = " srcs=" + ",".join(map(str, ins.srcs))
    line = (f"I seq={ins.seq} pc={ins.pc:#x} kind={ins.kind}"
            f"{'' if ins.dst is None else f' dst={ins.dst}'}{srcs}"
            f"{'' if ins.imm is None else f' imm={ins.imm}'}")
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
    srcs_text = {(): ""}
    lines.extend([_format_instruction(ins, srcs_text) for ins in t.instructions])
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


def _checked_record(lineno: int, regs: int, seq, pc, kind, dst, srcs, imm, alu_op,
                    mem_addr, mem_size, mem_value, taken, pred, may_fault) -> TraceInstruction:
    """The record with these fields, however its line spelled them, or
    TraceFormatError at `lineno` naming the first record rule it breaks:
    registers below `regs`, the fields each kind allows or requires, no
    `srcs` on a NOP, and an ALU op's operand count. An absent field is None
    (`srcs` is then ()); `taken` and `pred` are bools."""
    for r in srcs:
        if not 0 <= r < regs:
            raise TraceFormatError(lineno, f"field out of range: register {r} (regs={regs})")
    if dst is not None and not 0 <= dst < regs:
        raise TraceFormatError(lineno, f"field out of range: register {dst} (regs={regs})")

    if kind == "LOAD" or kind == "STORE":
        if mem_addr is None or mem_size is None or mem_value is None:
            missing = _MEM_FIELDS[(mem_addr, mem_size, mem_value).index(None)]
            raise TraceFormatError(lineno, f"{kind} record missing {missing!r}")
    elif mem_addr is not None or mem_size is not None or mem_value is not None:
        raise TraceFormatError(lineno, f"memory fields not allowed on kind {kind}")

    br = None
    if kind == "BRANCH":
        if taken is None or pred is None:
            raise TraceFormatError(lineno, "BRANCH record missing taken/pred")
        br = _BRANCH_INFO[taken, pred]
    elif taken is not None or pred is not None:
        raise TraceFormatError(lineno, f"branch fields not allowed on kind {kind}")

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
    return _InstructionDraft(seq, pc, kind, dst, srcs, imm, alu_op, mem_addr,
                             mem_size, mem_value, br, may_fault)


def _parse_instruction(lineno: int, tokens: list[str], regs: int) -> TraceInstruction:
    """The `I` record whose fields are `tokens`, in any valid spelling. It
    checks what the canonical pattern checks by spelling (known fields, each
    once, the required ones, integers, `kind`, seq/pc signs, at most 3 srcs,
    `mem_size`, the memory ranges, 0/1 flags), then `_checked_record`."""
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

    srcs = fields.get("srcs")
    if srcs:
        srcs = tuple([_parse_int(lineno, "srcs", s) for s in srcs.split(",")])
    else:
        srcs = ()
    if len(srcs) > 3:
        raise TraceFormatError(lineno, "field out of range: more than 3 srcs")
    dst, imm, mem_addr, mem_size, mem_value = [
        _parse_int(lineno, key, fields[key]) if key in fields else None
        for key in ("dst", "imm", *_MEM_FIELDS)]
    if mem_size not in (None, 1, 2, 4, 8):
        raise TraceFormatError(lineno, f"field out of range: mem_size {mem_size}")
    if mem_addr is not None and mem_addr < 0 \
            or mem_value is not None and not 0 <= mem_value <= MASK64:
        raise TraceFormatError(lineno, "field out of range: mem_addr/mem_value")
    taken, pred, fault = [
        _parse_flag(lineno, key, fields[key]) if key in fields else None
        for key in ("taken", "pred", "fault")]
    return _checked_record(lineno, regs, seq, pc, kind, dst, srcs, imm, fields.get("alu_op"),
                           mem_addr, mem_size, mem_value, taken, pred, bool(fault))


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
_SEQ_HEAD = re.compile(f"I seq=(?:{_DEC})").fullmatch


def _parse_canonical(lineno: int, line: str, regs: int) -> TraceInstruction | None:
    """The record on `line` when it is an `I` record spelled exactly as
    `emit_trace` writes it; None for any other spelling, which
    `_parse_instruction` reads. The pattern checks only the spelling;
    `_checked_record` applies the rules and raises for a broken one."""
    m = _CANONICAL_INSTRUCTION.fullmatch(line)
    if m is None:
        return None
    seq, pc, kind, dst, srcs, imm, alu_op, addr, size, value, taken, pred, \
        fault = m.groups()
    if addr is not None:
        addr, size, value = int(addr, 16), int(size), int(value, 16)
    if taken is not None:
        taken, pred = taken == "1", pred == "1"
    return _checked_record(lineno, regs, int(seq), int(pc, 16), kind,
                           None if dst is None else int(dst),
                           () if srcs is None else tuple(map(int, srcs.split(","))),
                           None if imm is None else int(imm), alu_op, addr, size,
                           value, taken, pred, fault is not None)


def _read_text(data) -> str:
    """The text of bytes, a string, or a binary or text file object; bytes
    that are not UTF-8 (or not in a text file's own encoding) raise
    TraceFormatError at the first bad byte's line, or at line 1."""
    try:
        if hasattr(data, "read"):
            data = data.read()  # a text file decodes here
        return data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as e:
        # `e.object` holds the bytes being decoded, a text file's too, and
        # `e.encoding` names the decoder that refused them
        raw, at = e.object, e.start
        raise TraceFormatError(raw.count(b"\n", 0, at) + 1,
                               f"not {e.encoding.upper()}: byte {raw[at]:#04x}") from None
    except UnicodeError as e:   # such as a UTF-16 file without its BOM
        raise TraceFormatError(1, str(e)) from None


def parse_trace(data) -> Trace:
    """Parse a trace from bytes, a string, or a file-like object. Records
    end at a line feed; a carriage return before it is whitespace, so CRLF
    files parse too."""
    data = _read_text(data)
    header: TraceHeader | None = None
    notes: list[str] = []
    instructions: list[TraceInstruction] = []
    seen = {}  # a canonical non-memory record by its text after " pc="
    for lineno, raw in enumerate(data.split("\n"), start=1):
        if header is not None:
            head, _, rest = raw.partition(" pc=")
            same = seen.get(rest)
            if same is not None and _SEQ_HEAD(head):
                instructions.append(_InstructionDraft(
                    int(head[6:]), same.pc, same.kind, same.dst, same.srcs, same.imm,
                    same.alu_op, None, None, None, same.br, same.may_fault))
                continue
            ins = _parse_canonical(lineno, raw, regs)
            if ins is not None:
                if ins.mem_addr is None:
                    seen[rest] = ins
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
