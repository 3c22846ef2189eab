"""Backward recomputation-slice extraction.

For the value a load reads, the slice is the DAG of arithmetic/logic
producers that regenerates it: the load, and every intermediate load on the
way, is replaced by the producer chain of the most recent exactly-overlapping
store, and the walk along register def-use edges bottoms out at immediate
operands, live register values, or checkpointed (Hist) values for registers
that are overwritten before the consuming load runs. Loads, stores and
branches never appear in a slice.

Annotation works per static load pc: a pc is rewritten to recompute only if
every dynamic instance has the same producing store pc and slice
instructions, and every instance's replay reproduces the loaded value. A
slice is immutable (for the conservative mode) when every store to its bytes
comes from the producing store's pc. Checkpointed leaf values must be the
same across all checkpoint sites of a key, which makes the recomputed value
independent of how far commit lags behind the consuming load.
"""

from __future__ import annotations

import bisect
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum

from .isa import ALU_ARITY, ALU_LATENCY, ALU_OPS, alu_eval
from .replay import functional_replay
from .trace import Trace, TraceFormatError, _parse_kv, _read_text, validate_trace

DEFAULT_MAX_SLICE_LEN = 100
ANNOTATION_VERSION = 1

LeafKey = tuple[int, int]  # (consumer static pc, operand slot)


class FailureReason(Enum):
    TOO_LONG = "TOO_LONG"
    NO_PRODUCER = "NO_PRODUCER"
    UNRESOLVABLE_INPUT = "UNRESOLVABLE_INPUT"
    NON_ALU_PRODUCER = "NON_ALU_PRODUCER"


@dataclass(frozen=True, slots=True)
class SliceFailure:
    reason: FailureReason
    detail: str = ""


@dataclass(frozen=True, slots=True)
class Operand:
    kind: str            # CONST | LIVE_REG | HIST | TEMP
    value: int = 0       # CONST payload
    reg: int = -1        # LIVE_REG payload
    key: LeafKey | None = None  # HIST payload
    pos: int = -1        # TEMP payload


def const_op(value: int) -> Operand:
    return Operand(kind="CONST", value=value)


def live_op(reg: int) -> Operand:
    return Operand(kind="LIVE_REG", reg=reg)


def hist_op(key: LeafKey) -> Operand:
    return Operand(kind="HIST", key=key)


def temp_op(pos: int) -> Operand:
    return Operand(kind="TEMP", pos=pos)


@dataclass(frozen=True, slots=True)
class SliceInstr:
    slice_pos: int
    alu_op: str
    operands: tuple[Operand, ...]

    @property
    def latency(self) -> int:
        return ALU_LATENCY[self.alu_op]


@dataclass(frozen=True, slots=True)
class Slice:
    slice_id: int | None
    instrs: tuple[SliceInstr, ...]
    producer_store_addr: int
    producer_store_size: int
    producer_store_seq: int
    producer_store_pc: int
    root_value: int
    hist_requirements: tuple[tuple[LeafKey, int, int], ...]  # key, producing seq, value
    live_bindings: tuple[tuple[int, int, int], ...]          # reg, producing seq, value
    immutable: bool = False

    def __len__(self) -> int:
        return len(self.instrs)


@dataclass(slots=True)
class SliceStats:
    load_pcs: int = 0
    annotated_pcs: int = 0
    load_instances: int = 0
    annotated_instances: int = 0
    mean_len: float = 0.0
    max_len: int = 0
    binding_histogram: Counter = field(default_factory=Counter)
    failure_histogram: Counter = field(default_factory=Counter)

    @property
    def dynamic_coverage(self) -> float:
        return self.annotated_instances / self.load_instances if self.load_instances else 0.0


@dataclass(slots=True)
class AnnotationTable:
    slices: dict[int, Slice] = field(default_factory=dict)
    rcmp_sites: dict[int, int] = field(default_factory=dict)       # load pc -> slice id
    rec_sites: dict[int, list[tuple[LeafKey, int]]] = field(default_factory=dict)
    slice_tags: dict[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)


class AnnotationFormatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# trace indexing

class TraceIndex:
    """Store-overlap indices plus the functional replay, shared across all
    slice constructions for one trace. Register def-use edges come from
    the trace's own `decode`."""

    def __init__(self, trace: Trace):
        self.trace = trace
        self.replay = functional_replay(trace)
        self.stores_by_byte: dict[int, list[int]] = defaultdict(list)
        for ins in trace.instructions:
            if ins.kind == "STORE":
                for b in ins.mem_bytes():
                    self.stores_by_byte[b].append(ins.seq)

    def last_store_overlapping(self, addr: int, size: int, seq: int) -> int | None:
        best = None
        for b in range(addr, addr + size):
            seqs = self.stores_by_byte.get(b)
            if not seqs:
                continue
            i = bisect.bisect_left(seqs, seq)
            if i > 0:
                cand = seqs[i - 1]
                best = cand if best is None else max(best, cand)
        return best

    def single_writer_site(self, addr: int, size: int, pc: int) -> bool:
        """True when every store touching [addr, addr+size) anywhere in the
        trace comes from the one static site `pc`. Multi-writer addresses are
        at best mostly-immutable and need the runtime tag invalidation."""
        for b in range(addr, addr + size):
            for seq in self.stores_by_byte.get(b, ()):
                if self.trace[seq].pc != pc:
                    return False
        return True


# ---------------------------------------------------------------------------
# slice construction

class _Fail(Exception):
    def __init__(self, reason: FailureReason, detail: str = ""):
        self.failure = SliceFailure(reason, detail)


class _Leafable(Exception):
    """The producer cannot be expanded; the consuming operand must bind a
    live or checkpointed register value instead."""


def build_slice(trace: Trace, load_seq: int, max_len: int = DEFAULT_MAX_SLICE_LEN,
                index: TraceIndex | None = None) -> Slice | SliceFailure:
    """Build the backward slice regenerating the value trace[load_seq]
    reads, recomputed at that load. Returns a SliceFailure (never raises)
    when the value cannot be recomputed; a failed slice is a missed
    opportunity, not an error."""
    if not 0 <= load_seq < len(trace):
        raise ValueError(f"load_seq {load_seq} out of range")
    load = trace[load_seq]
    if load.kind != "LOAD":
        raise ValueError(f"instruction at seq {load_seq} is not a LOAD")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    idx = index or TraceIndex(trace)
    decode = trace.decode
    src_writers = decode.src_writers

    nodes: list[SliceInstr] = []
    memo: dict[int, int] = {}
    stores: dict[int, int] = {}  # load seq -> seq of the store it reads
    hist_reqs: dict[LeafKey, tuple[int, int]] = {}
    live_binds: dict[int, tuple[int, int]] = {}
    in_flight = 0  # expansion frames that will each append one node

    def leaf_binding(reg: int, writer: int, consumer_pc: int, slot: int) -> Operand:
        value = idx.replay.results[writer]
        later = decode.writer_before(reg, load_seq)
        if later is not None and later > writer:
            key = (consumer_pc, slot)
            prev = hist_reqs.get(key)
            if prev is not None and prev != (writer, value):
                raise _Fail(FailureReason.UNRESOLVABLE_INPUT,
                            f"leaf key {key} needs two different values")
            hist_reqs[key] = (writer, value)
            return hist_op(key)
        live_binds[reg] = (writer, value)
        return live_op(reg)

    def operand_binding(reg: int, consumer_seq: int, consumer_pc: int, slot: int) -> Operand:
        writer = src_writers[consumer_seq][slot]
        if writer is None:
            # never written in-trace: the register still holds its initial
            # value at recomputation time, so it reads live
            live_binds[reg] = (-1, 0)
            return live_op(reg)
        try:
            return expand(writer)
        except _Leafable:
            return leaf_binding(reg, writer, consumer_pc, slot)

    def expand(seq: int) -> Operand:
        if seq in memo:
            return temp_op(memo[seq])
        ins = trace[seq]
        if ins.kind == "LOAD":
            st_seq = idx.last_store_overlapping(ins.mem_addr, ins.mem_size, seq)
            if st_seq is None:
                raise _Leafable()
            st = trace[st_seq]
            if st.mem_addr != ins.mem_addr or st.mem_size != ins.mem_size:
                raise _Fail(FailureReason.UNRESOLVABLE_INPUT,
                            f"partial store overlap at seq {st_seq}")
            if not st.srcs:
                raise _Leafable()
            data_writer = src_writers[st_seq][0]
            if data_writer is None:
                raise _Leafable()
            stores[seq] = st_seq
            return expand(data_writer)
        if ins.kind != "ALU":
            raise _Fail(FailureReason.NON_ALU_PRODUCER,
                        f"{ins.kind} at seq {seq} produces a register")
        nonlocal in_flight
        if len(nodes) + in_flight + 1 > max_len:
            raise _Fail(FailureReason.TOO_LONG, f"slice exceeds {max_len}")
        in_flight += 1
        try:
            operands = [operand_binding(r, seq, ins.pc, slot)
                        for slot, r in enumerate(ins.srcs)]
        finally:
            in_flight -= 1
        if ins.imm is not None:
            operands.append(const_op(ins.imm))
        pos = len(nodes)
        nodes.append(SliceInstr(slice_pos=pos, alu_op=ins.alu_op,
                                operands=tuple(operands)))
        memo[seq] = pos
        return temp_op(pos)

    try:
        expand(load_seq)
    except _Leafable:
        return SliceFailure(FailureReason.NO_PRODUCER,
                            "loaded value has no in-trace register producer")
    except _Fail as f:
        return f.failure

    store_seq = stores[load_seq]
    store = trace[store_seq]
    s = Slice(
        slice_id=None,
        instrs=tuple(nodes),
        producer_store_addr=store.mem_addr,
        producer_store_size=store.mem_size,
        producer_store_seq=store_seq,
        producer_store_pc=store.pc,
        root_value=store.mem_value,
        hist_requirements=tuple(sorted((k, w, v) for k, (w, v) in hist_reqs.items())),
        live_bindings=tuple(sorted((r, w, v) for r, (w, v) in live_binds.items())),
        immutable=idx.single_writer_site(store.mem_addr, store.mem_size, store.pc),
    )
    # a 4-byte store's traced value can carry bits above 32 that the load
    # does not read, so the stored value must also be the loaded one
    if not replay_slice(s) == store.mem_value == load.mem_value:
        return SliceFailure(FailureReason.UNRESOLVABLE_INPUT,
                            "slice inputs do not reproduce the loaded value")
    return s


def read_operand(o: Operand, live, hist: dict, sfile: list):
    """The value a slice operand reads: its constant, `live(reg)` for a live
    register, the checkpoint `hist[key]`, or the scratch file's `sfile[pos]`.
    The engine and `replay_slice` both read through it."""
    kind = o.kind
    if kind == "CONST":
        return o.value
    if kind == "LIVE_REG":
        return live(o.reg)
    if kind == "HIST":
        return hist[o.key]
    return sfile[o.pos]


def replay_slice(s: Slice) -> int:
    """Evaluate the slice over its recorded bindings (scratch-file analogue)
    and return the root value. Raises KeyError on unbound operands, which
    would be a construction bug."""
    hist = {k: v for k, _, v in s.hist_requirements}
    live = {r: v for r, _, v in s.live_bindings}
    sfile: list[int | None] = [None] * len(s.instrs)
    for ins in s.instrs:
        ops = [read_operand(o, live.__getitem__, hist, sfile) for o in ins.operands]
        if None in ops:
            raise KeyError(f"unbound temp read by slice instruction {ins.slice_pos}")
        sfile[ins.slice_pos] = alu_eval(ins.alu_op, ops)
    return sfile[-1]


# ---------------------------------------------------------------------------
# whole-trace annotation

def annotate(trace: Trace, max_len: int = DEFAULT_MAX_SLICE_LEN) -> tuple[AnnotationTable, SliceStats]:
    """Build the rewrite plan for a trace: one slice per annotatable static
    load pc, plus checkpoint sites for leaf operands. Deterministic in
    (trace, max_len)."""
    report = validate_trace(trace)
    if not report.ok:
        raise ValueError(f"trace fails validation: {report.violations[:3]}")
    idx = TraceIndex(trace)
    stats = SliceStats()

    loads_by_pc: dict[int, list[int]] = defaultdict(list)
    for ins in trace.instructions:
        if ins.kind == "LOAD":
            loads_by_pc[ins.pc].append(ins.seq)
    stats.load_pcs = len(loads_by_pc)
    stats.load_instances = sum(len(v) for v in loads_by_pc.values())

    candidates: dict[int, list[Slice]] = {}
    for pc in sorted(loads_by_pc):
        slices: list[Slice] = []
        for lseq in loads_by_pc[pc]:
            result = build_slice(trace, lseq, max_len, index=idx)
            if isinstance(result, SliceFailure):
                # the pc is not annotated: every instance of it fails
                stats.failure_histogram[result.reason] += len(loads_by_pc[pc])
                break
            slices.append(result)
        else:
            # an instruction's slice_pos is its index and an operand's unused
            # payload fields keep their defaults, so equality is the shape
            first = slices[0]
            if all(s.producer_store_pc == first.producer_store_pc
                   and s.instrs == first.instrs for s in slices):
                candidates[pc] = slices
            else:
                stats.failure_histogram[FailureReason.UNRESOLVABLE_INPUT] += len(slices)

    # checkpointed leaf values must be globally consistent per key
    key_values: dict[LeafKey, set[int]] = defaultdict(set)
    for slices in candidates.values():
        for s in slices:
            for key, _, value in s.hist_requirements:
                key_values[key].add(value)
    bad_keys = {k for k, vals in key_values.items() if len(vals) > 1}

    table = AnnotationTable()
    next_id = 0
    for pc in sorted(candidates):
        slices = candidates[pc]
        if any(key in bad_keys for s in slices
               for key, _, _ in s.hist_requirements):
            stats.failure_histogram[FailureReason.UNRESOLVABLE_INPUT] += len(slices)
            continue
        rep = replace(slices[0], slice_id=next_id,
                      immutable=all(s.immutable for s in slices))
        table.slices[next_id] = rep
        table.rcmp_sites[pc] = next_id
        table.slice_tags[next_id] = tuple(sorted(
            {(s.producer_store_addr, s.producer_store_size) for s in slices}))
        for s in slices:
            for key, wseq, value in s.hist_requirements:
                entries = table.rec_sites.setdefault(wseq, [])
                if (key, value) not in entries:
                    entries.append((key, value))
        stats.annotated_pcs += 1
        stats.annotated_instances += len(slices)
        next_id += 1

    lens = [len(s.instrs) for s in table.slices.values()]
    stats.mean_len = sum(lens) / len(lens) if lens else 0.0
    stats.max_len = max(lens) if lens else 0
    for s in table.slices.values():
        for ins in s.instrs:
            for op in ins.operands:
                stats.binding_histogram[op.kind] += 1
    return table, stats


# ---------------------------------------------------------------------------
# annotation serialization

def _fmt_key(key: LeafKey) -> str:
    return f"{key[0]:#x}:{key[1]}"


def _parse_key(text: str) -> LeafKey:
    pc, _, slot = text.rpartition(":")
    return (int(pc, 0), int(slot))


def _fmt_operand(op: Operand) -> str:
    if op.kind == "CONST":
        return f"C:{op.value:#x}"
    if op.kind == "LIVE_REG":
        return f"L:{op.reg}"
    if op.kind == "HIST":
        return f"H:{_fmt_key(op.key)}"
    return f"T:{op.pos}"


def _parse_operand(text: str) -> Operand:
    kind, _, payload = text.partition(":")
    if kind == "C":
        return const_op(int(payload, 0))
    if kind == "L":
        return live_op(int(payload))
    if kind == "H":
        return hist_op(_parse_key(payload))
    if kind == "T":
        return temp_op(int(payload))
    raise AnnotationFormatError(f"bad operand {text!r}")


def emit_annotations(table: AnnotationTable) -> str:
    lines = [f"A version={ANNOTATION_VERSION}"]
    for sid in sorted(table.slices):
        s = table.slices[sid]
        lines.append(
            f"S slice_id={sid} tag={s.producer_store_addr:#x} size={s.producer_store_size} "
            f"seq={s.producer_store_seq} ppc={s.producer_store_pc:#x} "
            f"root={s.root_value:#x} immutable={int(s.immutable)} len={len(s.instrs)}"
        )
        for ins in s.instrs:
            ops = " ".join(
                f"{chr(ord('a') + i)}={_fmt_operand(o)}" for i, o in enumerate(ins.operands)
            )
            lines.append(f"  P pos={ins.slice_pos} op={ins.alu_op} {ops}")
        for key, wseq, value in s.hist_requirements:
            lines.append(f"  H key={_fmt_key(key)} seq={wseq} val={value:#x}")
        for reg, wseq, value in s.live_bindings:
            lines.append(f"  V reg={reg} seq={wseq} val={value:#x}")
        for addr, size in table.slice_tags.get(sid, ()):
            lines.append(f"  T addr={addr:#x} size={size}")
    for pc in sorted(table.rcmp_sites):
        lines.append(f"R pc={pc:#x} slice={table.rcmp_sites[pc]}")
    for seq in sorted(table.rec_sites):
        for key, value in table.rec_sites[seq]:
            lines.append(f"C seq={seq} key={_fmt_key(key)} val={value:#x}")
    lines.append("")
    return "\n".join(lines)


# the fields each record may carry, as emit_annotations writes them
_RECORD_FIELDS = {
    "A": {"version"},
    "S": {"slice_id", "tag", "size", "seq", "ppc", "root", "immutable", "len"},
    "P": {"pos", "op", "a", "b", "c"},
    "H": {"key", "seq", "val"},
    "V": {"reg", "seq", "val"},
    "T": {"addr", "size"},
    "R": {"pc", "slice"},
    "C": {"seq", "key", "val"},
}


def load_annotations(data) -> AnnotationTable:
    try:
        data = _read_text(data)
    except TraceFormatError as e:
        raise AnnotationFormatError(str(e)) from None
    table = AnnotationTable()
    current: dict | None = None

    def finish_current():
        # a slice's errors name its S record's line
        if current is None:
            return
        sid = current["sid"]
        where = f"line {current['lineno']}: slice {sid}"
        if len(current["instrs"]) != current["len"]:
            raise AnnotationFormatError(
                f"{where}: declared len {current['len']} but "
                f"{len(current['instrs'])} instructions")
        if not current["instrs"]:
            raise AnnotationFormatError(f"{where} is empty")
        hist_keys = {key for key, _, _ in current["hist"]}
        live_regs = {reg for reg, _, _ in current["live"]}
        for ins in current["instrs"]:
            for op in ins.operands:
                if (op.kind == "HIST" and op.key not in hist_keys) or \
                        (op.kind == "LIVE_REG" and op.reg not in live_regs):
                    raise AnnotationFormatError(
                        f"{where}: operand {_fmt_operand(op)} has no H/V record")
        table.slices[sid] = Slice(
            slice_id=sid,
            instrs=tuple(current["instrs"]),
            producer_store_addr=current["tag"],
            producer_store_size=current["size"],
            producer_store_seq=current["seq"],
            producer_store_pc=current["ppc"],
            root_value=current["root"],
            hist_requirements=tuple(current["hist"]),
            live_bindings=tuple(current["live"]),
            immutable=current["immutable"],
        )
        table.slice_tags[sid] = tuple(current["tags"])

    rcmp_lines: dict[int, int] = {}  # rcmp site pc -> its R record's line
    for lineno, raw in enumerate(data.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        tag = tokens[0]
        if tag == "S":
            finish_current()   # its errors name its own S record's line
        try:
            fields = _parse_kv(lineno, tokens[1:])
            if tag not in _RECORD_FIELDS:
                raise AnnotationFormatError(f"unknown record {tag!r}")
            unknown = set(fields) - _RECORD_FIELDS[tag]
            if unknown:
                raise AnnotationFormatError(f"unknown fields {sorted(unknown)}")
            if tag == "A":
                if (version := int(fields["version"])) != ANNOTATION_VERSION:
                    raise AnnotationFormatError(
                        f"version mismatch: got {version}, expected {ANNOTATION_VERSION}")
            elif tag == "S":
                current = {
                    "sid": int(fields["slice_id"]),
                    "tag": int(fields["tag"], 0),
                    "size": int(fields["size"]),
                    "seq": int(fields["seq"]),
                    "ppc": int(fields["ppc"], 0),
                    "root": int(fields["root"], 0),
                    "immutable": bool(int(fields["immutable"])),
                    "len": int(fields["len"]),
                    "instrs": [], "hist": [], "live": [], "tags": [],
                    "lineno": lineno,
                }
                if current["sid"] in table.slices:
                    raise AnnotationFormatError(f"duplicate slice {current['sid']}")
            elif tag in "PHVT" and current is None:
                raise AnnotationFormatError(f"{tag} record before any S record")
            elif tag == "P":
                pos, op = int(fields["pos"]), fields["op"]
                # the engine runs a slice in record order into an SFile of
                # `len` entries, so positions count up from 0 and a T:
                # operand reads an earlier position
                if pos != len(current["instrs"]):
                    raise AnnotationFormatError(
                        f"P pos={pos} out of order (expected {len(current['instrs'])})")
                if op not in ALU_OPS:
                    raise AnnotationFormatError(f"unknown op {op!r}")
                slots = ("a", "b", "c")[:ALU_ARITY[op]]
                given = tuple(k for k in ("a", "b", "c") if k in fields)
                if given != slots:
                    raise AnnotationFormatError(
                        f"op {op} expects operands {','.join(slots)}, "
                        f"got {','.join(given) or 'none'}")
                ops = tuple(_parse_operand(fields[k]) for k in slots)
                if any(o.kind == "TEMP" and not 0 <= o.pos < pos for o in ops):
                    raise AnnotationFormatError(
                        f"P pos={pos} reads a T: not computed before it")
                current["instrs"].append(SliceInstr(pos, op, ops))
            elif tag == "H":
                current["hist"].append(
                    (_parse_key(fields["key"]), int(fields["seq"]), int(fields["val"], 0)))
            elif tag == "V":
                current["live"].append(
                    (int(fields["reg"]), int(fields["seq"]), int(fields["val"], 0)))
            elif tag == "T":
                current["tags"].append((int(fields["addr"], 0), int(fields["size"])))
            elif tag == "R":
                pc = int(fields["pc"], 0)
                if pc in table.rcmp_sites:
                    raise AnnotationFormatError(f"duplicate rcmp site {pc:#x}")
                table.rcmp_sites[pc] = int(fields["slice"])
                rcmp_lines[pc] = lineno
            else:  # C
                table.rec_sites.setdefault(int(fields["seq"]), []).append(
                    (_parse_key(fields["key"]), int(fields["val"], 0)))
        except TraceFormatError as e:
            raise AnnotationFormatError(str(e)) from None
        except KeyError as missing:
            raise AnnotationFormatError(
                f"line {lineno}: missing required field {missing.args[0]!r}") from None
        except (ValueError, TypeError) as e:
            raise AnnotationFormatError(f"line {lineno}: {e}") from None
    finish_current()
    for pc, sid in table.rcmp_sites.items():
        if sid not in table.slices:
            raise AnnotationFormatError(f"line {rcmp_lines[pc]}: rcmp site {pc:#x} "
                                        f"references missing slice {sid}")
    return table
