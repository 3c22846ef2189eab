"""Trace building and synthetic workload generation.

`TraceBuilder` builds a trace in code, one instruction at a time, over a
model of the registers and memory; hand-written traces use it directly.
`gen_synthetic`, on top of it, turns a `SyntheticWorkloadSpec` into a
deterministic trace (see `trace.py` for the format) in one of four patterns:
a pointer chase, a stream, compute/store/load slots whose loads read values
an arithmetic chain produced, or segments of the three in turn (MIXED).
Every generated trace passes `validate_trace`; the same spec always gives
the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .isa import LINE_BYTES, MASK64, alu_eval
from .trace import (BranchInfo, Trace, TraceHeader, TraceInstruction,
                    _InstructionDraft)

PATTERNS = ("POINTER_CHASE", "STREAM", "COMPUTE_STORE_LOAD", "MIXED")


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


class TraceBuilder:
    """Builds a trace one instruction at a time. It numbers the seqs and
    models the registers and a byte memory, so each record carries the
    values its program computes: a load without a `value` reads the bytes
    earlier stores wrote (`read_mem`), and a store without one writes its
    data register, the first of its `srcs` (0 with none). An explicit
    `value` is taken as given: a load's that differs from the bytes stores
    wrote fails `validate_trace`, and a store's that differs from its data
    register passes it, though that register does not hold it."""

    def __init__(self, regs: int = 64):
        self.regs = [0] * regs
        self.instrs: list[TraceInstruction] = []
        self._mem: dict[int, int] = {}       # byte image of stored data

    def _emit(self, pc, kind, dst, srcs, imm, alu_op, addr, size, value, br, fault):
        self.instrs.append(_InstructionDraft(
            len(self.instrs), pc, kind, dst, tuple(srcs), imm, alu_op, addr,
            size, value, br, fault))

    def alu(self, pc, dst, op, srcs=(), imm=None, fault=False) -> None:
        ops = [self.regs[r] for r in srcs]
        if imm is not None:
            ops.append(imm)
        self.regs[dst] = alu_eval(op, ops)
        self._emit(pc, "ALU", dst, srcs, imm, op, None, None, None, None, fault)

    def load(self, pc, dst, addr, value=None, size=8, srcs=(), fault=False) -> None:
        if value is None:
            value = self.read_mem(addr, size)
        if dst is not None:
            self.regs[dst] = value
        self._emit(pc, "LOAD", dst, srcs, None, None, addr, size, value, None, fault)

    def store(self, pc, addr, value=None, size=8, srcs=(), fault=False) -> None:
        if value is None:
            value = self.regs[srcs[0]] if srcs else 0
        for off in range(size):
            self._mem[addr + off] = (value >> (8 * off)) & 0xFF
        self._emit(pc, "STORE", None, srcs, None, None, addr, size, value, None, fault)

    def branch(self, pc, srcs=(), taken=True, predicted=True) -> None:
        self._emit(pc, "BRANCH", None, srcs, None, None, None, None, None,
                   BranchInfo(taken, predicted), False)

    def nop(self, pc, srcs=(), fault=False) -> None:
        self._emit(pc, "NOP", None, srcs, None, None, None, None, None, None, fault)

    def read_mem(self, addr, size=8) -> int:
        """The `size` bytes at `addr`, 0 where no store wrote."""
        return sum(self._mem.get(addr + off, 0) << (8 * off) for off in range(size))

    def build(self, notes: tuple[str, ...] = ()) -> Trace:
        return Trace(header=TraceHeader(regs=len(self.regs), notes=notes),
                     instructions=tuple(self.instrs))


class _Generator(TraceBuilder):
    """The generator's policy on top of the builder: its pc arguments are
    static-site keys, each given one pc whose static fields never change;
    memory no store wrote holds a word seeded by the address; and branch
    outcomes are drawn from the spec's RNG."""

    def __init__(self, spec: SyntheticWorkloadSpec):
        super().__init__()
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.sites: dict[object, tuple] = {} # site key -> (pc, static fields)
        self.untraced: dict[int, int] = {}   # stable values for never-stored addrs
        self.untraced_rng = random.Random()  # reseeded by each such address

    def _emit(self, key, kind, dst, srcs, imm, alu_op, addr, size, value, br, fault):
        static = (kind, dst, srcs, imm, alu_op, fault)
        site = self.sites.get(key)
        if site is None:
            site = self.sites[key] = (0x1000 + 4 * len(self.sites), static)
        assert site[1] == static, f"static site {key} reused with different fields"
        # appended here, as a call to the base's `_emit` costs time per instruction
        self.instrs.append(_InstructionDraft(
            len(self.instrs), site[0], kind, dst, tuple(srcs), imm, alu_op, addr,
            size, value, br, fault))

    def read_mem(self, addr, size=8) -> int:
        if addr in self._mem:
            return super().read_mem(addr, size)
        if addr not in self.untraced:
            self.untraced_rng.seed((self.spec.seed << 32) ^ addr)
            self.untraced[addr] = self.untraced_rng.getrandbits(64)
        return self.untraced[addr]

    def draw_branch(self, key, src) -> None:
        taken = self.rng.random() < 0.5
        self.branch(key, (src,), taken, self.rng.random() >= self.spec.mispredict_rate)


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


def _make_compute_templates(b: _Generator, n_templates: int, slot_len: int,
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


def _emit_prologue(b: _Generator) -> None:
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


class _ComputeEmitter:
    """Compute/store/load slots over a shared store ring, one emitter per
    trace: its templates and slot counter carry across every call to `run`.
    Ring lines all map to one L1 set (4 KiB stride), so a dozen intervening
    stores are enough to evict the produced line before its consuming load;
    the slot lag also exceeds the reorder-buffer window so the store queue
    can never forward. Slots in the warmup prefix produce values but read
    nothing. Building one draws its templates from the trace's RNG."""

    def __init__(self, b: _Generator, tag: str, n_templates: int):
        spec = b.spec
        self.b, self.tag, self.slot = b, tag, 0
        self.slot_len = max(5, int(round(1.0 / spec.load_density))
                            if spec.load_density else 16)
        # the lag covers the reorder-buffer drain (commit-lagged stores have
        # not filled their lines yet) plus the 8 committed same-set fills
        # needed to evict the produced line, with margin
        self.lag = -(-_FORWARD_SAFE_DISTANCE // self.slot_len) + 12
        # a multiple of the template count so each ring position is only
        # ever written by one static store site (sites own disjoint mini-rings)
        self.ring_slots = n_templates * max(2, -(-(self.lag + 8) // n_templates))
        self.ring_base = _RING_BASE + _tag_id(tag) * 0x100_0000
        self.templates = _make_compute_templates(b, n_templates, self.slot_len, tag)

    def run(self, bound: int) -> None:
        """Emit whole slots while the trace holds fewer than `bound`
        instructions."""
        while len(self.b.instrs) < bound:
            self._emit_slot(self.templates[self.slot % len(self.templates)])
            self.slot += 1

    def _emit_slot(self, tpl: _ComputeTemplate) -> None:
        b, tag, slot, t = self.b, self.tag, self.slot, tpl.index
        temps = [_TEMP_REGS[(t * 4 + i) % len(_TEMP_REGS)] for i in range(4)]
        if tpl.has_branch:
            b.draw_branch((tag, "br", t), tpl.input_a)
        if tpl.uses_hist:
            # reloaded every slot from a fixed untraced address: the register
            # is dead by the time the paired load runs, forcing a Hist checkpoint
            b.load((tag, "hld", t), tpl.hist_reg, tpl.hist_addr)
        cur = tpl.hist_reg if tpl.uses_hist else tpl.input_a
        for step, (op, use_imm, imm) in enumerate(tpl.chain_ops):
            dst = temps[step % len(temps)]
            if use_imm:
                b.alu((tag, "chain", t, step), dst, op, srcs=(cur,), imm=imm)
            else:
                b.alu((tag, "chain", t, step), dst, op, srcs=(cur, tpl.input_b))
            cur = dst
        b.store((tag, "st", t), self.ring_base + (slot % self.ring_slots) * _SET_STRIDE,
                srcs=(cur,))
        dst = _SCRATCH_REGS[t % len(_SCRATCH_REGS)]
        if slot < self.lag:
            pass  # warmup prefix: fill the ring, read nothing
        elif tpl.recomputable:
            addr = self.ring_base + ((slot - self.lag) % self.ring_slots) * _SET_STRIDE
            b.load((tag, "ld", t), dst, addr)
        else:
            span = max(1, b.spec.working_set_bytes // LINE_BYTES)
            line = b.rng.randrange(span)
            b.load((tag, "ldu", t), dst, _UNTRACED_BASE + line * LINE_BYTES)
        for i in range(tpl.filler):
            dst = _SCRATCH_REGS[(t + i) % len(_SCRATCH_REGS)]
            b.alu((tag, "fill", t, i), dst, "ADD", srcs=(dst,), imm=1,
                  fault=tpl.fault_site and i == 0)


def _emit_pointer_chase(b: _Generator, tag: str, bound: int) -> None:
    spec = b.spec
    ws_lines = max(8, spec.working_set_bytes // LINE_BYTES)
    slot_len = max(2, int(round(1.0 / spec.load_density)) if spec.load_density else 16)
    cursor = b.rng.randrange(ws_lines)
    while len(b.instrs) < bound:
        addr = _CHASE_BASE + cursor * LINE_BYTES
        b.load((tag, "ld"), _PTR_REG, addr, srcs=(_PTR_REG,))
        # next hop derived from the (stable) loaded value
        cursor = b.regs[_PTR_REG] % ws_lines
        if b.rng.random() < spec.branch_density * slot_len:
            b.draw_branch((tag, "br"), _PTR_REG)
        for i in range(slot_len - 1):
            dst = _SCRATCH_REGS[i % len(_SCRATCH_REGS)]
            b.alu((tag, "fill", i), dst, "ADD", srcs=(dst,), imm=1)


def _emit_stream(b: _Generator, tag: str, bound: int) -> None:
    spec = b.spec
    ws_lines = max(8, spec.working_set_bytes // LINE_BYTES)
    gap = max(1, int(round(1.0 / spec.load_density)) - 2 if spec.load_density else 8)
    pos = 0
    while len(b.instrs) < bound:
        addr = _STREAM_BASE + (pos % (ws_lines * 8)) * 8
        b.load((tag, "ld"), _SCRATCH_REGS[0], addr)
        pos += 1
        if spec.store_density > 0 and pos % max(1, int(1 / max(spec.store_density, 1e-9))) == 0:
            b.alu((tag, "val"), _TEMP_REGS[0], "ADD", srcs=(_INPUT_REGS[0],), imm=7)
            waddr = _STREAM_BASE + 0x80_0000 + (pos % ws_lines) * LINE_BYTES
            b.store((tag, "st"), waddr, srcs=(_TEMP_REGS[0],))
        if b.rng.random() < spec.branch_density * gap:
            b.draw_branch((tag, "br"), _SCRATCH_REGS[0])
        for i in range(gap):
            dst = _SCRATCH_REGS[(1 + i) % len(_SCRATCH_REGS)]
            b.alu((tag, "fill", i), dst, "XOR", srcs=(dst, _INPUT_REGS[1]))


def _emit_mixed(b: _Generator) -> None:
    count = b.spec.count
    seg = max(200, count // 12)
    compute = _ComputeEmitter(b, "mc", n_templates=20)
    i = 0
    while len(b.instrs) < count:
        target = min(count, len(b.instrs) + seg)
        if i % 3 == 0:
            compute.run(target)
        elif i % 3 == 1:
            _emit_stream(b, "ms", target)
        else:
            _emit_pointer_chase(b, "mp", target)
        i += 1


def gen_synthetic(spec: SyntheticWorkloadSpec) -> Trace:
    """Generate a deterministic synthetic trace for the given spec.

    Output always passes validate_trace with zero violations; for
    COMPUTE_STORE_LOAD at least the requested fraction of loads read values
    produced by arithmetic-only chains.
    """
    _check_spec(spec)
    b = _Generator(spec)
    _emit_prologue(b)
    if spec.pattern == "COMPUTE_STORE_LOAD":
        _ComputeEmitter(b, "c", n_templates=40).run(spec.count)
    elif spec.pattern == "POINTER_CHASE":
        _emit_pointer_chase(b, "p", spec.count)
    elif spec.pattern == "STREAM":
        _emit_stream(b, "s", spec.count)
    else:
        _emit_mixed(b)
    del b.instrs[spec.count:]   # the last slot or segment may run past count
    return b.build(notes=(f"pattern={spec.pattern} count={spec.count} seed={spec.seed}",))
