"""The value-recomputation engine: slice instruction buffer (IBuff), scratch
file (SFile), checkpointed-operand table (Hist), store-tag invalidation, and
sequential slice execution with functional-unit contention.

A shadowed load that misses in L1 and has a valid slice jumps into the
engine instead of touching the memory hierarchy. Slice instructions execute
one at a time, reading live register values from the core's dataflow,
checkpointed leaves from Hist, and intermediate results from the SFile;
the final value is copied to the load's destination after a one-cycle
delivery. Recomputation never accesses the hierarchy and its result needs
no validation: the load is complete at delivery.

Committed stores are matched against producer tags to invalidate slices
whose data may have changed. In exact mode (default) each slice keeps its
own tag set and dies permanently on a foreign-store hit; in lossy mode tags
share one line-granular signature that resets in bulk on any hit, and
slices re-arm as their producer stores commit again. A store at the slice's
own producer site refreshes the value the slice recomputes and therefore
never invalidates it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .isa import ArithmeticFault, alu_eval_strict
from .slicer import AnnotationTable, Slice

DEFAULT_HIST_CAPACITY = (22 * 1024) // 8   # 8-byte entries in a 22 KiB table


class RcmpDecision(Enum):
    PERFORM_LOAD = "PERFORM_LOAD"
    WAIT_MSHR = "WAIT_MSHR"
    RECOMPUTE = "RECOMPUTE"
    DELAY = "DELAY"


@dataclass(frozen=True)
class VrcConfig:
    hist_capacity: int = DEFAULT_HIST_CAPACITY
    queue_depth: int = 16
    delivery_cycles: int = 1
    lossy_tags: bool = False
    clamp_cycles: int | None = None    # VRC-2cyc mode: cap modeled slice latency
    allow_mutable: bool = False        # conservative mode recomputes immutable only


@dataclass(slots=True)
class _Pending:
    slice_id: int | None       # None for oracle pseudo-slices
    dest: object                # core's key for the requesting load
    load_seq: int
    oracle_value: int | None = None


@dataclass(slots=True)
class _Active:
    pend: _Pending
    instrs: tuple
    start_cycle: int
    cursor: int = 0
    cycles_into_instr: int = 0
    delivery_left: int = 0
    clamp_left: int | None = None
    sfile: list = field(default_factory=list)
    value: int | None = None
    started: bool = False


IDLE = "IDLE"
BUSY = "BUSY"
DONE = "DONE"
EXC_FALLBACK = "EXC_FALLBACK"

OK = "OK"
OVERFLOW = "OVERFLOW"


class VrcState:
    def __init__(self, table: AnnotationTable | None = None,
                 config: VrcConfig | None = None,
                 live_reader=None):
        """`live_reader(reg, load_seq) -> int | None` supplies the
        architectural value a live-register leaf holds at the load's program
        point, or None while its producer has not executed yet."""
        self.config = config or VrcConfig()
        self.table = table or AnnotationTable()
        self.live_reader = live_reader or (lambda reg, seq: 0)
        self.ibuff: dict[int, Slice] = {}
        for sid, s in self.table.slices.items():
            if s.immutable or self.config.allow_mutable:
                self.ibuff[sid] = s
        self.hist: dict = {}
        self.invalid: set[int] = set()
        # lossy mode starts disarmed; producer commits repopulate
        self.disarmed: set[int] = set(self.ibuff) if self.config.lossy_tags else set()
        self.signature: set[int] = set()
        self._producer_pcs = {s.producer_store_pc: sid
                              for sid, s in self.ibuff.items()}
        self.queue: deque[_Pending] = deque()
        self.active: _Active | None = None
        self.aborted: list = []    # dests whose recomputation was invalidated
        # counters
        self.started = 0
        self.completed = 0
        self.exc_fallbacks = 0
        self.busy_cycles = 0
        self.total_slice_cycles = 0
        self.hist_inserts = 0
        self.hist_overflows = 0
        self.struct_accesses = 0
        self.invalidations = 0

    # -- availability -------------------------------------------------------

    def slice_for_pc(self, pc: int) -> int | None:
        sid = self.table.rcmp_sites.get(pc)
        return sid if sid in self.ibuff else None

    def slice_usable(self, sid: int) -> bool:
        if sid not in self.ibuff or sid in self.invalid or sid in self.disarmed:
            return False
        return all(key in self.hist for key, _, _ in self.ibuff[sid].hist_requirements)

    def queue_free(self) -> bool:
        return len(self.queue) < self.config.queue_depth

    def rcmp_decide(self, pc: int, shadowed: bool, lookup_kind: str) -> RcmpDecision:
        """Branch-on-L1-miss semantics for an annotated load site.

        Unshadowed loads and shadowed L1 hits act as conventional loads; a
        shadowed hit on an in-flight miss waits for that fill; a shadowed
        true miss recomputes when a usable slice exists, otherwise delays.
        """
        if not shadowed:
            return RcmpDecision.PERFORM_LOAD
        if lookup_kind == "L1_HIT":
            return RcmpDecision.PERFORM_LOAD
        if lookup_kind == "MSHR_HIT":
            return RcmpDecision.WAIT_MSHR
        sid = self.slice_for_pc(pc)
        if sid is not None and self.slice_usable(sid) and self.queue_free():
            return RcmpDecision.RECOMPUTE
        return RcmpDecision.DELAY

    # -- queue management -----------------------------------------------------

    def enqueue(self, slice_id: int, dest, load_seq: int) -> None:
        assert self.queue_free(), "caller must check queue_free"
        self.queue.append(_Pending(slice_id=slice_id, dest=dest, load_seq=load_seq))

    def enqueue_oracle(self, dest, load_seq: int, value: int) -> None:
        assert self.queue_free()
        self.queue.append(_Pending(slice_id=None, dest=dest, load_seq=load_seq,
                                   oracle_value=value))

    def cancel_queued(self, dest) -> bool:
        """Drop a not-yet-started recomputation (load left speculation first)."""
        for pend in self.queue:
            if pend.dest == dest:
                self.queue.remove(pend)
                return True
        return False

    def start(self, slice_id: int, dest, load_seq: int, now: int) -> None:
        """Begin executing a slice on an idle engine (unit-level entry; the
        core normally lets step() pop the queue)."""
        assert self.active is None
        self.enqueue(slice_id, dest, load_seq)
        self._pop_queue(now)

    def _pop_queue(self, now: int) -> None:
        if self.active is not None or not self.queue:
            return
        pend = self.queue.popleft()
        if pend.slice_id is not None and (
                pend.slice_id in self.invalid or pend.slice_id in self.disarmed):
            # slice was invalidated while queued: fall back to the load
            self.aborted.append(pend.dest)
            return
        if pend.slice_id is None:
            instrs = ()
            clamp = 2  # oracle recomputation is modeled at two cycles
        else:
            instrs = self.ibuff[pend.slice_id].instrs
            clamp = self.config.clamp_cycles
        self.active = _Active(
            pend=pend, instrs=instrs, start_cycle=now,
            delivery_left=self.config.delivery_cycles,
            clamp_left=clamp,
            sfile=[None] * len(instrs),
        )
        self.started += 1

    # -- execution -------------------------------------------------------------

    def _live_values_ready(self, act: _Active) -> bool:
        s = self.ibuff.get(act.pend.slice_id)
        if s is None:
            return True
        for reg, _, _ in s.live_bindings:
            if self.live_reader(reg, act.pend.load_seq) is None:
                return False
        return True

    def _slice_operand(self, act: _Active, op) -> int:
        self.struct_accesses += 1
        if op.kind == "CONST":
            return op.value
        if op.kind == "LIVE_REG":
            value = self.live_reader(op.reg, act.pend.load_seq)
            assert value is not None, "live operand must be ready before start"
            return value
        if op.kind == "HIST":
            return self.hist[op.key]
        return act.sfile[op.pos]

    def step(self, now: int, take_fu=None) -> tuple[str, object]:
        """Advance the engine by one cycle. `take_fu(kind)` claims a shared
        functional-unit slot ('alu' or 'mul'); recomputation stalls for the
        cycle when none is free. Returns (status, payload): DONE carries
        (dest, value, finish_cycle), EXC_FALLBACK carries dest."""
        if self.active is None:
            self._pop_queue(now)
            if self.active is None:
                return IDLE, None
        act = self.active
        if not act.started:
            if not self._live_values_ready(act):
                return BUSY, None
            act.started = True

        self.busy_cycles += 1
        if act.pend.slice_id is None:
            # oracle pseudo-slice: fixed 2-cycle latency, no FU demand
            act.clamp_left -= 1
            if act.clamp_left <= 0:
                return self._finish(act, act.pend.oracle_value, now)
            return BUSY, None

        if act.clamp_left is not None:
            # artificially capped latency: evaluate everything, charge the cap
            act.clamp_left -= 1
            if act.clamp_left > 0:
                return BUSY, None
            try:
                value = self._evaluate_all(act)
            except ArithmeticFault:
                return self._fault(act)
            return self._finish(act, value, now)

        if act.cursor < len(act.instrs):
            ins = act.instrs[act.cursor]
            kind = "mul" if ins.alu_op == "MUL" else "alu"
            if take_fu is not None and not take_fu(kind):
                return BUSY, None  # contended out this cycle
            act.cycles_into_instr += 1
            if act.cycles_into_instr >= ins.latency:
                try:
                    ops = [self._slice_operand(act, o) for o in ins.operands]
                    act.sfile[ins.slice_pos] = alu_eval_strict(ins.alu_op, ops)
                except ArithmeticFault:
                    return self._fault(act)
                act.cursor += 1
                act.cycles_into_instr = 0
            return BUSY, None
        # delivery: copy the root value to the destination register
        act.delivery_left -= 1
        if act.delivery_left > 0:
            return BUSY, None
        return self._finish(act, act.sfile[-1], now)

    def _evaluate_all(self, act: _Active) -> int:
        for ins in act.instrs:
            ops = [self._slice_operand(act, o) for o in ins.operands]
            act.sfile[ins.slice_pos] = alu_eval_strict(ins.alu_op, ops)
        return act.sfile[-1]

    def _finish(self, act: _Active, value: int, now: int):
        finish = now + 1
        self.total_slice_cycles += finish - act.start_cycle
        self.completed += 1
        self.active = None
        return DONE, (act.pend.dest, value, finish)

    def _fault(self, act: _Active):
        self.exc_fallbacks += 1
        self.active = None
        return EXC_FALLBACK, act.pend.dest

    # -- Hist ---------------------------------------------------------------------

    def rec_checkpoint(self, key, value: int) -> str:
        """Checkpoint a leaf operand. Overwriting an existing key is free;
        inserting at capacity fails and leaves dependent slices unavailable."""
        if key in self.hist:
            self.hist[key] = value
            return OK
        if len(self.hist) >= self.config.hist_capacity:
            self.hist_overflows += 1
            return OVERFLOW
        self.hist[key] = value
        self.hist_inserts += 1
        return OK

    # -- store-tag invalidation ------------------------------------------------------

    def invalidate_on_store(self, addr: int, size: int = 8,
                            store_pc: int | None = None) -> None:
        """Match a committed store against producer tags. The slice's own
        producer site is the definition of the value, not a foreign update,
        so it re-arms rather than invalidates."""
        own_sid = self._producer_pcs.get(store_pc) if store_pc is not None else None
        if self.config.lossy_tags:
            line = addr - (addr % 64)
            if line in self.signature:
                # false positives allowed: reset everything in bulk
                self.signature.clear()
                self.disarmed = set(self.ibuff)
                self.invalidations += 1
                self._abort_active_if_unusable()
            if own_sid is not None:
                self.disarmed.discard(own_sid)
                self.signature.add(line)
            return
        for sid, ranges in self.table.slice_tags.items():
            if sid not in self.ibuff or sid in self.invalid or sid == own_sid:
                continue
            for taddr, tsize in ranges:
                if addr < taddr + tsize and taddr < addr + size:
                    self.invalid.add(sid)
                    self.invalidations += 1
                    break
        self._abort_active_if_unusable()

    def _abort_active_if_unusable(self) -> None:
        act = self.active
        if act is None or act.pend.slice_id is None:
            return
        sid = act.pend.slice_id
        if sid in self.invalid or sid in self.disarmed:
            self.aborted.append(act.pend.dest)
            self.active = None

    def mean_slice_cycles(self) -> float | None:
        if not self.completed:
            return None
        return self.total_slice_cycles / self.completed
