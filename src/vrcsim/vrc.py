"""The value-recomputation engine: slice instruction buffer (IBuff), scratch
file (SFile), checkpointed-operand table (Hist), store-tag invalidation, and
sequential slice execution with functional-unit contention.

A shadowed load that misses in L1 makes one request, `enqueue`: it either
queues a recomputation and returns True, or returns False and the load
delays. An accepted load never touches the memory hierarchy. Slice
instructions execute one at a time, each on a unit of its op's FU class
(`isa.ALU_FU`) claimed from the core's per-cycle budget, reading live
register values through the reader the core passes to each `step`,
checkpointed leaves from Hist, and intermediates from the SFile; the root
value is then copied to the load's destination in one delivery cycle.
Recomputation needs no validation: the load is complete at delivery. A
clamped request (VRC2, or an oracle request that carries its value) skips
the per-instruction timing and completes after the clamp.

A recomputation that cannot complete, because its slice faults or is
invalidated while queued or running, leaves the engine on one channel,
`fallbacks`, as a (load seq, faulted) pair; the core reissues the load.

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

from .isa import ALU_FU, LINE_BYTES, ArithmeticFault, alu_eval_strict
from .slicer import AnnotationTable, Slice

DEFAULT_HIST_CAPACITY = (22 * 1024) // 8   # 8-byte entries in a 22 KiB table
ORACLE_CLAMP_CYCLES = 2                     # oracle recomputation latency


@dataclass(frozen=True)
class VrcConfig:
    hist_capacity: int = DEFAULT_HIST_CAPACITY
    queue_depth: int = 16
    lossy_tags: bool = False
    clamp_cycles: int | None = None    # VRC-2cyc mode: cap modeled slice latency
    allow_mutable: bool = False        # conservative mode recomputes immutable only


@dataclass(slots=True)
class _Pending:
    slice_id: int | None       # None for oracle requests
    load_seq: int
    oracle_value: int | None = None


@dataclass(slots=True)
class _Active:
    pend: _Pending
    instrs: tuple
    live: tuple
    start_cycle: int
    clamp_left: int | None
    cursor: int = 0
    cycles_into_instr: int = 0
    sfile: list = field(default_factory=list)
    started: bool = False


IDLE = "IDLE"
BUSY = "BUSY"
DONE = "DONE"

OK = "OK"
OVERFLOW = "OVERFLOW"


class VrcState:
    def __init__(self, table: AnnotationTable | None = None,
                 config: VrcConfig | None = None):
        self.config = config or VrcConfig()
        self.table = table or AnnotationTable()
        self.ibuff: dict[int, Slice] = {}
        for sid, s in self.table.slices.items():
            if s.immutable or self.config.allow_mutable:
                self.ibuff[sid] = s
        self.hist: dict = {}
        # slices that may not run: invalidated for good in exact mode; in
        # lossy mode disarmed, all of them at the start and after a bulk
        # reset, until their producer stores commit again
        self.unusable: set[int] = set(self.ibuff) if self.config.lossy_tags else set()
        self.signature: set[int] = set()
        self._producer_pcs = {s.producer_store_pc: sid
                              for sid, s in self.ibuff.items()}
        self.queue: deque[_Pending] = deque()
        self.active: _Active | None = None
        self.fallbacks: list[tuple[int, bool]] = []   # (load seq, faulted)
        # counters
        self.completed = 0
        self.busy_cycles = 0
        self.total_slice_cycles = 0
        self.hist_inserts = 0
        self.hist_overflows = 0
        self.struct_accesses = 0
        self.invalidations = 0

    # -- requests -------------------------------------------------------------

    def slice_usable(self, sid: int | None) -> bool:
        if sid not in self.ibuff or sid in self.unusable:
            return False
        return all(key in self.hist for key, _, _ in self.ibuff[sid].hist_requirements)

    def enqueue(self, pc: int, load_seq: int, oracle_value: int | None = None) -> bool:
        """Request recomputation of the shadowed L1 miss `load_seq` at `pc`.
        Queues it and returns True when the queue has room and the pc's slice
        is usable, else returns False and the load delays. An oracle request
        carries its value and needs no slice."""
        if len(self.queue) >= self.config.queue_depth:
            return False
        sid = None
        if oracle_value is None:
            sid = self.table.rcmp_sites.get(pc)
            if not self.slice_usable(sid):
                return False
        self.queue.append(_Pending(sid, load_seq, oracle_value))
        return True

    def cancel_queued(self, load_seq: int) -> bool:
        """Drop a not-yet-started recomputation (load left speculation first)."""
        for pend in self.queue:
            if pend.load_seq == load_seq:
                self.queue.remove(pend)
                return True
        return False

    def _pop_queue(self, now: int) -> None:
        if self.active is not None or not self.queue:
            return
        pend = self.queue.popleft()
        if pend.slice_id is None:
            self.active = _Active(pend, (), (), now, ORACLE_CLAMP_CYCLES)
            return
        if pend.slice_id in self.unusable:
            # slice was invalidated while queued: fall back to the load
            self.fallbacks.append((pend.load_seq, False))
            return
        s = self.ibuff[pend.slice_id]
        self.active = _Active(pend, s.instrs, s.live_bindings, now,
                              self.config.clamp_cycles, sfile=[None] * len(s.instrs))

    # -- execution -------------------------------------------------------------

    def _slice_operand(self, act: _Active, op, read_live) -> int:
        self.struct_accesses += 1
        if op.kind == "CONST":
            return op.value
        if op.kind == "LIVE_REG":
            value = read_live(op.reg, act.pend.load_seq)
            assert value is not None, "live operand must be ready before start"
            return value
        if op.kind == "HIST":
            return self.hist[op.key]
        return act.sfile[op.pos]

    def step(self, now: int, take_fu=lambda fu: True,
             read_live=lambda reg, load_seq: 0) -> tuple[str, object]:
        """Advance the engine by one cycle. `take_fu(fu)` claims a shared
        unit of the instruction's functional-unit class (`isa.ALU_FU`);
        recomputation stalls for the cycle when none is free. `read_live(reg, load_seq)` is the value a
        live-register leaf holds at the load's program point, or None while
        its producer has not executed (the slice waits to start). Returns
        (status, payload); DONE carries (load_seq, value, finish_cycle). A
        faulting slice is BUSY for its last cycle and leaves on `fallbacks`."""
        if self.active is None:
            self._pop_queue(now)
            if self.active is None:
                return IDLE, None
        act = self.active
        if not act.started:
            if any(read_live(reg, act.pend.load_seq) is None for reg, _, _ in act.live):
                return BUSY, None
            act.started = True

        self.busy_cycles += 1
        if act.clamp_left is not None:
            # capped latency, no FU demand: evaluate everything, charge the cap
            act.clamp_left -= 1
            if act.clamp_left > 0:
                return BUSY, None
            if act.pend.slice_id is None:
                return self._finish(act, act.pend.oracle_value, now)
            try:
                for ins in act.instrs:
                    self._execute(act, ins, read_live)
            except ArithmeticFault:
                return self._fault(act)
            return self._finish(act, act.sfile[-1], now)

        if act.cursor < len(act.instrs):
            ins = act.instrs[act.cursor]
            if not take_fu(ALU_FU[ins.alu_op]):
                return BUSY, None  # contended out this cycle
            act.cycles_into_instr += 1
            if act.cycles_into_instr >= ins.latency:
                try:
                    self._execute(act, ins, read_live)
                except ArithmeticFault:
                    return self._fault(act)
                act.cursor += 1
                act.cycles_into_instr = 0
            return BUSY, None
        # delivery: one cycle to copy the root value to the destination
        return self._finish(act, act.sfile[-1], now)

    def _execute(self, act: _Active, ins, read_live) -> None:
        ops = [self._slice_operand(act, o, read_live) for o in ins.operands]
        act.sfile[ins.slice_pos] = alu_eval_strict(ins.alu_op, ops)

    def _finish(self, act: _Active, value: int, now: int):
        finish = now + 1
        self.total_slice_cycles += finish - act.start_cycle
        self.completed += 1
        self.active = None
        return DONE, (act.pend.load_seq, value, finish)

    def _fault(self, act: _Active):
        self.active = None
        self.fallbacks.append((act.pend.load_seq, True))
        return BUSY, None

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
            line = addr - (addr % LINE_BYTES)
            if line in self.signature:
                # false positives allowed: reset everything in bulk
                self.signature.clear()
                self.unusable = set(self.ibuff)
                self.invalidations += 1
                self._abort_active_if_unusable()
            if own_sid is not None:
                self.unusable.discard(own_sid)
                self.signature.add(line)
            return
        for sid, ranges in self.table.slice_tags.items():
            if sid not in self.ibuff or sid in self.unusable or sid == own_sid:
                continue
            for taddr, tsize in ranges:
                if addr < taddr + tsize and taddr < addr + size:
                    self.unusable.add(sid)
                    self.invalidations += 1
                    break
        self._abort_active_if_unusable()

    def _abort_active_if_unusable(self) -> None:
        act = self.active
        if act is not None and act.pend.slice_id in self.unusable:
            self.fallbacks.append((act.pend.load_seq, False))
            self.active = None

    def mean_slice_cycles(self) -> float | None:
        if not self.completed:
            return None
        return self.total_slice_cycles / self.completed
