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
clamped request skips the per-instruction timing and completes after
`CLAMP_CYCLES`: every request under the VRC2 policy, which `VrcState`
takes from the core, and an oracle request, which carries its value.

Hist holds committed values: when an instruction at a checkpoint site
commits, the core checkpoints the value that instruction committed.

Every request leaves the engine on one channel, `ended`, as a (load seq,
value) pair: the value is delivered the cycle after the step that ends the
request, and None means the slice faulted or was invalidated while queued or
running, so the load falls back to Delay-on-Miss.

Committed stores are matched against producer tags to invalidate slices
whose data may have changed. In exact mode (default) each slice keeps its
own tag set and dies permanently on a foreign-store hit; in lossy mode tags
share one line-granular signature that resets in bulk on any hit. A store
refreshes the value of every slice whose producer pc it is, so it never
invalidates one of them, and in lossy mode it re-arms all of them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .isa import ALU_FU, LINE_BYTES, ArithmeticFault, alu_eval_strict
from .slicer import AnnotationTable, Slice, read_operand

DEFAULT_HIST_CAPACITY = (22 * 1024) // 8   # 8-byte entries in a 22 KiB table
CLAMP_CYCLES = 2                # modeled latency of a VRC2 or oracle request


@dataclass(frozen=True)
class VrcConfig:
    """The engine's structures; the clamp comes from the policy."""
    hist_capacity: int = DEFAULT_HIST_CAPACITY
    queue_depth: int = 16
    lossy_tags: bool = False
    allow_mutable: bool = False        # conservative mode recomputes immutable only


@dataclass(slots=True)
class _Request:
    load_seq: int
    slice_id: int | None       # None for oracle requests
    instrs: tuple
    live: tuple
    clamp_left: int | None
    sfile: list                # an oracle request's holds its value
    start_cycle: int = 0       # stamped when the request starts
    cursor: int = 0
    cycles_into_instr: int = 0
    started: bool = False


class VrcState:
    def __init__(self, table: AnnotationTable | None = None,
                 config: VrcConfig | None = None, policy: str = "VRC"):
        self.config = config or VrcConfig()
        self.clamp = CLAMP_CYCLES if policy == "VRC2" else None
        self.table = table or AnnotationTable()
        self.ibuff: dict[int, Slice] = {
            sid: s for sid, s in self.table.slices.items()
            if s.immutable or self.config.allow_mutable}
        self.hist: dict = {}
        # slices that may not run: invalidated for good in exact mode; in
        # lossy mode disarmed, all of them at the start and after a bulk
        # reset, until their producer stores commit again
        self.unusable: set[int] = set(self.ibuff) if self.config.lossy_tags else set()
        self.signature: set[int] = set()
        # producer store pc -> the IBuff slices whose value it stores; line
        # -> (slice, addr, size) of each IBuff slice's tag that touches the
        # line (a tag of size 0 or less matches only a store over its addr)
        self._produced_by: dict[int, set[int]] = {}
        self._tags_by_line: dict[int, list[tuple[int, int, int]]] = {}
        for sid, s in self.ibuff.items():
            self._produced_by.setdefault(s.producer_store_pc, set()).add(sid)
            for taddr, tsize in self.table.slice_tags.get(sid, ()):
                for line in range(taddr // LINE_BYTES,
                                  (taddr + max(tsize, 1) - 1) // LINE_BYTES + 1):
                    self._tags_by_line.setdefault(line, []).append((sid, taddr, tsize))
        self.queue: deque[_Request] = deque()
        self.active: _Request | None = None
        # requests ended since the core last read them: (load seq, value),
        # the value None when the load falls back
        self.ended: list[tuple[int, int | None]] = []
        # counters
        self.completed = 0
        self.faults = 0
        self.busy_cycles = 0
        self.total_slice_cycles = 0
        self.hist_inserts = 0
        self.hist_overflows = 0
        self.struct_accesses = 0
        self.invalidations = 0
        self.fu_ops = 0                 # units taken from the core's budget

    # -- requests -------------------------------------------------------------

    def enqueue(self, pc: int, load_seq: int, oracle_value: int | None = None) -> bool:
        """Request recomputation of the shadowed L1 miss `load_seq` at `pc`.
        Queues it and returns True when the queue has room, the pc's slice is
        in IBuff and usable, and Hist holds every leaf it reads; else returns
        False and the load delays. An oracle request carries its value and
        needs no slice."""
        if len(self.queue) >= self.config.queue_depth:
            return False
        if oracle_value is not None:
            self.queue.append(_Request(load_seq, None, (), (), CLAMP_CYCLES,
                                       [oracle_value]))
            return True
        sid = self.table.rcmp_sites.get(pc)
        s = self.ibuff.get(sid)
        if s is None or sid in self.unusable or \
                any(key not in self.hist for key, _, _ in s.hist_requirements):
            return False
        self.queue.append(_Request(load_seq, sid, s.instrs, s.live_bindings,
                                   self.clamp, [None] * len(s.instrs)))
        return True

    def cancel_queued(self, load_seq: int) -> bool:
        """Drop a not-yet-started recomputation (load left speculation first)."""
        for req in self.queue:
            if req.load_seq == load_seq:
                self.queue.remove(req)
                return True
        return False

    # -- execution -------------------------------------------------------------

    def step(self, now: int, budget: list, read_live) -> bool:
        """Advance the engine by one cycle. Each slice instruction takes a
        unit of its op's FU class (`isa.ALU_FU`) from `budget`, the core's
        units left this cycle; recomputation stalls for the cycle when none
        is left. `read_live(reg, load_seq)` is the value a live-register
        leaf holds at the load's program point, or None while its producer
        has not executed (the slice waits to start). Returns whether the
        engine worked this cycle: False when it is idle, and in a cycle that
        only drops a request invalidated while queued."""
        act = self.active
        if act is None:
            if not self.queue:
                return False
            act = self.active = self.queue.popleft()
            if act.slice_id in self.unusable:
                self._end(None)  # invalidated while queued
                return False
            act.start_cycle = now
        if not act.started:
            if any(read_live(reg, act.load_seq) is None for reg, _, _ in act.live):
                return True
            act.started = True

        self.busy_cycles += 1
        if act.clamp_left is not None:
            # capped latency, no FU demand: evaluate everything, charge the cap
            act.clamp_left -= 1
            if act.clamp_left > 0:
                return True
        elif act.cursor < len(act.instrs):
            ins = act.instrs[act.cursor]
            fu = ALU_FU[ins.alu_op]
            if budget[fu] <= 0:
                return True  # contended out this cycle
            budget[fu] -= 1
            self.fu_ops += 1
            act.cycles_into_instr += 1
            if act.cycles_into_instr >= ins.latency:
                act.cursor += 1
                act.cycles_into_instr = 0
                self._execute(act, (ins,), read_live)
            return True
        # the last cycle: a clamped request evaluates its whole slice, and
        # an unclamped one copies the root value to the load's destination
        if self._execute(act, act.instrs[act.cursor:], read_live):
            self._end(act.sfile[-1], now)
        return True

    def _execute(self, act: _Request, instrs, read_live) -> bool:
        """Evaluate `instrs` into the SFile. A fault ends the request and
        returns False."""
        load_seq, hist, sfile = act.load_seq, self.hist, act.sfile

        def live(reg):
            value = read_live(reg, load_seq)
            assert value is not None, "live operand must be ready before start"
            return value

        try:
            for ins in instrs:
                ops = [read_operand(o, live, hist, sfile) for o in ins.operands]
                self.struct_accesses += len(ops)
                sfile[ins.slice_pos] = alu_eval_strict(ins.alu_op, ops)
        except ArithmeticFault:
            self.faults += 1
            self._end(None)
            return False
        return True

    def _end(self, value: int | None, now: int = 0) -> None:
        """End the active request: its value is delivered at `now + 1`, or
        None sends the load back to Delay-on-Miss."""
        act = self.active
        self.active = None
        self.ended.append((act.load_seq, value))
        if value is not None:
            self.total_slice_cycles += now + 1 - act.start_cycle
            self.completed += 1

    # -- Hist ---------------------------------------------------------------------

    def rec_checkpoint(self, key, value: int) -> None:
        """Checkpoint a leaf operand. Overwriting an existing key is free;
        inserting at capacity fails and leaves dependent slices unavailable."""
        if key not in self.hist:
            if len(self.hist) >= self.config.hist_capacity:
                self.hist_overflows += 1
                return
            self.hist_inserts += 1
        self.hist[key] = value

    # -- store-tag invalidation ------------------------------------------------------

    def invalidate_on_store(self, addr: int, size: int = 8,
                            store_pc: int | None = None) -> None:
        """Match a committed store against producer tags: in exact mode,
        only those indexed under the lines it touches. A store defines the
        value of every slice whose producer pc it is, so it never
        invalidates one of them, and in lossy mode it re-arms them all."""
        own = self._produced_by.get(store_pc, ())
        lossy = self.config.lossy_tags
        if lossy:
            line = addr - (addr % LINE_BYTES)
            if line in self.signature:
                # false positives allowed: reset everything in bulk
                self.signature.clear()
                self.unusable = set(self.ibuff)
                self.invalidations += 1
        else:
            for line in range(addr // LINE_BYTES, (addr + size - 1) // LINE_BYTES + 1):
                for sid, taddr, tsize in self._tags_by_line.get(line, ()):
                    if addr < taddr + tsize and taddr < addr + size \
                            and sid not in self.unusable and sid not in own:
                        self.unusable.add(sid)
                        self.invalidations += 1
        # a running slice made unusable falls back, also one this store re-arms
        if self.active is not None and self.active.slice_id in self.unusable:
            self._end(None)
        if lossy and own:
            self.unusable.difference_update(own)
            self.signature.add(line)

    def mean_slice_cycles(self) -> float | None:
        if not self.completed:
            return None
        return self.total_slice_cycles / self.completed
