"""Cycle-stepped out-of-order core timing model.

The model dispatches the (correct-path) trace in order, tracks real value
dataflow through register producers, issues to a shared functional-unit pool,
and commits in order. Loads run through the policy automaton:

  BASELINE    loads access the hierarchy as soon as their address is ready.
  DOM         shadowed loads are hidden accesses: the hierarchy lets them hit
              in L1 (replacement update deferred) or ride an in-flight fill and
              refuses a true miss, which is delayed and issues once unshadowed.
  VP          as DOM, plus a delayed load with a confident prediction wakes
              its dependents after the 2-cycle prediction; the real access
              (validation) happens at unshadow, serialized across predicted
              loads; a mismatch replays dependents with the redirect penalty.
  VRC/VRC2    as DOM, plus annotated shadowed misses recompute their value in
              the engine and complete without validation; VRC2 caps modeled
              slice latency at two cycles.
  ORACLE_VP   every shadowed miss predicted correctly, validation still real.
  ORACLE_VRC  every shadowed miss recomputed in two cycles, no hierarchy use.

Cycle phase order: fills, scheduled events (shadow resolves, branch
resolves, prediction and validation completions; each event carries its
handler), commit, unshadow polling, issue, recomputation engine, dispatch,
probes. The trace's one decode (`Trace.decode`), built once per trace and
shared by the slicer and every run on it, owns each instruction's kind code,
FU class (`isa.ALU_FU`), shadow casts and the dataflow graph both ways: its
address and data producers, and its consumers, which a completing or
replayed producer wakes. Entry states and kinds are integer codes, named
only in deadlock reports. Each shadow cast takes the next id of the shadow
buffer, an id range whose head is the oldest unresolved shadow; a shadowed
load leaves speculation once the head passes the newest id at its dispatch,
and a deadlock report names the head's kind and caster.

A run keeps `rob_size` entries in a ring and resets the one at
`seq % rob_size` when it dispatches `seq`; the ROB bound guarantees its
last instruction has committed, so the core's state is bounded by the ROB,
not the trace. `entries[seq]` is the entry while `seq` is in flight and
None before dispatch and after commit. A producer is always older than its
reader, so a reader that finds no entry for one treats it as committed:
its value is ready and is read from `committed_values`.

An ALU op or branch waiting for its data producers is ready one cycle
after dispatch (or after its replay floor) and no earlier than their
values; dispatch and a producer's wake apply that one rule, and loads,
stores and replays go through `_reschedule`. A ready entry is filed in a
calendar (R. Brown's calendar queue, CACM 1988): a dict from cycle to
seqs, of which the issue stage pops exactly the current cycle's bucket and
an idle cycle skips to the smallest key. Issue walks one issue pool in
program order. An ALU op or branch executes on a unit of its FU class, or
waits in the pool while the cycle's units of that class are used up; its
producers had values when it left the calendar, so only an op a
value-prediction replay visited is checked again. For a load the entry
state chooses the action: NONSPEC
reissues an unshadowed delayed or fallback load, AWAIT_VALIDATION validates
a predicted load, and otherwise the load forwards, accesses, or has the
policy applied to its shadowed miss.
Every real hierarchy access goes through one path that takes a memory port
and retries on an MSHR stall. A load "performs" when its value is bound by a
real access, store forward, or recomputation; its memory-order shadow
resolves then (at validation completion for predicted loads). Time skips
ahead to the next scheduled event whenever a cycle makes no progress.

Injected transient probes model guaranteed-squashed wrong-path loads after a
mispredicted branch. They probe the hierarchy but hold no core resources, so
a secure policy must leave the hierarchy byte-identical to a probe-free run;
under BASELINE they mutate it like any speculative load would.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field, replace

from .audit import MutationLog
from .isa import ALU_FNS, FU_ALU, FU_MUL
from .memhier import CacheConfig, L1_MISS, MSHR_HIT, MemHierState
from .shadows import ShadowKind, ShadowState
from .slicer import AnnotationTable
from .trace import (KIND_ALU, KIND_BRANCH, KIND_LOAD, KIND_NOP, KIND_STORE,
                    KINDS, Trace)
from .vp import VpConfig, VpState
from .vrc import BUSY, DONE, VrcConfig, VrcState

POLICIES = ("BASELINE", "DOM", "VP", "VRC", "VRC2", "ORACLE_VP", "ORACLE_VRC")
SECURE_POLICIES = ("DOM", "VP", "VRC", "VRC2", "ORACLE_VP", "ORACLE_VRC")


class DeadlockError(RuntimeError):
    pass


@dataclass(frozen=True)
class CoreConfig:
    policy: str = "BASELINE"
    consistency: str = "TSO"          # TSO casts memory-order shadows, RC does not
    width: int = 8                    # fetch/issue/commit width
    rob_size: int = 192
    iq_size: int = 64
    lq_size: int = 48
    sq_size: int = 32
    alu_units: int = 4
    mul_units: int = 1
    mem_ports: int = 2
    redirect_penalty: int = 12
    sb_capacity: int = 64
    rq_capacity: int = 64
    deadlock_cycles: int = 100_000
    record_load_timing: bool = False
    cache: CacheConfig = field(default_factory=CacheConfig)
    vp: VpConfig = field(default_factory=VpConfig)
    vrc: VrcConfig = field(default_factory=VrcConfig)

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.consistency not in ("TSO", "RC"):
            raise ValueError(f"unknown consistency model {self.consistency!r}")
        if self.width < 1 or self.rob_size < self.iq_size:
            raise ValueError("width >= 1 and ROB >= IQ required")


@dataclass(frozen=True, slots=True)
class ProbeSpec:
    branch_seq: int
    load_addrs: tuple[int, ...]


@dataclass
class RunResult:
    policy: str
    consistency: str
    cycles: int
    committed: int
    counters: dict
    memhier_digest: str
    mutation_log: MutationLog
    committed_values: list
    committed_regs: list
    validation_completions: list        # (seq, cycle) in completion order
    mean_slice_cycles: float | None
    load_timing: dict                   # seq -> (unshadow, issue, value_ready)
    shadow_stats: tuple                 # (shadowed fraction, mean shadows/load)


# entry states; NONSPEC is an unshadowed delayed or fallback load awaiting
# reissue. STATE_NAMES names them in diagnostics.
DISP, DELAYED, NONSPEC, PREDICTED, RECOMPUTING, AWAIT_VAL, DONE_ST = range(7)
STATE_NAMES = ("DISPATCHED", "DELAYED", "NONSPEC", "PREDICTED", "RECOMPUTING",
               "AWAIT_VALIDATION", "DONE")

# a cycle's issue budget is a list: the FU classes' units (FU_ALU, FU_MUL),
# then memory ports and issue slots
_PORT, _SLOTS = 2, 3
_DISPATCHED_KEYS = tuple(f"dispatched_{k.lower()}" for k in KINDS)


class _Entry:
    """One in-flight instruction: a slot of the run's ring, reset at
    dispatch."""

    __slots__ = (
        "seq", "ins", "kind", "state", "value", "value_ready", "complete",
        "addr_ready", "shadowed", "sb_e", "sb_c", "sb_d", "sb_m",
        "predicted", "replay_floor", "in_ready", "iq_held", "unshadow_cycle",
        "dispatch_cycle", "issue_at",
    )

    def reset(self, seq, ins, kind, now):
        self.seq = seq
        self.ins = ins
        self.kind = kind
        self.state = DISP
        self.value = None
        self.value_ready = None
        self.complete = None
        self.addr_ready = None
        self.shadowed = False
        self.sb_e = self.sb_c = self.sb_d = self.sb_m = None
        self.predicted = None
        self.replay_floor = 0
        self.in_ready = False
        self.iq_held = False
        self.unshadow_cycle = None
        self.dispatch_cycle = now
        self.issue_at = None


class _Sim:
    def __init__(self, trace: Trace, annotations: AnnotationTable | None,
                 config: CoreConfig, probe: ProbeSpec | None):
        self.trace = trace
        self.config = config
        self.policy = config.policy
        self.secure = config.policy != "BASELINE"
        self.n = len(trace)
        if probe is not None:
            if not 0 <= probe.branch_seq < self.n:
                raise ValueError("probe site out of range")
            site = trace[probe.branch_seq]
            if site.kind != "BRANCH" or site.br.predicted_correctly:
                raise ValueError("probe site is not a mispredicted branch")
        self.probe_spec = probe
        self.probes: list[tuple] = []           # (hide key, addr) yet to access

        self.log = MutationLog()
        self.mem = MemHierState(config.cache, log=self.log)
        self.sb = ShadowState(config.sb_capacity, config.rq_capacity)
        self.vp = VpState(config.vp) if config.policy == "VP" else None
        self.annotations = annotations or AnnotationTable()
        vrc_cfg = config.vrc
        if config.policy == "VRC2" and vrc_cfg.clamp_cycles is None:
            vrc_cfg = replace(vrc_cfg, clamp_cycles=2)
        needs_engine = config.policy in ("VRC", "VRC2", "ORACLE_VRC")
        self.vrc = VrcState(self.annotations, vrc_cfg) if needs_engine else None

        # the shadow a load casts at dispatch until it performs: memory order
        # under TSO. Under RC, VP and ORACLE_VP cast a VP shadow on every
        # load, predicted or not, which serializes validations but times them
        # as under TSO; ROADMAP item 1 is to cast it on predicted loads only.
        # The other policies cast none under RC.
        if config.consistency == "TSO":
            self.order_shadow = ShadowKind.M
        elif config.policy in ("VP", "ORACLE_VP"):
            self.order_shadow = ShadowKind.VP
        else:
            self.order_shadow = None

        self.decode = trace.decode
        self.data_writers = self.decode.data_writers
        self.src_writers = self.decode.src_writers
        self.latencies = self.decode.latencies
        self.budget = (config.alu_units, config.mul_units, config.mem_ports,
                       config.width)
        self.fu_units = config.alu_units + config.mul_units
        # entries[seq] is the ring entry while seq is in flight, else None:
        # not yet dispatched, or committed (its value is in committed_values)
        self.ring = [_Entry() for _ in range(config.rob_size)]
        self.entries: list[_Entry | None] = [None] * self.n

        self.now = 0
        self.next_dispatch = 0
        self.commit_head = 0
        self.committed = 0
        self.last_commit_cycle = 0
        self.iq_used = 0
        self.lq_used = 0
        self.sq_used = 0
        self.live_stores: deque[int] = deque()  # dispatched, uncommitted stores

        self.events: list = []                  # (cycle, order, handler, payload)
        self._event_order = 0
        self.calendar: dict[int, list[int]] = {}  # ready cycle -> seqs
        self.issue_pool: set[int] = set()       # seqs the issue stage visits
        self.replay_visited: set[int] = set()   # seqs a replay walk visited
        self.redirect_until: int | None = None  # None: clear; -1: until resolve
        self.redirect_branch: int | None = None

        self.committed_values: list = [None] * self.n
        self.committed_regs = [0] * 64
        self.validation_completions: list = []
        self.load_timing: dict = {}
        self.counters = defaultdict(int)

    # ------------------------------------------------------------------ events

    def _schedule(self, cycle: int, handler, payload) -> None:
        heapq.heappush(self.events, (cycle, self._event_order, handler, payload))
        self._event_order += 1

    # ------------------------------------------------------------- value wiring

    def _live_reg_value(self, reg: int, load_seq: int):
        """Architectural value of `reg` at the load's program point, or None
        while its producer's value has not arrived (the engine stalls). A
        load that makes a real access sets `value_ready` at issue to its
        fill cycle, so a set `value_ready` alone is not enough."""
        wseq = self.decode.writer_before(reg, load_seq)
        if wseq is None:
            return 0
        e = self.entries[wseq]
        if e is None:
            return self.committed_values[wseq]
        if e.value_ready is None or e.value_ready > self.now:
            return None
        return e.value

    def _ready_at(self, writers, floor: int) -> int | None:
        """Cycle by which every producer's value is ready, at least `floor`;
        None while a producer has no value. A producer with no entry has
        committed, so its value was ready by this cycle."""
        entries = self.entries
        for w in writers:
            e = entries[w]
            if e is not None:
                ready = e.value_ready
                if ready is None:
                    return None
                if ready > floor:
                    floor = ready
        return floor

    def _wake(self, producer_seq: int) -> None:
        entries = self.entries
        for cseq in self.decode.consumers[producer_seq]:
            e = entries[cseq]
            if e is None:
                continue  # not dispatched yet
            kind = e.kind
            if kind == KIND_ALU or kind == KIND_BRANCH:
                if e.state == DISP:
                    self._op_ready(e)
            else:
                self._reschedule(e)

    def _op_ready(self, e: _Entry) -> None:
        """An ALU op or branch waiting in DISP becomes ready the cycle after
        dispatch (after its replay floor once replayed), and no earlier than
        its data producers' values. It inlines `_ready_at`, as it runs once
        or more for nearly every instruction."""
        ready = e.replay_floor if e.replay_floor > e.dispatch_cycle \
            else e.dispatch_cycle + 1
        entries = self.entries
        for w in self.data_writers[e.seq]:
            p = entries[w]
            if p is not None:  # else committed: ready
                at = p.value_ready
                if at is None:
                    return
                if at > ready:
                    ready = at
        self._push_ready(e, ready)

    def _reschedule(self, e: _Entry) -> None:
        if e.kind == KIND_STORE:
            self._update_store(e)
            return
        if e.state != DISP:
            return
        if e.kind == KIND_LOAD:
            at = self._ready_at(self.decode.addr_writers[e.seq], e.dispatch_cycle)
            if at is not None:
                e.addr_ready = at + 1
                self._push_ready(e, e.addr_ready)  # loads never replay
        else:
            self._op_ready(e)

    def _push_ready(self, e: _Entry, ready_at: int) -> None:
        """Files the entry in the calendar under its ready cycle, the next
        cycle at the earliest, so the issue stage finds it in exactly that
        cycle's bucket."""
        if not e.in_ready:
            e.in_ready = True
            if ready_at <= self.now:
                ready_at = self.now + 1
            bucket = self.calendar.get(ready_at)
            if bucket is None:
                self.calendar[ready_at] = [e.seq]
            else:
                bucket.append(e.seq)

    def _update_store(self, e: _Entry) -> None:
        """Recompute a store's address/data readiness; resolves the
        store-address shadow once the address is known."""
        decode = self.decode
        if e.addr_ready is None:
            at = self._ready_at(decode.addr_writers[e.seq], e.dispatch_cycle)
            if at is None:
                return
            e.addr_ready = at + 1
            self._schedule(e.addr_ready, self.sb.resolve, e.sb_d)
            e.sb_d = None
        e.complete = self._ready_at(
            decode.data_writers[e.seq], max(e.addr_ready, e.dispatch_cycle + 1))
        if e.complete is not None:
            if e.ins.may_fault and e.sb_e is not None:
                self._schedule(e.complete, self.sb.resolve, e.sb_e)
                e.sb_e = None
            self._release_iq(e)

    def _release_iq(self, e: _Entry) -> None:
        if e.iq_held:
            e.iq_held = False
            self.iq_used -= 1

    # ------------------------------------------------------------------ dispatch

    def _dispatch(self) -> bool:
        if self.redirect_until is not None:
            if self.redirect_until < 0 or self.now < self.redirect_until:
                return False
            self.redirect_until = None
        cfg = self.config
        first = seq = self.next_dispatch
        end = min(self.n, seq + cfg.width, self.commit_head + cfg.rob_size)
        if seq >= end:
            return False
        now = self.now
        sb = self.sb
        # nothing resolves during dispatch, so the room only shrinks by the
        # casts of the instructions dispatched here
        room = sb.room()
        kinds, casts = self.decode.kinds, self.decode.casts
        load_casts = int(self.order_shadow is not None)
        instructions = self.trace.instructions
        entries, ring, rob = self.entries, self.ring, cfg.rob_size
        iq_size = cfg.iq_size
        while seq < end:
            kind = kinds[seq]
            need = casts[seq]
            if kind == KIND_ALU:
                # the common case, on its own short path
                if need > room or self.iq_used >= iq_size:
                    break
                room -= need
                ins = instructions[seq]
                e = entries[seq] = ring[seq % rob]
                e.reset(seq, ins, kind, now)
                if ins.may_fault:
                    e.sb_e = sb.cast(ShadowKind.E, seq)
                e.iq_held = True
                self.iq_used += 1
                self._op_ready(e)
                seq += 1
                continue
            if kind == KIND_LOAD:
                need += load_casts
                if need > room or self.iq_used >= iq_size \
                        or self.lq_used >= cfg.lq_size or sb.rq_full():
                    break
            elif need > room \
                    or (kind != KIND_NOP and self.iq_used >= iq_size) \
                    or (kind == KIND_STORE and self.sq_used >= cfg.sq_size):
                break
            room -= need
            ins = instructions[seq]
            e = entries[seq] = ring[seq % rob]
            e.reset(seq, ins, kind, now)
            if kind == KIND_LOAD:
                e.shadowed = not sb.register_load(seq)
                if not e.shadowed:
                    e.unshadow_cycle = now
            if ins.may_fault:
                e.sb_e = sb.cast(ShadowKind.E, seq)
            if kind == KIND_BRANCH:
                e.sb_c = sb.cast(ShadowKind.C, seq)
                if not ins.br.predicted_correctly:
                    self.redirect_until = -1  # blocked until the branch resolves
                    self.redirect_branch = seq
                if self.probe_spec is not None and seq == self.probe_spec.branch_seq:
                    self.probes = [(("probe", i), a) for i, a
                                   in enumerate(self.probe_spec.load_addrs)]
            elif kind == KIND_STORE:
                e.sb_d = sb.cast(ShadowKind.D, seq)
                self.sq_used += 1
                self.live_stores.append(seq)
            elif kind == KIND_LOAD:
                if self.order_shadow is not None:
                    e.sb_m = sb.cast(self.order_shadow, seq)
                self.lq_used += 1

            if kind == KIND_NOP:
                e.complete = now + 1
                if e.sb_e is not None:
                    self._schedule(e.complete, sb.resolve, e.sb_e)
                    e.sb_e = None
            else:
                e.iq_held = True
                self.iq_used += 1
                self._reschedule(e)
            seq += 1
            if self.redirect_until is not None:
                break  # a mispredicted branch blocks dispatch until it resolves
        self.next_dispatch = seq
        return seq > first

    # ------------------------------------------------------------------ issue

    def _issue_phase(self) -> bool:
        entries, pool = self.entries, self.issue_pool
        due = self.calendar.pop(self.now, None)
        if due is not None:
            for seq in due:
                entries[seq].in_ready = False
            pool.update(due)
        budget = list(self.budget)
        fus = self.decode.fus
        replay_visited = self.replay_visited
        any_issued = False
        for seq in sorted(pool):
            if budget[_SLOTS] <= 0:
                break
            e = entries[seq]
            if e.kind != KIND_LOAD:
                # an ALU op or branch: its producers had values when it left
                # the calendar, and only a replay can have reset one since
                fu = fus[seq]
                if seq in replay_visited and self._producers_late(e):
                    issued = True
                elif budget[fu] <= 0:
                    continue  # waits in the pool for a unit of its class
                else:
                    budget[fu] -= 1
                    budget[_SLOTS] -= 1
                    self._execute(e)
                    issued = True
            elif e.state == NONSPEC:
                issued = self._try_reissue(e, budget)
            elif e.state == AWAIT_VAL:
                issued = self._try_perform(e, budget)
            else:
                issued = self._try_issue_load(e, budget)
            if issued:
                pool.discard(seq)
                any_issued = True
        engine_worked = self.vrc is not None and self._engine_tick(budget)
        # every FU op of the cycle, the engine's too, took one unit
        fu_ops = self.fu_units - budget[FU_ALU] - budget[FU_MUL]
        if fu_ops:
            self.counters["fu_ops"] += fu_ops
        return any_issued or engine_worked

    def _producers_late(self, e: _Entry) -> bool:
        """For an op a replay walk visited: True, and the op leaves the pool,
        when a producer was reset (its re-execution wakes the op) or its
        value arrives after this cycle (the op goes back to the calendar)."""
        ready = self._ready_at(self.data_writers[e.seq], 0)
        if ready is None:
            return True
        if ready > self.now:
            self._push_ready(e, ready)
            return True
        return False

    def _execute(self, e: _Entry) -> None:
        """An ALU op or branch executes on the unit the issue stage took."""
        seq = e.seq
        now = self.now
        ins = e.ins
        if e.kind == KIND_ALU:
            entries, values = self.entries, self.committed_values
            ops = []
            for w in self.src_writers[seq]:
                if w is None:
                    ops.append(0)
                else:
                    p = entries[w]
                    ops.append((values[w] if p is None else p.value) or 0)
            if ins.imm is not None:
                ops.append(ins.imm)
            e.value = ALU_FNS[ins.alu_op](*ops)
        else:
            self._schedule(now + 1, self._branch_resolved, seq)
        e.value_ready = e.complete = now + self.latencies[seq]
        e.state = DONE_ST
        if e.iq_held:  # `_release_iq`, inlined
            e.iq_held = False
            self.iq_used -= 1
        if ins.may_fault and e.sb_e is not None:
            self._schedule(e.complete, self.sb.resolve, e.sb_e)
            e.sb_e = None
        self._wake(seq)

    # -- load paths ---------------------------------------------------------------

    def _forwarding_store(self, e: _Entry):
        """Youngest older uncommitted store with a known overlapping address."""
        ins = e.ins
        for sseq in reversed(self.live_stores):
            if sseq >= e.seq:
                continue
            se = self.entries[sseq]
            if se is None or se.addr_ready is None or se.addr_ready > self.now:
                continue
            si = se.ins
            if si.mem_addr < ins.mem_addr + ins.mem_size and \
                    ins.mem_addr < si.mem_addr + si.mem_size:
                exact = (si.mem_addr == ins.mem_addr and si.mem_size == ins.mem_size)
                return se, exact
        return None, False

    def _try_forward(self, e: _Entry, budget):
        """Returns True (forwarded), False (blocked on a store), or None."""
        se, exact = self._forwarding_store(e)
        if se is None:
            return None
        if not exact:
            return False  # wait for the partially overlapping store to commit
        ready = self._ready_at(self.data_writers[se.seq], 0)
        if ready is None or ready > self.now:
            return False  # store data still in flight
        budget[_SLOTS] -= 1
        self.counters["store_forwards"] += 1
        self._finish_load(e, e.ins.mem_value, self.now + 1)
        return True

    def _try_perform(self, e: _Entry, budget) -> bool:
        """The one real hierarchy access. It needs a free memory port; when
        the MSHRs are full it takes none and the load retries next cycle. A
        predicted load awaiting validation completes at the validation event.
        A load still shadowed here runs under BASELINE."""
        if budget[_PORT] <= 0:
            return False
        kind, ready = self.mem.access(e.ins.mem_addr, self.now, e.seq,
                                      speculative=e.shadowed)
        if e.shadowed and kind == L1_MISS:
            self.counters["shadowed_l1_misses"] += 1
        if ready is None:
            self.counters["mshr_stalls"] += 1
            return False
        budget[_PORT] -= 1
        budget[_SLOTS] -= 1
        if e.state == AWAIT_VAL:
            self.counters["validations"] += 1
            self._schedule(ready, self._validation_done, e.seq)
        else:
            self._finish_load(e, e.ins.mem_value, ready)
        return True

    def _try_reissue(self, e: _Entry, budget) -> bool:
        """Delayed or fallback load reissuing once unshadowed, program order."""
        e.issue_at = self.now
        fwd = self._try_forward(e, budget)
        return self._try_perform(e, budget) if fwd is None else fwd

    def _try_issue_load(self, e: _Entry, budget) -> bool:
        now = self.now
        fwd = self._try_forward(e, budget)
        if fwd is not None:
            return fwd  # blocked loads stay in the pool and retry
        if budget[_PORT] <= 0:
            return False
        self.counters["load_lookups"] += 1
        if not (self.secure and e.shadowed):
            return self._try_perform(e, budget)
        # secure policy, shadowed load: a hidden access, which only hits or
        # rides an in-flight fill
        budget[_PORT] -= 1
        budget[_SLOTS] -= 1
        kind, ready = self.mem.access(e.ins.mem_addr, now, e.seq,
                                      speculative=True, hide_key=e.seq)
        if ready is not None:
            if kind == MSHR_HIT:
                self.counters["mshr_wait_loads"] += 1
            self._finish_load(e, e.ins.mem_value, ready)
            return True
        # shadowed true L1 miss
        self.counters["shadowed_l1_misses"] += 1
        e.issue_at = now
        if self.policy == "DOM":
            self._delay_load(e)
        elif self.policy in ("VP", "ORACLE_VP"):
            self._predict_load(e)
        else:
            # VRC, VRC2 and ORACLE_VRC; an oracle request carries its value
            oracle = self.policy == "ORACLE_VRC"
            accepted = self.vrc.enqueue(e.ins.pc, e.seq,
                                        e.ins.mem_value if oracle else None)
            if not oracle:
                self.counters["rcmp_recompute" if accepted else "rcmp_delay"] += 1
            if accepted:
                self._start_recompute(e)
            else:
                self._delay_load(e)
        return True

    def _delay_load(self, e: _Entry) -> None:
        e.state = DELAYED
        self.counters["delayed_loads"] += 1

    def _start_recompute(self, e: _Entry) -> None:
        e.state = RECOMPUTING
        self.counters["recomputes"] += 1
        self._release_iq(e)

    def _predict_load(self, e: _Entry) -> None:
        if self.policy == "ORACLE_VP":
            value, confident = e.ins.mem_value, True
        else:
            pred = self.vp.predict(e.ins.pc)
            value, confident = (pred.value, pred.confident) if pred else (0, False)
        if not confident:
            self._delay_load(e)
            return
        e.predicted = value
        self.counters["predicted_loads"] += 1
        self._schedule(self.now + self.config.vp.predict_latency,
                       self._predict_done, e.seq)

    def _finish_load(self, e: _Entry, value: int, ready: int) -> None:
        e.state = DONE_ST
        e.value = value
        e.value_ready = ready
        e.complete = ready
        self._release_iq(e)
        self._resolve_perform_shadows(e, ready)
        if self.config.record_load_timing:
            issue = e.issue_at if e.issue_at is not None else self.now
            self.load_timing[e.seq] = (e.unshadow_cycle, issue, ready)
        self._wake(e.seq)

    def _resolve_perform_shadows(self, e: _Entry, at: int) -> None:
        if e.sb_m is not None:
            self._schedule(at, self.sb.resolve, e.sb_m)
            e.sb_m = None
        if e.sb_e is not None:
            self._schedule(at, self.sb.resolve, e.sb_e)
            e.sb_e = None

    # ------------------------------------------------------------------ event handlers

    def _branch_resolved(self, seq: int) -> None:
        e = self.entries[seq]
        if e.sb_c is not None:
            self.sb.resolve(e.sb_c)
            e.sb_c = None
        if self.redirect_branch == seq:
            self.redirect_until = self.now + self.config.redirect_penalty
            self.redirect_branch = None
        if self.probe_spec is not None and self.probe_spec.branch_seq == seq:
            # the squash drops every probe's deferred touches and the probes
            # yet to access
            for i in range(len(self.probe_spec.load_addrs)):
                self.mem.squash_deferred(("probe", i))
            self.probes = []

    def _predict_done(self, seq: int) -> None:
        e = self.entries[seq]
        e.state = PREDICTED
        e.value = e.predicted
        e.value_ready = self.now
        self._release_iq(e)
        self._wake(e.seq)
        if not e.shadowed:
            # unshadowed while the prediction was in flight: validate now
            e.state = AWAIT_VAL
            self.issue_pool.add(seq)

    def _validation_done(self, seq: int) -> None:
        e = self.entries[seq]
        actual = e.ins.mem_value
        self.validation_completions.append((seq, self.now))
        if e.value != actual:
            self.counters["vp_mispredicts"] += 1
            e.value = actual
            e.value_ready = self.now
            self._replay_dependents(seq, self.now)
        e.state = DONE_ST
        e.complete = self.now
        self._resolve_perform_shadows(e, self.now)
        if self.config.record_load_timing:
            self.load_timing[e.seq] = (e.unshadow_cycle, None, self.now)

    def _replay_dependents(self, seq: int, correct_cycle: int) -> None:
        """Selective replay: computation that consumed a mispredicted value
        re-executes after the redirect penalty; memory accesses stand."""
        floor = correct_cycle + self.config.redirect_penalty
        stack = [seq]
        seen = set()
        while stack:
            p = stack.pop()
            for cseq in self.decode.consumers[p]:
                if cseq in seen:
                    continue
                seen.add(cseq)
                ce = self.entries[cseq]
                if ce is None:
                    continue
                if ce.kind == KIND_ALU and ce.state == DONE_ST:
                    ce.state = DISP
                    ce.value = None
                    ce.value_ready = None
                    ce.complete = None
                    ce.replay_floor = max(ce.replay_floor, floor)
                    self.counters["replayed_ops"] += 1
                    self._reschedule(ce)
                    stack.append(cseq)
                elif ce.kind == KIND_STORE:
                    ce.complete = None
                    self._update_store(ce)
        self.replay_visited |= seen

    # ------------------------------------------------------------------ unshadow

    def _poll_unshadowed(self) -> bool:
        released = self.sb.poll_unshadowed()
        for seq in released:
            self.mem.apply_deferred(seq, self.now, seq)
            e = self.entries[seq]
            if e is None:
                continue  # committed while shadowed: only its touches remain
            e.shadowed = False
            e.unshadow_cycle = self.now
            if e.state == DELAYED:
                e.state = NONSPEC
                self.issue_pool.add(seq)
            elif e.state == PREDICTED:
                e.state = AWAIT_VAL
                self.issue_pool.add(seq)
            elif e.state == RECOMPUTING:
                if self.vrc is not None and self.vrc.cancel_queued(seq):
                    self.counters["cancelled_recomputes"] += 1
                    e.state = NONSPEC
                    self.issue_pool.add(seq)
                # an already-running slice is left to finish
        return bool(released)

    # ------------------------------------------------------------------ engine

    def _engine_tick(self, budget) -> bool:
        def take_fu(fu: int) -> bool:
            if budget[fu] <= 0:
                return False
            budget[fu] -= 1
            return True

        status, payload = self.vrc.step(self.now, take_fu, self._live_reg_value)
        # faulted or invalidated recomputations: the load reverts to a delayed
        # load, or reissues at once if it has left speculation meanwhile
        for seq, faulted in self.vrc.fallbacks:
            if faulted:
                self.counters["exc_fallbacks"] += 1
            e = self.entries[seq]
            if e.shadowed:
                self._delay_load(e)
            else:
                e.state = NONSPEC
                self.issue_pool.add(seq)
        self.vrc.fallbacks.clear()
        if status == DONE:
            seq, value, finish = payload
            e = self.entries[seq]
            if value != e.ins.mem_value:
                self.counters["unsound_recomputes"] += 1
            self.counters["recompute_done"] += 1
            self._finish_load(e, value, finish)
            return True
        return status == BUSY

    # ------------------------------------------------------------------ commit

    def _commit(self) -> bool:
        now = self.now
        entries, values, regs = self.entries, self.committed_values, self.committed_regs
        vp, vrc = self.vp, self.vrc
        rec_sites = self.annotations.rec_sites
        first = seq = self.commit_head
        end = min(self.next_dispatch, seq + self.config.width)
        while seq < end:
            e = entries[seq]
            complete = e.complete
            if complete is None or complete > now:
                break
            kind = e.kind
            ins = e.ins
            if kind == KIND_LOAD:
                self.lq_used -= 1
                if vp is not None:
                    vp.train(ins.pc, ins.mem_value,
                             was_correct=(e.predicted == ins.mem_value)
                             if e.predicted is not None else None)
            elif kind == KIND_STORE:
                _, ready = self.mem.access(ins.mem_addr, now, seq, store=True)
                if ready is None:
                    self.counters["store_commit_stalls"] += 1
                    break
                self.sq_used -= 1
                # stores commit in program order, so the oldest live one leaves
                if self.live_stores.popleft() != seq:
                    raise RuntimeError(f"store {seq} committed out of order")
                if vrc is not None:
                    vrc.invalidate_on_store(ins.mem_addr, ins.mem_size,
                                            store_pc=ins.pc)
            elif kind == KIND_BRANCH and vp is not None:
                vp.notify_branch(ins.br.taken)
            if vrc is not None and seq in rec_sites:
                for key, value in rec_sites[seq]:
                    vrc.rec_checkpoint(key, value)
            values[seq] = e.value  # None for stores
            if ins.dst is not None:
                regs[ins.dst] = e.value
            entries[seq] = None
            seq += 1
        if seq == first:
            return False
        self.committed += seq - first
        self.commit_head = seq
        self.last_commit_cycle = now
        return True

    # ------------------------------------------------------------------ probes

    def _probe_tick(self) -> bool:
        branch_seq = self.probe_spec.branch_seq
        if self.now <= self.entries[branch_seq].dispatch_cycle:
            return False
        # under a secure policy a probe is a hidden access: a refused miss
        # stays delayed until the squash; under BASELINE a stall retries
        pending = []
        for key, addr in self.probes:
            _, ready = self.mem.access(addr, self.now, branch_seq, speculative=True,
                                       probe=True, hide_key=key if self.secure else None)
            if ready is None and not self.secure:
                pending.append((key, addr))
        acted = len(pending) < len(self.probes)
        self.probes = pending
        return acted

    # ------------------------------------------------------------------ main loop

    def run(self) -> RunResult:
        if self.n == 0:
            return self._result(0)
        mem, sb, events = self.mem, self.sb, self.events
        # a phase with no work due is skipped; it would have returned False
        while self.commit_head < self.n:
            now = self.now
            mem.advance(now)  # its own loop condition is the fill guard
            progress = bool(events) and events[0][0] <= now
            while events and events[0][0] <= now:
                _, _, handler, payload = heapq.heappop(events)
                handler(payload)
            progress |= self._commit()
            if sb.releases_pending():
                progress |= self._poll_unshadowed()
            progress |= self._issue_phase()
            progress |= self._dispatch()
            if self.probes:
                progress |= self._probe_tick()
            if self.commit_head >= self.n:
                break
            if self.now - self.last_commit_cycle > self.config.deadlock_cycles:
                raise DeadlockError(self._deadlock_dump())
            if progress:
                self.now += 1
            else:
                self._advance_time()
        return self._result(self.now + 1)

    def _advance_time(self) -> None:
        """After a cycle without progress, skip to the next cycle at which
        something is due: an event, a fill, a calendar bucket (its smallest
        key), the end of a redirect or the head's completion."""
        candidates = []
        if self.events:
            candidates.append(self.events[0][0])
        nf = self.mem.next_fill_cycle()
        if nf is not None:
            candidates.append(nf)
        if self.calendar:
            candidates.append(min(self.calendar))
        if self.redirect_until is not None and self.redirect_until >= 0:
            candidates.append(self.redirect_until)
        head = self.entries[self.commit_head] if self.commit_head < self.n else None
        if head is not None and head.complete is not None:
            candidates.append(head.complete)
        future = [c for c in candidates if c > self.now]
        if not future:
            # nothing scheduled and nothing runnable: creep and let the
            # deadlock detector trip if this persists
            self.now += 1
            return
        self.now = min(future)

    def _deadlock_dump(self) -> str:
        head = self.entries[self.commit_head]
        shadow = self.sb.oldest_unresolved()
        return "; ".join([
            f"no commit for {self.config.deadlock_cycles} cycles at cycle {self.now}",
            f"policy={self.policy} committed={self.committed}/{self.n}",
            f"head seq={self.commit_head} "
            f"state={STATE_NAMES[head.state] if head else 'undispatched'}",
            f"iq={self.iq_used} lq={self.lq_used} sq={self.sq_used}",
            f"issue_pool={len(self.issue_pool)}",
            "oldest shadow=" + (f"{shadow[0].value} cast by seq={shadow[1]}"
                                if shadow else "none"),
        ])

    # ------------------------------------------------------------------ results

    def _result(self, cycles: int) -> RunResult:
        c = self.counters
        # every instruction was dispatched exactly once
        for kind, count in Counter(self.decode.kinds).items():
            c[_DISPATCHED_KEYS[kind]] = count
        c["l1_hits"] = self.mem.l1_hits
        c["l1_misses"] = self.mem.l1_misses
        c["mshr_hits"] = self.mem.mshr_hits
        c["l2_hits"] = self.mem.l2_hits
        c["mem_accesses"] = self.mem.mem_accesses
        if self.vp is not None:
            c["vp_lookups"] = self.vp.lookups
            c["vp_updates"] = self.vp.updates
        if self.vrc is not None:
            c["slice_cycles"] = self.vrc.busy_cycles
            c["vrc_struct_accesses"] = self.vrc.struct_accesses
            c["hist_inserts"] = self.vrc.hist_inserts
            c["hist_overflows"] = self.vrc.hist_overflows
            c["slice_invalidations"] = self.vrc.invalidations
        return RunResult(
            policy=self.policy,
            consistency=self.config.consistency,
            cycles=cycles,
            committed=self.committed,
            counters=dict(c),
            memhier_digest=self.mem.snapshot_digest(),
            mutation_log=self.log,
            committed_values=self.committed_values,
            committed_regs=self.committed_regs,
            validation_completions=self.validation_completions,
            mean_slice_cycles=self.vrc.mean_slice_cycles() if self.vrc else None,
            load_timing=self.load_timing,
            shadow_stats=(self.sb.shadowed_load_fraction(),
                          self.sb.mean_shadows_per_load()),
        )


def run(trace: Trace, annotations: AnnotationTable | None = None,
        config: CoreConfig | None = None,
        probe: ProbeSpec | None = None) -> RunResult:
    """Simulate a trace to completion under the configured policy."""
    cfg = config or CoreConfig()
    if cfg.policy in ("VRC", "VRC2") and annotations is None:
        raise ValueError(f"policy {cfg.policy} requires an annotation table")
    return _Sim(trace, annotations, cfg, probe).run()


def inject_transient_probe(trace: Trace, probe: ProbeSpec,
                           annotations: AnnotationTable | None = None,
                           config: CoreConfig | None = None) -> RunResult:
    """Run with an injected wrong-path probe after a mispredicted branch."""
    return run(trace, annotations=annotations, config=config, probe=probe)
