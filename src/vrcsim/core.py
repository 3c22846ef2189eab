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
handler), commit, unshadow, issue, recomputation engine, dispatch,
probes. Commit, issue (with the engine) and dispatch are generators that
`run` makes once per run, as its locals, and resumes once per stepped
cycle. Each binds once, before its loop, what no code reassigns during a
run (the decode's columns, the per-seq lists and dicts, the queues, the
counters, the unit states and the config's scalars), and each resume
reads from the simulator every scalar that changes: the cycle, the commit
head, the next seq to dispatch, IQ and LQ occupancy, the redirect and the
probes. The issue walk gives back the IQ entries of the ops it executes
in one write, from a walk-local count. The trace's one decode
(`Trace.decode`), shared by the slicer and every run on it, holds each
instruction's static facts and the dataflow graph both ways. Entry
states and kinds are integer codes, named only in deadlock reports.

A run keeps `rob_size` entries in a ring for its loads, stores, branches
and NOPs, and takes the one at `seq % rob_size` when it dispatches `seq`;
the ROB bound guarantees its last occupant has committed. `entries[seq]`
is the entry while `seq` is in flight, else None. Each seq's value is
written to `committed_values[seq]` when it is bound (at execute, load
completion, prediction, validation or replay), and its timing to `ready`
(the cycle the value is ready) and `complete`, which is `_NEVER`, a
cycle no run reaches, until the seq completes; each stays after commit,
so an operand and its ready cycle are read the same way whether the
producer is in flight or committed, and the final registers are their
last writers' values.

ALU ops and loads take a short path through dispatch, issue and
completion, on the state those two generators bind once. An ALU op takes
no entry: it is dispatched when `seq < next_dispatch`, executed when
`ready[seq]` is set, and its static facts come from the decode. A
faulting op's exception shadow waits in `alu_shadows` for its first
execution, and `replay_floor` holds the raised floor of each op a replay
reset, which gave its IQ entry back when it first executed. A load's
dispatch writes only the fields a load reads, and registers and casts
its shadows in one `ShadowState.register_load` call. Issue executes an
ALU op inline and serves a load's first issue and every retry in
`_issue_load`; either completion files the waiting consumers inline.
The run loop unshadows only in a cycle whose resolves released loads.

An ALU op or branch waiting for its data producers is ready at its floor
(the cycle after dispatch, raised by a replay) and no earlier than their
values; a load is ready the cycle after its address. A producer counts at
its ready cycle, committed or not (see `_ready_at`). `_reschedule` applies
that rule (`_ready_at`) to every kind, and the short paths hold inlined
copies. A ready entry is filed in a calendar (R. Brown's calendar queue,
CACM 1988): a dict from cycle to seqs, of which the issue stage pops exactly
the current cycle's bucket and an idle cycle skips to the smallest key. An
entry is filed at most once per execution, so the walk never meets a seq
twice: a load once, as its access stands after a replay, and an op again
only once a replay has reset it or taken it out of where it waits. A load
waiting in the pool for store data in flight files an empty bucket at the
data's arrival, where an idle stretch stops. Issue walks, in program order,
the bucket, the loads waiting in the issue pool and the ops (ALU ops and
branches) waiting for a unit, which each FU class keeps in a list sorted by
seq; units and the walk's `width` issue slots go in that order, a slot to
each load or op that issues. A class's units can take only its oldest
waiting ops, so the walk takes as many of them as the class has units and
leaves the rest of its list, unvisited, for the next cycle. The walk ends at
the last slot and carries its unvisited rest in the next cycle's bucket, a
cycle that is stepped, as this one made progress. An ALU op or branch
executes unchecked: its producers had values when it was filed, and a
value-prediction replay takes each op that now reads a reset producer out of
the calendar bucket it is found in, or else its class's list, so that the
producer's re-execution files it as it files any op. The recomputation
engine steps only in a cycle it has work in, takes its units from the
cycle's budget, and hands back each request it ended as a value or a
fallback. `fu_ops` is counted once per run, in `_result`: an ALU op or
branch takes one unit per execution, its first and one per replay, and
the engine counts the units it takes. A load "performs" when its value
is bound by a real access, store forward, or recomputation; its
memory-order shadow resolves then (at validation completion for
predicted loads). Time skips ahead to the next cycle at which something
is due whenever a cycle makes no progress.

Injected transient probes model guaranteed-squashed wrong-path loads after a
mispredicted branch. They probe the hierarchy but hold no core resources, so
a secure policy must leave the hierarchy byte-identical to a probe-free run;
under BASELINE they mutate it like any speculative load would.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from dataclasses import dataclass, field

from .audit import MutationLog
from .isa import ALU_FNS, FU_ALU, FU_MUL
from .memhier import CacheConfig, L1_MISS, MSHR_HIT, MemHierState
from .shadows import ShadowKind, ShadowState
from .slicer import AnnotationTable
from .trace import (FORM_RI, FORM_RR, KIND_ALU, KIND_BRANCH, KIND_LOAD,
                    KIND_NOP, KIND_STORE, KINDS, Trace)
from .vp import VpConfig, VpState
from .vrc import VrcConfig, VrcState

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
        # a structure with no room, or a unit class with no unit, stops the
        # first instruction that needs it for good
        for name in ("rob_size", "iq_size", "lq_size", "sq_size", "alu_units",
                     "mul_units", "mem_ports", "rq_capacity", "deadlock_cycles"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # a faulting load under TSO casts two shadows at once
        if self.sb_capacity < 2:
            raise ValueError(f"sb_capacity must be >= 2, got {self.sb_capacity}")
        # a negative penalty would read as "blocked until the branch resolves"
        if self.redirect_penalty < 0:
            raise ValueError("redirect_penalty must be >= 0, "
                             f"got {self.redirect_penalty}")


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
# then memory ports
_PORT = 2
_NEVER = 1 << 62  # the complete cycle of a seq not complete: no run reaches it
_DISPATCHED_KEYS = tuple(f"dispatched_{k.lower()}" for k in KINDS)


class _Entry:
    """One in-flight load, store, branch or NOP: a slot of the run's ring,
    reset at dispatch (a load's short path writes only the fields a load
    reads). An ALU op takes no slot. Its value lives in the run's
    `committed_values` and its timing in the run's `ready` and `complete`
    lists. `sb_e` holds its exception shadow and `sb_k` the one shadow its
    kind casts: a branch's C, a store's D, a load's M or VP."""

    __slots__ = (
        "seq", "ins", "state", "addr_ready", "shadowed", "sb_e", "sb_k",
        "predicted", "iq_held", "unshadow_cycle", "dispatch_cycle", "issue_at",
    )

    def __init__(self):
        # what a load's short path does not write, for a slot's first
        # occupant: every later one finds it so, as an entry clears `sb_e`
        # before it commits
        self.sb_e = None

    def reset(self, seq, ins, now):
        """Every field, for a store, branch or NOP."""
        self.seq = seq
        self.ins = ins
        self.state = DISP
        self.addr_ready = None
        self.shadowed = False
        self.sb_e = self.sb_k = None
        self.predicted = None
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
        self.vrc = VrcState(self.annotations, config.vrc, config.policy) \
            if config.policy in ("VRC", "VRC2", "ORACLE_VRC") else None

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
        # per seq: its ring entry, ready and complete cycles (module docstring)
        self.ring = [_Entry() for _ in range(config.rob_size)]
        self.entries: list[_Entry | None] = [None] * self.n
        self.ready: list[int | None] = [None] * self.n
        self.complete: list[int] = [_NEVER] * self.n
        self.alu_shadows: dict[int, int] = {}
        self.replay_floor: dict[int, int] = {}

        self.now = 0
        self.next_dispatch = 0
        self.commit_head = 0
        self.last_commit_cycle = 0
        self.iq_used = 0
        self.lq_used = 0
        self.live_stores: deque[int] = deque()  # dispatched, uncommitted stores

        self.events: list = []                  # (cycle, order, handler, payload)
        self._event_order = 0
        self.calendar: dict[int, list[int]] = {}  # ready cycle -> seqs
        self.issue_pool: set[int] = set()       # loads that wait to issue
        # per FU class, the ops (ALU ops and branches) that wait for a unit
        self.fu_wait: tuple[list[int], list[int]] = ([], [])
        self.redirect_until: int | None = None  # None: clear; -1: until resolve
        self.redirect_branch: int | None = None

        # each seq's value as last bound; final once it commits
        self.committed_values: list = [None] * self.n
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
        load that makes a real access sets its ready cycle at issue to its
        fill cycle, so a set ready cycle alone is not enough."""
        wseq = self.decode.writer_before(reg, load_seq)
        if wseq is None:
            return 0
        ready = self.ready[wseq]
        if ready is None or ready > self.now:
            return None
        return self.committed_values[wseq]

    def _ready_at(self, writers, floor: int) -> int | None:
        """Cycle by which every producer's value is ready, at least `floor`;
        None while a producer has no value. A committed producer's ready
        cycle is at most the current one, so it acts as if passed over:
        every caller clamps the result to the next cycle at the earliest,
        compares it with the current cycle, or asks when a producer wakes,
        whose ready cycle is at least the current one."""
        ready = self.ready
        for w in writers:
            at = ready[w]
            if at is None:
                return None
            if at > floor:
                floor = at
        return floor

    def _wake(self, producer_seq: int) -> None:
        """Files each waiting consumer of a producer that now has its value
        as `_reschedule` does; an op (an ALU op or branch) waits only until
        it executes."""
        kinds, ready, dispatched = self.decode.kinds, self.ready, self.next_dispatch
        for cseq in self.decode.consumers[producer_seq]:
            if cseq >= dispatched:
                break  # consumers are in program order
            kind = kinds[cseq]
            if ready[cseq] is None or kind == KIND_LOAD or kind == KIND_STORE:
                self._reschedule(cseq)

    def _reschedule(self, seq: int) -> None:
        """Files a waiting load, store or op once its producers have values,
        in the calendar under its ready cycle (see the module docstring),
        the next cycle at the earliest. A load is filed once: its access
        stands after a replay, so a re-executed address producer does not
        file it again. Its callers pass an op only while it waits. The rule
        has three inlined copies, which a change to it must reach: ALU-op
        and load dispatch in `_dispatch`, and the consumer filing in
        `_issue_phase`."""
        decode = self.decode
        kind = decode.kinds[seq]
        if kind == KIND_STORE:
            self._update_store(self.entries[seq])
            return
        if kind == KIND_LOAD:
            e = self.entries[seq]
            if e.addr_ready is not None:
                return
            at = self._ready_at(decode.addr_writers[seq], e.dispatch_cycle)
            if at is None:
                return
            at = e.addr_ready = at + 1
        else:
            # an op's floor is the cycle after its dispatch, which the clamp
            # below covers, unless a replay raised it
            at = self._ready_at(decode.data_writers[seq], self.replay_floor.get(seq, 0))
            if at is None:
                return
        if at <= self.now:
            at = self.now + 1
        self.calendar.setdefault(at, []).append(seq)

    def _update_store(self, e: _Entry) -> None:
        """Recompute a store's address/data readiness; resolves the
        store-address shadow once the address is known."""
        decode = self.decode
        if e.addr_ready is None:
            at = self._ready_at(decode.addr_writers[e.seq], e.dispatch_cycle)
            if at is None:
                return
            e.addr_ready = at + 1
            self._schedule(e.addr_ready, self.sb.resolve, e.sb_k)
            e.sb_k = None
        complete = self._ready_at(
            decode.data_writers[e.seq], max(e.addr_ready, e.dispatch_cycle + 1))
        if complete is not None:  # else it is `_NEVER`, as a replay left it
            self.complete[e.seq] = complete
            if e.ins.may_fault and e.sb_e is not None:
                self._schedule(complete, self.sb.resolve, e.sb_e)
                e.sb_e = None
            self._release_iq(e)

    def _release_iq(self, e: _Entry) -> None:
        if e.iq_held:
            e.iq_held = False
            self.iq_used -= 1

    # ------------------------------------------------------------------ dispatch

    def _dispatch(self):
        """The dispatch stage, a generator that `run` makes once per run and
        resumes once per cycle: each resume dispatches, in order, what the
        ROB, the queues, the shadow buffer and its release queue have room
        for, up to `width`, and yields whether it dispatched any."""
        cfg = self.config
        sb = self.sb
        decode = self.decode
        kinds, casts, data_writers = decode.kinds, decode.casts, decode.data_writers
        addr_writers = decode.addr_writers
        order = self.order_shadow
        instructions = self.trace.instructions
        entries, ring, rob, n = self.entries, self.ring, cfg.rob_size, self.n
        width, iq_size = cfg.width, cfg.iq_size
        lq_size, sq_size = cfg.lq_size, cfg.sq_size
        calendar, live_stores = self.calendar, self.live_stores
        readies, alu_shadows = self.ready, self.alu_shadows
        probe = self.probe_spec
        while True:
            redirect_until = self.redirect_until
            if redirect_until is not None:
                if redirect_until < 0 or self.now < redirect_until:
                    yield False
                    continue
                self.redirect_until = None
            first = seq = self.next_dispatch
            end = self.commit_head + rob  # the ROB's room
            if end > seq + width:
                end = seq + width
            if end > n:
                end = n
            if seq >= end:
                yield False
                continue
            now = self.now
            floor = now + 1  # an op's floor, one int shared by the cycle's ops
            # nothing resolves during dispatch, so the room only shrinks by
            # the casts of the instructions dispatched here
            room = sb.room()
            iq_used, lq_used = self.iq_used, self.lq_used
            while seq < end:
                kind = kinds[seq]
                need = casts[seq]
                if kind == KIND_ALU:
                    # an ALU op's short path: it takes no ring entry, and
                    # files itself as `_reschedule` does
                    if iq_used >= iq_size:
                        break
                    if need:  # an ALU op casts one shadow: it may fault
                        if need > room:
                            break
                        room -= need
                        alu_shadows[seq] = sb.cast(ShadowKind.E, seq)
                    iq_used += 1
                    ready = floor
                    for w in data_writers[seq]:
                        at = readies[w]
                        if at is None:
                            break
                        if at > ready:
                            ready = at
                    else:
                        calendar.setdefault(ready, []).append(seq)
                    seq += 1
                    continue
                if kind == KIND_LOAD:
                    # a load's short path (`sb_e` is None, see `_Entry`):
                    # it files its address readiness as `_reschedule` does
                    need += order is not None  # its memory-order shadow
                    if need > room or iq_used >= iq_size or lq_used >= lq_size:
                        break
                    ins = instructions[seq]
                    got = sb.register_load(seq, ins.may_fault, order)
                    if got is None:
                        break  # the release queue is full
                    shadowed, sb_id = got
                    room -= need
                    e = entries[seq] = ring[seq % rob]
                    e.seq = seq
                    e.ins = ins
                    e.state = DISP
                    e.addr_ready = e.predicted = e.issue_at = None
                    e.dispatch_cycle = now
                    e.iq_held = True
                    iq_used += 1
                    lq_used += 1
                    e.shadowed = shadowed
                    e.unshadow_cycle = None if shadowed else now
                    if ins.may_fault:
                        e.sb_e = sb_id
                        sb_id += 1
                    e.sb_k = None if order is None else sb_id
                    at = now
                    for w in addr_writers[seq]:
                        ready = readies[w]
                        if ready is None:
                            break
                        if ready > at:
                            at = ready
                    else:
                        e.addr_ready = at + 1
                        calendar.setdefault(at + 1, []).append(seq)
                    seq += 1
                    continue
                if need > room \
                        or (kind != KIND_NOP and iq_used >= iq_size) \
                        or (kind == KIND_STORE and len(live_stores) >= sq_size):
                    break
                room -= need
                ins = instructions[seq]
                e = entries[seq] = ring[seq % rob]
                e.reset(seq, ins, now)
                if ins.may_fault:
                    e.sb_e = sb.cast(ShadowKind.E, seq)
                if kind == KIND_BRANCH:
                    e.sb_k = sb.cast(ShadowKind.C, seq)
                    if not ins.br.predicted_correctly:
                        self.redirect_until = -1  # blocked until the branch resolves
                        self.redirect_branch = seq
                    if probe is not None and seq == probe.branch_seq:
                        self.probes = [(("probe", i), a) for i, a
                                       in enumerate(probe.load_addrs)]
                elif kind == KIND_STORE:
                    e.sb_k = sb.cast(ShadowKind.D, seq)
                    live_stores.append(seq)

                if kind == KIND_NOP:
                    self.complete[seq] = floor
                    if e.sb_e is not None:
                        self._schedule(floor, sb.resolve, e.sb_e)
                        e.sb_e = None
                else:
                    e.iq_held = True
                    # a store may release its IQ entry at once
                    self.iq_used = iq_used + 1
                    self._reschedule(seq)
                    iq_used = self.iq_used
                seq += 1
                if self.redirect_until is not None:
                    break  # a mispredicted branch blocks dispatch until it resolves
            self.iq_used, self.lq_used = iq_used, lq_used
            self.next_dispatch = seq
            yield seq > first

    # ------------------------------------------------------------------ issue

    def _issue_phase(self):
        """The issue stage and the recomputation engine, a generator that
        `run` makes once per run and resumes once per cycle: each resume
        walks the cycle's ready loads and ops and steps the engine, and
        yields whether any load or op issued or the engine worked."""
        decode = self.decode
        kinds, fus, latencies = decode.kinds, decode.fus, decode.latencies
        forms, src_writers = decode.forms, decode.src_writers
        data_writers, consumers = decode.data_writers, decode.consumers
        casts, instructions = decode.casts, self.trace.instructions
        entries, values = self.entries, self.committed_values
        readies, completes = self.ready, self.complete
        alu_shadows, replay_floor = self.alu_shadows, self.replay_floor
        calendar, pool, vrc = self.calendar, self.issue_pool, self.vrc
        resolve = self.sb.resolve
        alu_wait, mul_wait = self.fu_wait
        alu_waits, mul_waits = alu_wait.append, mul_wait.append
        cfg = self.config
        units, width = (cfg.alu_units, cfg.mul_units, cfg.mem_ports), cfg.width
        while True:
            now = self.now
            due = calendar.pop(now, None)
            # the walk: the cycle's bucket, the loads in the pool and the ops
            # that wait for a unit, in program order
            budget = list(units)
            alu, mul, _ = budget
            slots = width
            if pool or alu_wait or mul_wait:
                if due is None:
                    due = []
                if pool:
                    due += pool
                    pool.clear()
                # a class's units can take only its oldest waiting ops; the
                # others stay in its list, unvisited (a list is sorted here,
                # as the last walk may have appended to it out of order)
                if alu_wait:
                    alu_wait.sort()
                    due += alu_wait[:alu]
                    del alu_wait[:alu]
                if mul_wait:
                    mul_wait.sort()
                    due += mul_wait[:mul]
                    del mul_wait[:mul]
            if due:
                due.sort()
                dispatched = self.next_dispatch
                end1 = now + 1  # a 1-cycle latency's end, shared as `floor` is
                freed = 0  # IQ entries that ops gave back
                for seq in due:
                    kind = kinds[seq]  # an issue-walk visit
                    if kind == KIND_LOAD:
                        e = entries[seq]
                        if not self._issue_load(e, budget):
                            pool.add(seq)
                            continue
                        slots -= 1
                        if not slots:
                            self._hold(due, seq)
                        if e.state != DONE_ST:
                            continue  # its value comes later, or it delays
                    else:
                        # an ALU op or branch, which executes unchecked (see
                        # the module docstring) once its FU class has a unit
                        if fus[seq] == FU_MUL:
                            if mul <= 0:
                                mul_waits(seq)  # an FU-starved visit
                                continue
                            mul -= 1
                        elif alu <= 0:
                            alu_waits(seq)  # an FU-starved visit
                            continue
                        else:
                            alu -= 1
                        slots -= 1
                        if not slots:
                            self._hold(due, seq)
                        # it executes
                        lat = latencies[seq]
                        done = readies[seq] = completes[seq] = \
                            end1 if lat == 1 else now + lat
                        if kind == KIND_ALU:
                            ins = instructions[seq]
                            form = forms[seq]
                            if form == FORM_RR:
                                a, b = src_writers[seq]
                                values[seq] = ALU_FNS[ins.alu_op](values[a], values[b])
                            elif form == FORM_RI:
                                values[seq] = ALU_FNS[ins.alu_op](
                                    values[src_writers[seq][0]], ins.imm)
                            else:  # any other shape; an unwritten register reads 0
                                args = [0 if w is None else values[w]
                                        for w in src_writers[seq]]
                                if ins.imm is not None:
                                    args.append(ins.imm)
                                values[seq] = ALU_FNS[ins.alu_op](*args)
                            if seq not in replay_floor:
                                # its first execution: it leaves the IQ, and
                                # a faulting op's exception shadow resolves
                                freed += 1
                                if casts[seq]:
                                    self._schedule(done, resolve, alu_shadows.pop(seq))
                        else:
                            e = entries[seq]
                            self._schedule(end1, self._branch_resolved, seq)
                            e.state = DONE_ST
                            if e.iq_held:  # `_release_iq`, inlined
                                e.iq_held = False
                                freed += 1
                            if e.sb_e is not None:
                                self._schedule(done, resolve, e.sb_e)
                                e.sb_e = None
                    # the op or load has its value: its consumers that wait
                    # are filed as `_wake` files them, inline
                    for cseq in consumers[seq]:
                        if cseq >= dispatched:
                            # not dispatched yet, as none after it is:
                            # consumers are in program order
                            break
                        kind = kinds[cseq]
                        if kind != KIND_ALU and kind != KIND_BRANCH:
                            self._reschedule(cseq)
                        elif readies[cseq] is None:
                            # `_reschedule` for an op, inlined: an op waiting
                            # here has no value for this producer, so it is
                            # not filed yet
                            ready = now
                            for w in data_writers[cseq]:
                                at = readies[w]
                                if at is None:
                                    break
                                if at > ready:
                                    ready = at
                            else:
                                # the next cycle at the earliest (an L1 hit
                                # with no L1 latency is ready now, past this
                                # bucket), and no earlier than a floor that
                                # a replay raised
                                if ready == now:
                                    ready = now + 1
                                if replay_floor and replay_floor.get(cseq, 0) > ready:
                                    ready = replay_floor[cseq]
                                calendar.setdefault(ready, []).append(cseq)
                self.iq_used -= freed
            # every load or op that issued took a slot
            any_issued = slots < width
            # the engine steps only with work: a slice, a request or an
            # ended one, on the units the walk left
            if vrc is not None and (vrc.active is not None or vrc.queue
                                    or vrc.ended):
                budget[FU_ALU], budget[FU_MUL] = alu, mul
                any_issued = self._engine_tick(budget) or any_issued
            yield any_issued

    def _hold(self, due: list, seq: int) -> None:
        """`seq` took the cycle's last issue slot: the walk ends after it,
        as its list `due` does, and the rest of `due` waits unvisited in the
        next cycle's bucket. That cycle is stepped, as this one made
        progress."""
        at = due.index(seq) + 1
        self.calendar.setdefault(self.now + 1, []).extend(due[at:])
        del due[at:]

    # -- load paths ---------------------------------------------------------------

    def _issue_load(self, e: _Entry, budget) -> bool:
        """A load's visit to the issue stage, first issue and every retry;
        True when it issued, which takes an issue slot. A dispatched or
        NONSPEC load forwards from the youngest older store with a known
        address over its bytes, or waits for its data (for its commit on a
        partial overlap); else a secure policy's shadowed dispatched load
        makes a hidden access, and any other load the one real access, which
        retries on an MSHR stall (a load still shadowed there runs under
        BASELINE)."""
        now, seq, ins, state, counters = self.now, e.seq, e.ins, e.state, self.counters
        if state != AWAIT_VAL:
            if state == NONSPEC:  # an unshadowed delayed or fallback load
                e.issue_at = now
            stores = self.live_stores
            if stores and stores[0] < seq:  # a live store is older
                addr, size, entries = ins.mem_addr, ins.mem_size, self.entries
                for sseq in reversed(stores):
                    if sseq > seq:
                        continue
                    se = entries[sseq]
                    if se.addr_ready is None or se.addr_ready > now:
                        continue  # its address is not known yet
                    si = se.ins
                    if si.mem_addr >= addr + size or addr >= si.mem_addr + si.mem_size:
                        continue
                    if si.mem_addr != addr or si.mem_size != size:
                        return False  # a partial overlap: wait for the commit
                    ready = self._ready_at(self.decode.data_writers[sseq], 0)
                    if ready is None:
                        return False  # the data's producer has not executed
                    if ready > now:
                        # store data in flight: the load waits in the pool,
                        # where it sees a younger store whose address becomes
                        # known meanwhile, and an empty bucket at the data's
                        # arrival stops a skip there
                        self.calendar.setdefault(ready, [])
                        return False
                    counters["store_forwards"] += 1
                    self._finish_load(e, ins.mem_value, now + 1)
                    return True
        if budget[_PORT] <= 0:
            return False
        if state == DISP:
            counters["load_lookups"] += 1
            if self.secure and e.shadowed:
                # a hidden access, which only hits or rides a fill
                budget[_PORT] -= 1
                kind, ready = self.mem.hidden_access(ins.mem_addr, now, seq)
                if ready is not None:
                    if kind == MSHR_HIT:
                        counters["mshr_wait_loads"] += 1
                    self._finish_load(e, ins.mem_value, ready)
                    return True
                # a refused miss: the policy delays, predicts or recomputes it
                counters["shadowed_l1_misses"] += 1
                e.issue_at = now
                policy = self.policy
                if policy == "DOM":
                    self._delay_load(e)
                elif policy == "VP" or policy == "ORACLE_VP":
                    if policy == "ORACLE_VP":
                        e.predicted = ins.mem_value
                    else:
                        pred = self.vp.predict(ins.pc)
                        if pred and pred.confident:
                            e.predicted = pred.value
                    if e.predicted is None:  # not confident
                        self._delay_load(e)
                    else:
                        counters["predicted_loads"] += 1
                        self._schedule(now + self.config.vp.predict_latency,
                                       self._predict_done, seq)
                else:
                    # VRC, VRC2 and ORACLE_VRC; an oracle request carries
                    # its value
                    oracle = policy == "ORACLE_VRC"
                    accepted = self.vrc.enqueue(ins.pc, seq,
                                                ins.mem_value if oracle else None)
                    if not oracle:
                        counters["rcmp_recompute" if accepted else "rcmp_delay"] += 1
                    if accepted:
                        e.state = RECOMPUTING
                        counters["recomputes"] += 1
                        self._release_iq(e)
                    else:
                        self._delay_load(e)
                return True
        kind, ready = self.mem.access(ins.mem_addr, now, seq, speculative=e.shadowed)
        if e.shadowed and kind == L1_MISS:
            counters["shadowed_l1_misses"] += 1
        if ready is None:
            counters["mshr_stalls"] += 1
            return False
        budget[_PORT] -= 1
        if state == AWAIT_VAL:
            counters["validations"] += 1
            self._schedule(ready, self._validation_done, seq)
        else:
            self._finish_load(e, ins.mem_value, ready)
        return True

    def _delay_load(self, e: _Entry) -> None:
        e.state = DELAYED
        self.counters["delayed_loads"] += 1

    def _finish_load(self, e: _Entry, value: int, ready: int) -> None:
        """The load performs: its value is bound, ready at `ready`, when its
        shadows resolve, and it leaves the IQ. The issue walk files its
        consumers, and `_wake` those of a recomputed load."""
        seq = e.seq
        e.state = DONE_ST
        self.committed_values[seq] = value
        self.ready[seq] = self.complete[seq] = ready
        if e.iq_held:
            e.iq_held = False
            self.iq_used -= 1
        for sb_id in (e.sb_k, e.sb_e):
            if sb_id is not None:
                self._schedule(ready, self.sb.resolve, sb_id)
        e.sb_k = e.sb_e = None
        self.load_timing[seq] = (
            e.unshadow_cycle, self.now if e.issue_at is None else e.issue_at, ready)

    # ------------------------------------------------------------------ event handlers

    def _branch_resolved(self, seq: int) -> None:
        e = self.entries[seq]
        if e.sb_k is not None:
            self.sb.resolve(e.sb_k)
            e.sb_k = None
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
        self.committed_values[seq] = e.predicted
        self.ready[seq] = self.now
        self._release_iq(e)
        self._wake(seq)
        if not e.shadowed:
            # unshadowed while the prediction was in flight: validate now
            e.state = AWAIT_VAL
            self.issue_pool.add(seq)

    def _validation_done(self, seq: int) -> None:
        e = self.entries[seq]
        actual = e.ins.mem_value
        self.validation_completions.append((seq, self.now))
        if self.committed_values[seq] != actual:
            self.counters["vp_mispredicts"] += 1
            self.committed_values[seq] = actual
            self.ready[seq] = self.now
            self._replay_dependents(seq, self.now)
        e.state = DONE_ST
        self.complete[seq] = self.now
        for sb_id in (e.sb_k, e.sb_e):
            if sb_id is not None:
                self._schedule(self.now, self.sb.resolve, sb_id)
        e.sb_k = e.sb_e = None
        self.load_timing[e.seq] = (e.unshadow_cycle, None, self.now)

    def _replay_dependents(self, seq: int, correct_cycle: int) -> None:
        """Selective replay: computation that consumed a mispredicted value
        re-executes after the redirect penalty; memory accesses stand."""
        floor = correct_cycle + self.config.redirect_penalty
        kinds, entries = self.decode.kinds, self.entries
        ready, complete, replay_floor = self.ready, self.complete, self.replay_floor
        stack = [seq]
        seen = set()
        while stack:
            p = stack.pop()
            for cseq in self.decode.consumers[p]:
                if cseq in seen:
                    continue
                seen.add(cseq)
                kind = kinds[cseq]
                if kind == KIND_ALU and ready[cseq] is not None:
                    # an executed op; its floor rises above the cycle after
                    # its dispatch
                    self.committed_values[cseq], ready[cseq], complete[cseq] = None, None, _NEVER
                    replay_floor[cseq] = max(replay_floor.get(cseq, 0), floor)
                    self.counters["replayed_ops"] += 1
                    self._reschedule(cseq)
                    stack.append(cseq)
                elif kind == KIND_STORE and entries[cseq] is not None:
                    complete[cseq] = _NEVER
                    self._update_store(entries[cseq])
        # an op that has not executed and now reads a reset producer leaves
        # where it waits, a calendar bucket or its FU class's list (it is in
        # neither if it already waited for a producer); the producer's
        # re-execution wakes it
        data_writers, calendar = self.decode.data_writers, self.calendar
        dispatched = self.next_dispatch
        for s in seen:
            kind = kinds[s]
            if (kind != KIND_ALU and kind != KIND_BRANCH) or s >= dispatched \
                    or ready[s] is not None \
                    or self._ready_at(data_writers[s], 0) is not None:
                continue
            for at, bucket in calendar.items():
                if s in bucket:
                    bucket.remove(s)
                    if not bucket:
                        del calendar[at]
                    break
            else:
                waiting = self.fu_wait[self.decode.fus[s]]
                if s in waiting:
                    waiting.remove(s)

    # ------------------------------------------------------------------ unshadow

    def _unshadow(self) -> None:
        """The loads the shadow buffer released this cycle leave speculation,
        and its release list is emptied."""
        now, entries, mem = self.now, self.entries, self.mem
        released, deferred = self.sb.released, mem.deferred_touches
        for seq in released:
            if seq in deferred:  # it hit in L1 while hidden
                mem.apply_deferred(seq, now, seq)
            e = entries[seq]
            if e is None:
                continue  # committed while shadowed: only its touches remain
            e.shadowed = False
            e.unshadow_cycle = now
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
        released.clear()

    # ------------------------------------------------------------------ engine

    def _engine_tick(self, budget) -> bool:
        vrc = self.vrc
        busy = vrc.step(self.now, budget, self._live_reg_value)
        # each ended request: a value completes the load in the next cycle;
        # None (a fault or an invalidation) reverts it to a delayed load, or
        # reissues it at once if it has left speculation meanwhile
        for seq, value in vrc.ended:
            e = self.entries[seq]
            if value is None:
                if e.shadowed:
                    self._delay_load(e)
                else:
                    e.state = NONSPEC
                    self.issue_pool.add(seq)
                continue
            if value != e.ins.mem_value:
                self.counters["unsound_recomputes"] += 1
            self.counters["recompute_done"] += 1
            self._finish_load(e, value, self.now + 1)
            self._wake(seq)
        vrc.ended.clear()
        return busy

    # ------------------------------------------------------------------ commit

    def _commit(self):
        """The commit stage, a generator that `run` makes once per run and
        resumes once per cycle: each resume commits, in order, up to `width`
        completed instructions and yields whether it committed any."""
        entries, values, counters = self.entries, self.committed_values, self.counters
        kinds, completes = self.decode.kinds, self.complete
        mem, live_stores, vp, vrc = self.mem, self.live_stores, self.vp, self.vrc
        width = self.config.width
        # checkpoint sites, which only the engine reads
        rec_sites = self.annotations.rec_sites if vrc is not None else ()
        while True:
            now = self.now
            first = seq = self.commit_head
            end = seq + width
            if end > self.next_dispatch:
                end = self.next_dispatch
            while seq < end:
                if completes[seq] > now:
                    break
                kind = kinds[seq]
                if kind:  # not KIND_ALU (0): an ALU op has nothing more to do
                    e = entries[seq]
                    ins = e.ins
                    if kind == KIND_LOAD:
                        self.lq_used -= 1
                        if vp is not None:
                            vp.train(ins.pc, ins.mem_value,
                                     was_correct=(e.predicted == ins.mem_value)
                                     if e.predicted is not None else None)
                    elif kind == KIND_STORE:
                        _, ready = mem.access(ins.mem_addr, now, seq, store=True)
                        if ready is None:
                            counters["store_commit_stalls"] += 1
                            break
                        # stores commit in program order, so the oldest live
                        # one leaves
                        if live_stores.popleft() != seq:
                            raise RuntimeError(f"store {seq} committed out of order")
                        if vrc is not None:
                            vrc.invalidate_on_store(ins.mem_addr, ins.mem_size,
                                                    store_pc=ins.pc)
                    elif kind == KIND_BRANCH and vp is not None:
                        vp.notify_branch(ins.br.taken)
                    entries[seq] = None
                if seq in rec_sites:
                    # Hist takes the committed value; a store or branch has none
                    value = values[seq]
                    if value is not None:
                        for key, _ in rec_sites[seq]:
                            vrc.rec_checkpoint(key, value)
                seq += 1
            if seq > first:
                self.commit_head = seq
                self.last_commit_cycle = now
                yield True
            else:
                yield False

    # ------------------------------------------------------------------ probes

    def _probe_tick(self) -> bool:
        branch_seq = self.probe_spec.branch_seq
        if self.now <= self.entries[branch_seq].dispatch_cycle:
            return False
        # under a secure policy a probe is a hidden access: a refused miss
        # stays delayed until the squash; under BASELINE a stall retries
        pending = []
        for key, addr in self.probes:
            if self.secure:
                self.mem.hidden_access(addr, self.now, key)
            elif self.mem.access(addr, self.now, branch_seq, speculative=True,
                                 probe=True)[1] is None:
                pending.append((key, addr))
        acted = len(pending) < len(self.probes)
        self.probes = pending
        return acted

    # ------------------------------------------------------------------ main loop

    def run(self) -> RunResult:
        if self.n == 0:
            return self._result(0)
        mem, sb, events, fills = self.mem, self.sb, self.events, self.mem.fills
        n, deadlock_cycles = self.n, self.config.deadlock_cycles
        # the generator phases stay locals, never attributes: each one's
        # frame holds the simulator, so that would be a reference cycle. Any
        # other phase with no work due is skipped; it would make no progress
        commit = self._commit().__next__
        issue = self._issue_phase().__next__
        dispatch = self._dispatch().__next__
        while True:
            now = self.now
            if fills and fills[0][0] <= now:
                mem.advance(now)
            progress = False
            if events and events[0][0] <= now:
                progress = True
                while events and events[0][0] <= now:
                    _, _, handler, payload = heapq.heappop(events)
                    handler(payload)
            progress |= commit()
            if sb.released:  # loads that this cycle's resolves released
                self._unshadow()
                progress = True
            progress |= issue()
            progress |= dispatch()
            if self.probes:
                progress |= self._probe_tick()
            if self.commit_head >= n:
                break
            if self.now - self.last_commit_cycle > deadlock_cycles:
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
        now, events, fills = self.now, self.events, self.mem.fills
        at = self.complete[self.commit_head]  # `run` stops once all commit
        if at <= now:
            at = _NEVER
        if events and now < events[0][0] < at:
            at = events[0][0]
        if fills and now < fills[0][0] < at:
            at = fills[0][0]
        if self.calendar:
            first = min(self.calendar)
            if now < first < at:
                at = first
        if self.redirect_until is not None and now < self.redirect_until < at:
            at = self.redirect_until  # a redirect until a resolve is -1
        # with nothing due, creep: the deadlock detector trips if it lasts
        self.now = now + 1 if at == _NEVER else at

    def _deadlock_dump(self) -> str:
        seq = self.commit_head
        if seq >= self.next_dispatch:
            state = "undispatched"
        elif self.decode.kinds[seq] == KIND_ALU:  # an ALU op has no entry
            state = STATE_NAMES[DISP if self.ready[seq] is None else DONE_ST]
        else:
            state = STATE_NAMES[self.entries[seq].state]
        shadow = self.sb.oldest_unresolved()
        return "; ".join([
            f"no commit for {self.config.deadlock_cycles} cycles at cycle {self.now}",
            f"policy={self.policy} committed={seq}/{self.n}",
            f"head seq={seq} state={state}",
            f"iq={self.iq_used} lq={self.lq_used} sq={len(self.live_stores)}",
            f"issue_pool={len(self.issue_pool) + sum(map(len, self.fu_wait))}",
            "oldest shadow=" + (f"{shadow[0].value} cast by seq={shadow[1]}"
                                if shadow else "none"),
        ])

    # ------------------------------------------------------------------ results

    def _final_regs(self) -> list:
        """The architectural registers after the last commit: each holds
        the committed value of its last writer, or 0."""
        regs = [0] * 64
        values = self.committed_values
        for reg, seqs in self.decode.writers.items():
            regs[reg] = values[seqs[-1]]
        return regs

    def _result(self, cycles: int) -> RunResult:
        c = self.counters
        # every instruction was dispatched exactly once
        for kind, count in self.decode.kind_counts:
            c[_DISPATCHED_KEYS[kind]] = count
        # one unit per FU op (see the module docstring)
        fu_ops = c.get("dispatched_alu", 0) + c.get("dispatched_branch", 0) \
            + c.get("replayed_ops", 0) + (self.vrc.fu_ops if self.vrc else 0)
        if fu_ops:
            c["fu_ops"] = fu_ops
        for name in ("l1_hits", "l1_misses", "mshr_hits", "l2_hits", "mem_accesses"):
            c[name] = getattr(self.mem, name)
        if self.vp is not None:
            c["vp_lookups"] = self.vp.lookups
            c["vp_updates"] = self.vp.updates
        if self.vrc is not None:
            c["slice_cycles"] = self.vrc.busy_cycles
            c["vrc_struct_accesses"] = self.vrc.struct_accesses
            c["hist_inserts"] = self.vrc.hist_inserts
            c["hist_overflows"] = self.vrc.hist_overflows
            c["slice_invalidations"] = self.vrc.invalidations
            if self.vrc.faults:
                c["exc_fallbacks"] = self.vrc.faults
        return RunResult(
            policy=self.policy,
            consistency=self.config.consistency,
            cycles=cycles,
            committed=self.commit_head,
            counters=dict(c),
            memhier_digest=self.mem.snapshot_digest(),
            mutation_log=self.log,
            committed_values=self.committed_values,
            committed_regs=self._final_regs(),
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
