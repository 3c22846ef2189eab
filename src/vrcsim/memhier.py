"""Two-level cache hierarchy with MSHRs, write-back write-allocate stores,
deferred replacement updates for hidden hits, and full mutation logging.

Every real load, store commit and wrong-path probe is one `access` call,
which looks up the L1 set itself. A hidden access (a shadowed load or probe
under a secure policy) is one `hidden_access` call, where the hierarchy
applies the Delay-on-Miss rule: it may hit, its LRU update queued until the
load leaves speculation or dropped if it is squashed, or ride an in-flight
fill; a true miss is refused and changes nothing.

Every change the hierarchy makes is one `MutationRecord`, a tuple record
that `_record` appends to the run's `MutationLog`, a plain list.

Timing: an L1 hit returns in 2 cycles, an L2 hit in 2+20, a memory access in
2+20+mem_latency. Fills install the line at the ready cycle (memory fills
install into L2 and L1 together); the hierarchy is inclusive, so an L2
eviction also evicts any L1 copy.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass

from .audit import MutationLog, MutationRecord
from .isa import LINE_BYTES


@dataclass(frozen=True, slots=True)
class CacheConfig:
    l1_bytes: int = 32 * 1024
    l1_ways: int = 8
    l1_latency: int = 2
    l2_bytes: int = 1024 * 1024
    l2_ways: int = 16
    l2_latency: int = 20
    mem_latency: int = 150
    mshrs: int = 16

    def __post_init__(self):
        for name, least in (("l1_ways", 1), ("l2_ways", 1), ("l1_latency", 0),
                            ("l2_latency", 0), ("mem_latency", 0), ("mshrs", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for sets in (self.l1_sets, self.l2_sets):
            if sets <= 0 or sets & (sets - 1):
                raise ValueError("cache size must give a power-of-two set count")

    @property
    def l1_sets(self) -> int:
        return self.l1_bytes // (LINE_BYTES * self.l1_ways)

    @property
    def l2_sets(self) -> int:
        return self.l2_bytes // (LINE_BYTES * self.l2_ways)


L1_HIT = "L1_HIT"
MSHR_HIT = "MSHR_HIT"
L1_MISS = "L1_MISS"


class _Level:
    """One set-associative level; per-set line lists are MRU-first. Every
    set starts as the level's one shared empty list, which nothing mutates:
    `install` gives a set its own list at its first fill, so a level builds
    lists only for the sets it fills, and `filled` holds their indices."""

    def __init__(self, sets: int, ways: int):
        self.sets = sets
        self.ways = ways
        self._unfilled: list[int] = []
        self.data: list[list[int]] = [self._unfilled] * sets
        self.filled: set[int] = set()
        self.dirty: set[int] = set()

    def set_index(self, line: int) -> int:
        return (line // LINE_BYTES) % self.sets

    def contains(self, line: int) -> bool:
        return line in self.data[self.set_index(line)]

    def touch(self, line: int) -> bool:
        s = self.data[self.set_index(line)]
        if line not in s:
            return False
        s.remove(line)
        s.insert(0, line)
        return True

    def install(self, line: int) -> tuple[int | None, bool]:
        """Insert as MRU; returns (victim line, victim was dirty) if one was evicted."""
        index = self.set_index(line)
        s = self.data[index]
        if s is self._unfilled:
            s = self.data[index] = []
            self.filled.add(index)
        if line in s:
            s.remove(line)
            s.insert(0, line)
            return None, False
        victim, victim_dirty = None, False
        if len(s) >= self.ways:
            victim = s.pop()
            victim_dirty = victim in self.dirty
            self.dirty.discard(victim)
        s.insert(0, line)
        return victim, victim_dirty

    def evict(self, line: int) -> bool:
        s = self.data[self.set_index(line)]
        if line in s:
            s.remove(line)
            self.dirty.discard(line)
            return True
        return False


@dataclass(slots=True)
class _Mshr:
    ready: int
    l2_hit: bool
    dirty_on_fill: bool
    cause_seq: int
    speculative: bool


class MemHierState:
    def __init__(self, config: CacheConfig | None = None,
                 log: MutationLog | None = None):
        self.config = config or CacheConfig()
        self.log = log if log is not None else MutationLog()
        self.l1 = _Level(self.config.l1_sets, self.config.l1_ways)
        self.l2 = _Level(self.config.l2_sets, self.config.l2_ways)
        self.l1_mshr: dict[int, _Mshr] = {}
        self.mem_fills = 0                           # l1_mshr lines in flight from memory
        # a heap of (ready, order, line); `advance` pops the due ones
        self.fills: list[tuple[int, int, int]] = []
        self._fill_order = 0
        self.deferred_touches: dict[object, list[int]] = {}  # key -> lines to touch
        self.mshr_history: list[int] = []            # lines of L1 MSHR allocations, in order
        # counters
        self.l1_hits = 0
        self.l1_misses = 0
        self.mshr_hits = 0
        self.l2_hits = 0
        self.mem_accesses = 0

    def _record(self, now: int, level: int, op: str, line: int, cause_seq: int,
                speculative: bool, probe: bool, victim: int | None = None) -> None:
        # `tuple.__new__` skips the generated `MutationRecord.__new__` frame
        self.log.append(tuple.__new__(MutationRecord, (
            now, level, op, line, victim, cause_seq, speculative, probe)))

    # -- accesses ---------------------------------------------------------------

    def access(self, addr: int, now: int, cause_seq: int, *, store: bool = False,
               speculative: bool = False, probe: bool = False) -> tuple[str, int | None]:
        """A load, or a committed store (write-allocate, write-back). Returns
        (kind, ready cycle); ready is None when no MSHR was free, and the
        access changed nothing (the caller retries)."""
        line = addr - addr % LINE_BYTES
        l1 = self.l1
        s = l1.data[(line // LINE_BYTES) % l1.sets]
        if line in s:
            self.l1_hits += 1
            s.remove(line)  # the LRU touch
            s.insert(0, line)
            self._record(now, 1, "lru_touch", line, cause_seq, speculative, probe)
            if store and line not in l1.dirty:
                l1.dirty.add(line)
                self._record(now, 1, "dirty", line, cause_seq, speculative, probe)
            return L1_HIT, now + self.config.l1_latency
        entry = self.l1_mshr.get(line)
        if entry is not None:
            self.mshr_hits += 1
            entry.dirty_on_fill |= store
            return MSHR_HIT, max(now + self.config.l1_latency, entry.ready)
        l2, cfg = self.l2, self.config
        l2_hit = l2.contains(line)
        if len(self.l1_mshr) >= cfg.mshrs or (not l2_hit and self.mem_fills >= cfg.mshrs):
            return L1_MISS, None
        # a miss takes an MSHR; its fill is due at `ready`
        self.l1_misses += 1
        ready = now + cfg.l1_latency + cfg.l2_latency
        if not l2_hit:
            ready += cfg.mem_latency
        self.l1_mshr[line] = _Mshr(ready, l2_hit, store, cause_seq, speculative)
        self.mshr_history.append(line)
        self._record(now, 1, "mshr_alloc", line, cause_seq, speculative, probe)
        if l2_hit:
            self.l2_hits += 1
            l2.touch(line)
            self._record(now, 2, "lru_touch", line, cause_seq, speculative, probe)
        else:
            self.mem_accesses += 1
            self.mem_fills += 1
            self._record(now, 2, "mshr_alloc", line, cause_seq, speculative, probe)
        heapq.heappush(self.fills, (ready, self._fill_order, line))
        self._fill_order += 1
        return L1_MISS, ready

    def hidden_access(self, addr: int, now: int, key: object) -> tuple[str, int | None]:
        """A hidden access: an L1 hit, its LRU touch deferred under `key`
        (the only thing counted), a ride on an in-flight fill, or a refused
        miss (ready None). It changes no cache state."""
        line = addr - addr % LINE_BYTES
        l1 = self.l1
        if line in l1.data[(line // LINE_BYTES) % l1.sets]:
            self.l1_hits += 1
            self.deferred_touches.setdefault(key, []).append(line)
            return L1_HIT, now + self.config.l1_latency
        entry = self.l1_mshr.get(line)
        if entry is None:
            return L1_MISS, None
        return MSHR_HIT, max(now + self.config.l1_latency, entry.ready)

    # -- fill processing -----------------------------------------------------------

    def advance(self, now: int) -> None:
        """Apply every fill due at or before `now`."""
        while self.fills and self.fills[0][0] <= now:
            ready, _, line = heapq.heappop(self.fills)
            entry = self.l1_mshr.pop(line)
            spec = entry.speculative
            if not entry.l2_hit:
                self.mem_fills -= 1
                victim, victim_dirty = self.l2.install(line)
                self._record(ready, 2, "fill", line,
                             entry.cause_seq, spec, False, victim=victim)
                if victim is not None and self.l1.evict(victim):
                    # inclusive hierarchy: L2 eviction removes the L1 copy
                    self._record(ready, 1, "evict", victim,
                                 entry.cause_seq, spec, False)
            victim, victim_dirty = self.l1.install(line)
            self._record(ready, 1, "fill", line,
                         entry.cause_seq, spec, False, victim=victim)
            if victim_dirty and self.l2.contains(victim):
                # write-back marks the L2 copy dirty without promoting it
                self.l2.dirty.add(victim)
                self._record(ready, 2, "dirty", victim, entry.cause_seq, spec, False)
            if entry.dirty_on_fill:
                self.l1.dirty.add(line)
                self._record(ready, 1, "dirty", line, entry.cause_seq, spec, False)

    # -- deferred replacement -----------------------------------------------------

    def apply_deferred(self, key: object, now: int, cause_seq: int) -> None:
        """Apply queued LRU updates for a load that left speculation."""
        for line in self.deferred_touches.pop(key, []):
            if self.l1.touch(line):
                self._record(now, 1, "lru_touch", line, cause_seq, False, False)

    def squash_deferred(self, key: object) -> None:
        self.deferred_touches.pop(key, None)

    # -- digests --------------------------------------------------------------------

    def snapshot_digest(self) -> str:
        """SHA-256 over each set's (line, dirty) list, MRU first, a "|" after
        each level, then the MSHR allocation history. Only the sets a run
        has filled are walked; every other set is written as the empty
        list it holds."""
        parts = []
        for level in (self.l1, self.l2):
            dirty, data = level.dirty, level.data
            last = -1
            for index in sorted(level.filled):
                parts.append("[]" * (index - last - 1))
                parts.append(repr([(line, line in dirty) for line in data[index]]))
                last = index
            parts.append("[]" * (level.sets - last - 1))
            parts.append("|")
        parts.append(repr(self.mshr_history))
        return hashlib.sha256("".join(parts).encode()).hexdigest()


def replay_log(log: MutationLog, config: CacheConfig | None = None) -> str:
    """Re-apply a mutation log onto a fresh hierarchy and return its digest.

    Used to check log completeness: the replayed digest must equal the live
    state's snapshot_digest.
    """
    state = MemHierState(config or CacheConfig(), log=MutationLog())
    for _, level_no, op, line, _, _, _, _ in log:
        level = state.l1 if level_no == 1 else state.l2
        if op == "fill":
            level.install(line)
        elif op == "evict":
            level.evict(line)
        elif op == "lru_touch":
            level.touch(line)
        elif op == "dirty":
            level.dirty.add(line)
        elif op == "mshr_alloc":
            if level_no == 1:
                state.mshr_history.append(line)
    return state.snapshot_digest()
