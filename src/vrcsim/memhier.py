"""Two-level cache hierarchy with MSHRs, write-back write-allocate stores,
deferred replacement updates for hidden hits, and full mutation logging.

Every load, store commit and wrong-path probe is one `access` call, and the
hierarchy applies the Delay-on-Miss rule: a hidden access (a shadowed load or
probe under a secure policy) may hit, its LRU update queued until the load
leaves speculation or dropped if it is squashed, or ride an in-flight fill; a
true miss is refused and changes nothing.

Timing: an L1 hit returns in 2 cycles, an L2 hit in 2+20, a memory access in
2+20+mem_latency. Fills install the line at the ready cycle (memory fills
install into L2 and L1 together); the hierarchy is inclusive, so an L2
eviction also evicts any L1 copy.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass

from .audit import MutationLog, MutationRecord, Structure
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
        for name in ("l1_latency", "l2_latency", "mem_latency", "mshrs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for total, ways in ((self.l1_bytes, self.l1_ways), (self.l2_bytes, self.l2_ways)):
            sets = total // (LINE_BYTES * ways)
            if sets <= 0 or sets & (sets - 1):
                raise ValueError("cache size must give a power-of-two set count")

    @property
    def l1_sets(self) -> int:
        return self.l1_bytes // (LINE_BYTES * self.l1_ways)

    @property
    def l2_sets(self) -> int:
        return self.l2_bytes // (LINE_BYTES * self.l2_ways)

    def miss_latency(self, l2_hit: bool) -> int:
        if l2_hit:
            return self.l1_latency + self.l2_latency
        return self.l1_latency + self.l2_latency + self.mem_latency


L1_HIT = "L1_HIT"
MSHR_HIT = "MSHR_HIT"
L1_MISS = "L1_MISS"


class _RecordDraft:
    """Builds a MutationRecord with plain slot stores instead of the frozen
    dataclass `__init__`, which pays one `object.__setattr__` call per
    field; the slots match MutationRecord's, so the finished draft becomes
    one by class assignment, equal, hashed and frozen like one built by
    keyword."""

    __slots__ = MutationRecord.__slots__

    def __init__(self, cycle, structure, level, op, line_addr, victim_addr,
                 cause_seq, speculative, probe):
        self.cycle = cycle
        self.structure = structure
        self.level = level
        self.op = op
        self.line_addr = line_addr
        self.victim_addr = victim_addr
        self.cause_seq = cause_seq
        self.speculative = speculative
        self.probe = probe
        self.__class__ = MutationRecord


class _Level:
    """One set-associative level; per-set line lists are MRU-first."""

    def __init__(self, sets: int, ways: int):
        self.sets = sets
        self.ways = ways
        self.data: list[list[int]] = [[] for _ in range(sets)]
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
        s = self.data[self.set_index(line)]
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
        self._fills: list[tuple[int, int, int]] = [] # (ready, order, line)
        self._fill_order = 0
        self.deferred_touches: dict[object, list[int]] = {}  # key -> lines to touch
        self.mshr_history: list[int] = []            # allocation order, both levels
        # counters
        self.l1_hits = 0
        self.l1_misses = 0
        self.mshr_hits = 0
        self.l2_hits = 0
        self.mem_accesses = 0

    # -- helpers ---------------------------------------------------------------

    def line_of(self, addr: int) -> int:
        return addr - (addr % LINE_BYTES)

    def _record(self, now: int, structure: Structure, level: int, op: str,
                line: int, cause_seq: int, speculative: bool, probe: bool,
                victim: int | None = None) -> None:
        self.log.append(_RecordDraft(now, structure, level, op, line, victim,
                                     cause_seq, speculative, probe))

    # -- accesses ---------------------------------------------------------------

    def access(self, addr: int, now: int, cause_seq: int, *, store: bool = False,
               speculative: bool = False, probe: bool = False,
               hide_key: object = None) -> tuple[str, int | None]:
        """A load, or a committed store (write-allocate, write-back). Returns
        (kind, ready cycle); ready is None when the access changed nothing:
        no MSHR was free (the caller retries) or a hidden miss was refused.
        A hidden access (`hide_key` set) only hits, its LRU touch deferred
        under `hide_key`, or rides an in-flight fill, counting nothing here."""
        line = self.line_of(addr)
        hit_ready = now + self.config.l1_latency
        if self.l1.contains(line):
            self.l1_hits += 1
            if hide_key is not None:
                self.deferred_touches.setdefault(hide_key, []).append(line)
                return L1_HIT, hit_ready
            self.l1.touch(line)
            self._record(now, Structure.L1_LRU, 1, "lru_touch", line,
                         cause_seq, speculative, probe)
            if store and line not in self.l1.dirty:
                self.l1.dirty.add(line)
                self._record(now, Structure.L1_DIRTY, 1, "dirty", line,
                             cause_seq, speculative, probe)
            return L1_HIT, hit_ready
        entry = self.l1_mshr.get(line)
        if entry is not None:
            if hide_key is None:
                self.mshr_hits += 1
                entry.dirty_on_fill |= store
            return MSHR_HIT, max(hit_ready, entry.ready)
        l2_hit = self.l2.contains(line)
        if hide_key is not None or len(self.l1_mshr) >= self.config.mshrs or \
                (not l2_hit and self.mem_fills >= self.config.mshrs):
            return L1_MISS, None
        self.l1_misses += 1
        ready = now + self.config.miss_latency(l2_hit)
        self._alloc_mshr(line, ready, l2_hit, dirty=store, now=now,
                         cause_seq=cause_seq, speculative=speculative, probe=probe)
        return L1_MISS, ready

    def _alloc_mshr(self, line: int, ready: int, l2_hit: bool, dirty: bool,
                    now: int, cause_seq: int, speculative: bool, probe: bool) -> None:
        self.l1_mshr[line] = _Mshr(ready=ready, l2_hit=l2_hit, dirty_on_fill=dirty,
                                   cause_seq=cause_seq, speculative=speculative)
        self.mshr_history.append(line)
        self._record(now, Structure.MSHR, 1, "mshr_alloc", line, cause_seq,
                     speculative, probe)
        if l2_hit:
            self.l2_hits += 1
            self.l2.touch(line)
            self._record(now, Structure.L2_LRU, 2, "lru_touch", line, cause_seq,
                         speculative, probe)
        else:
            self.mem_accesses += 1
            self.mem_fills += 1
            self._record(now, Structure.MSHR, 2, "mshr_alloc", line, cause_seq,
                         speculative, probe)
        heapq.heappush(self._fills, (ready, self._fill_order, line))
        self._fill_order += 1

    # -- fill processing -----------------------------------------------------------

    def next_fill_cycle(self) -> int | None:
        return self._fills[0][0] if self._fills else None

    def advance(self, now: int) -> None:
        """Apply every fill due at or before `now`."""
        while self._fills and self._fills[0][0] <= now:
            ready, _, line = heapq.heappop(self._fills)
            entry = self.l1_mshr.pop(line)
            spec = entry.speculative
            if not entry.l2_hit:
                self.mem_fills -= 1
                victim, victim_dirty = self.l2.install(line)
                self._record(ready, Structure.L2_TAG, 2, "fill", line,
                             entry.cause_seq, spec, False, victim=victim)
                if victim is not None and self.l1.evict(victim):
                    # inclusive hierarchy: L2 eviction removes the L1 copy
                    self._record(ready, Structure.L1_TAG, 1, "evict", victim,
                                 entry.cause_seq, spec, False)
            victim, victim_dirty = self.l1.install(line)
            self._record(ready, Structure.L1_TAG, 1, "fill", line,
                         entry.cause_seq, spec, False, victim=victim)
            if victim is not None and victim_dirty and self.l2.contains(victim):
                # write-back marks the L2 copy dirty without promoting it
                self.l2.dirty.add(victim)
                self._record(ready, Structure.L2_DIRTY, 2, "dirty", victim,
                             entry.cause_seq, spec, False)
            if entry.dirty_on_fill:
                self.l1.dirty.add(line)
                self._record(ready, Structure.L1_DIRTY, 1, "dirty", line,
                             entry.cause_seq, spec, False)

    # -- deferred replacement -----------------------------------------------------

    def apply_deferred(self, key: object, now: int, cause_seq: int) -> None:
        """Apply queued LRU updates for a load that left speculation."""
        for line in self.deferred_touches.pop(key, []):
            if self.l1.touch(line):
                self._record(now, Structure.L1_LRU, 1, "lru_touch", line,
                             cause_seq, False, False)

    def squash_deferred(self, key: object) -> None:
        self.deferred_touches.pop(key, None)

    # -- digests --------------------------------------------------------------------

    def snapshot_digest(self) -> str:
        """SHA-256 over each set's (line, dirty) list, MRU first, a "|" after
        each level, then the MSHR allocation history."""
        parts = []
        for level in (self.l1, self.l2):
            dirty = level.dirty
            parts.extend(repr([(line, line in dirty) for line in s]) if s else "[]"
                         for s in level.data)
            parts.append("|")
        parts.append(repr(self.mshr_history))
        return hashlib.sha256("".join(parts).encode()).hexdigest()


def replay_log(log: MutationLog, config: CacheConfig | None = None) -> str:
    """Re-apply a mutation log onto a fresh hierarchy and return its digest.

    Used to check log completeness: the replayed digest must equal the live
    state's snapshot_digest.
    """
    state = MemHierState(config or CacheConfig(), log=MutationLog())
    for r in log:
        level = state.l1 if r.level == 1 else state.l2
        if r.op == "fill":
            level.install(r.line_addr)
        elif r.op == "evict":
            level.evict(r.line_addr)
        elif r.op == "lru_touch":
            level.touch(r.line_addr)
        elif r.op == "dirty":
            level.dirty.add(r.line_addr)
        elif r.op == "mshr_alloc":
            if r.level == 1:
                state.mshr_history.append(r.line_addr)
    return state.snapshot_digest()
