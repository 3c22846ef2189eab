import hashlib
import random

import pytest

from vrcsim.audit import MutationRecord
from vrcsim.isa import LINE_BYTES
from vrcsim.memhier import (CacheConfig, L1_HIT, L1_MISS, MSHR_HIT,
                            MemHierState, replay_log)

BIG = 10_000_000


def _drain(mem, now=BIG):
    mem.advance(now)


def test_lookup_classes():
    mem = MemHierState()
    kind, ready = mem.access(0x1000, 0, 0)
    assert kind == L1_MISS and ready is not None
    assert mem.access(0x1000, 1, 1) == (MSHR_HIT, ready)
    _drain(mem)
    assert mem.access(0x1000, BIG, 2) == (L1_HIT, BIG + 2)
    assert mem.access(0x1040, BIG, 3)[0] == L1_MISS


def test_latency_formulas():
    cfg = CacheConfig()
    mem = MemHierState(cfg)
    # cold line: memory access = 2 + 20 + mem_latency
    assert mem.access(0x2000, 100, 0) == (L1_MISS, 100 + 2 + 20 + cfg.mem_latency)
    _drain(mem)
    # resident: 2-cycle hit
    assert mem.access(0x2000, 1000, 1) == (L1_HIT, 1002)
    # L2 hit: evict from L1 by filling 8 more lines in the same set, line stays in L2
    set_stride = cfg.l1_sets * LINE_BYTES
    for i in range(1, 9):
        mem.access(0x2000 + i * set_stride, 2000 + i, 2)
        _drain(mem)
    assert not mem.l1.contains(0x2000) and mem.l2.contains(0x2000)
    assert mem.access(0x2000, 5000, 3) == (L1_MISS, 5000 + 2 + 20)


def test_mshr_coalescing():
    mem = MemHierState()
    _, r1 = mem.access(0x3000, 0, 0)
    assert len(mem.l1_mshr) == 1
    kind, r2 = mem.access(0x3008, 5, 1)  # same line
    assert kind == MSHR_HIT
    assert len(mem.l1_mshr) == 1  # no second allocation
    assert r2 == r1  # waiters wake at the fill


def test_mshr_exhaustion_stalls():
    mem = MemHierState(CacheConfig(mshrs=1))
    _, ready = mem.access(0x1000, 0, 0)
    assert ready is not None
    assert mem.access(0x9000, 0, 1) == (L1_MISS, None)  # changed nothing
    assert list(mem.l1_mshr) == [0x1000] and mem.l1_misses == 1


def test_mem_fills_count_the_memory_bound_mshrs():
    mem = MemHierState()
    mem.access(0x2000, 0, 0)
    assert mem.mem_fills == 1 == sum(not e.l2_hit for e in mem.l1_mshr.values())
    _drain(mem)
    assert mem.mem_fills == 0 and not mem.l1_mshr


def test_config_rejects_negative_latencies_and_mshrs():
    for name in ("l1_latency", "l2_latency", "mem_latency", "mshrs"):
        with pytest.raises(ValueError, match=name):
            CacheConfig(**{name: -1})
    assert CacheConfig(mshrs=0).mshrs == 0  # legal: every miss stalls


@pytest.mark.parametrize("name", ["l1_ways", "l2_ways"])
def test_config_rejects_zero_ways(name):
    with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
        CacheConfig(**{name: 0})


def test_deferred_apply_and_squash():
    mem = MemHierState()
    mem.access(0x1000, 0, 0)
    mem.access(0x1040, 0, 0)
    _drain(mem)
    before = mem.snapshot_digest()
    # a hidden hit defers the LRU update
    assert mem.hidden_access(0x1000, 100, "a") == (L1_HIT, 102)
    assert mem.snapshot_digest() == before
    mem.squash_deferred("a")
    assert mem.snapshot_digest() == before
    # now defer and apply: line becomes MRU
    mem.hidden_access(0x1000, 200, "b")
    mem.apply_deferred("b", 210, 2)
    assert mem.l1.data[mem.l1.set_index(0x1000)][0] == 0x1000


def test_deferred_order_preserving():
    cfg = CacheConfig()
    mem = MemHierState(cfg)
    lines = [0x1000 + i * cfg.l1_sets * LINE_BYTES for i in range(3)]
    for ln in lines:
        mem.access(ln, 0, 0)
        _drain(mem)
    mem.hidden_access(lines[0], 100, "k1")
    mem.hidden_access(lines[1], 101, "k2")
    mem.apply_deferred("k1", 110, 1)
    mem.apply_deferred("k2", 111, 2)
    s = mem.l1.data[mem.l1.set_index(lines[0])]
    assert s[0] == lines[1] and s[1] == lines[0]  # application order = LRU order


def _counts(mem):
    return (mem.l1_hits, mem.l1_misses, mem.mshr_hits, mem.l2_hits,
            mem.mem_accesses, len(mem.log), len(mem.l1_mshr),
            dict(mem.deferred_touches))


def test_hidden_access_only_hits_or_rides():
    cfg = CacheConfig()
    mem = MemHierState(cfg)
    stride = cfg.l1_sets * LINE_BYTES
    mem.access(0x1000, 0, 0)
    mem.access(0x1000 + stride, 0, 0)  # same set, now MRU
    _drain(mem)
    # hit: 2-cycle ready, counted, LRU touch deferred until applied
    before, hits = mem.snapshot_digest(), mem.l1_hits
    assert mem.hidden_access(0x1000, 100, "h") == (L1_HIT, 102)
    assert mem.l1_hits == hits + 1
    assert mem.snapshot_digest() == before
    mem.apply_deferred("h", 110, 1)
    assert mem.snapshot_digest() != before
    assert mem.l1.data[mem.l1.set_index(0x1000)][0] == 0x1000
    # ride on an in-flight fill: the fill cycle, nothing counted
    _, fill = mem.access(0x9000, 200, 2)
    counts = _counts(mem)
    assert mem.hidden_access(0x9008, 201, "r") == (MSHR_HIT, fill)
    assert _counts(mem) == counts
    # true miss: refused, leaves no MSHR, record, counter or deferred touch
    digest = mem.snapshot_digest()
    assert mem.hidden_access(0xA000, 202, "m") == (L1_MISS, None)
    assert _counts(mem) == counts and mem.snapshot_digest() == digest
    assert "m" not in mem.deferred_touches


def test_store_write_allocate_dirty():
    mem = MemHierState()
    mem.access(0x4000, 0, 0, store=True)
    _drain(mem)
    line = 0x4000
    assert line in mem.l1.dirty
    # store hit sets dirty on a clean resident line
    mem.access(0x5000, 0, 1)
    _drain(mem)
    mem.access(0x5000, 100, 2, store=True)
    assert 0x5000 in mem.l1.dirty


def test_inclusive_eviction_logs_l1_evict():
    cfg = CacheConfig(l1_bytes=512, l1_ways=8, l2_bytes=512, l2_ways=8,
                      mem_latency=10)
    mem = MemHierState(cfg)
    for i in range(9):
        mem.access(0x1000 + i * 64, i * 1000, i)
        _drain(mem)
    evicts = [r for r in mem.log if r.level == 1 and r.op == "evict"]
    assert evicts, "L2 eviction must drop the L1 copy"
    assert not mem.l1.contains(0x1000)


def test_snapshot_digests():
    a, b = MemHierState(), MemHierState()
    assert a.snapshot_digest() == b.snapshot_digest()
    a.access(0x1000, 0, 0)
    _drain(a)
    assert a.snapshot_digest() != b.snapshot_digest()
    b.access(0x1000, 0, 0)
    _drain(b)
    assert a.snapshot_digest() == b.snapshot_digest()


def test_log_replay_reproduces_digest():
    mem = MemHierState()
    rng = random.Random(42)
    now = 0
    for _ in range(300):
        addr = rng.randrange(0, 1 << 20) & ~7
        now += rng.randrange(1, 300)
        mem.access(addr, now, 0, store=rng.random() < 0.3)
        mem.advance(now)
    _drain(mem)
    assert replay_log(mem.log, mem.config) == mem.snapshot_digest()


def _per_set_digest(mem) -> str:
    """The digest hashed one set at a time: each set's (line, dirty) list,
    a "|" after each level, then the MSHR allocation history."""
    h = hashlib.sha256()
    for level in (mem.l1, mem.l2):
        for s in level.data:
            h.update(repr([(line, line in level.dirty) for line in s]).encode())
        h.update(b"|")
    h.update(repr(mem.mshr_history).encode())
    return h.hexdigest()


def test_snapshot_digest_matches_per_set_formulation():
    mem = MemHierState()
    assert mem.snapshot_digest() == _per_set_digest(mem)
    rng = random.Random(7)
    now = 0
    for _ in range(3000):
        now += rng.randrange(1, 50)
        mem.access(rng.randrange(0, 1 << 22) & ~7, now, 0,
                   store=rng.random() < 0.4)
        mem.advance(now)
    _drain(mem)
    # dirty lines at both levels (L1 write-backs), full and empty sets
    assert mem.l1.dirty and mem.l2.dirty
    assert any(not s for s in mem.l2.data)
    assert any(len(s) == mem.l1.ways for s in mem.l1.data)
    assert mem.snapshot_digest() == _per_set_digest(mem)
    assert replay_log(mem.log, mem.config) == mem.snapshot_digest()


# ---------------------------------------------------------------------------
# differential test against an independent textbook write-back LRU model

class NaiveLevel:
    def __init__(self, sets, ways, line):
        self.sets = [[] for _ in range(sets)]
        self.ways = ways
        self.line = line
        self.dirty = set()

    def index(self, addr):
        return (addr // self.line) % len(self.sets)

    def probe(self, line):
        return line in self.sets[self.index(line)]

    def touch(self, line):
        s = self.sets[self.index(line)]
        s.remove(line)
        s.insert(0, line)

    def fill(self, line):
        s = self.sets[self.index(line)]
        victim, victim_dirty = None, False
        if len(s) >= self.ways:
            victim = s.pop()
            victim_dirty = victim in self.dirty
            self.dirty.discard(victim)
        s.insert(0, line)
        return victim, victim_dirty


class NaiveHierarchy:
    """Instant-fill inclusive two-level write-back model."""

    def __init__(self, cfg: CacheConfig):
        self.cfg = cfg
        self.l1 = NaiveLevel(cfg.l1_sets, cfg.l1_ways, LINE_BYTES)
        self.l2 = NaiveLevel(cfg.l2_sets, cfg.l2_ways, LINE_BYTES)

    def access(self, addr, store=False):
        line = addr - addr % LINE_BYTES
        if self.l1.probe(line):
            kind = "hit"
            self.l1.touch(line)
        else:
            if self.l2.probe(line):
                kind = "l2hit"
                self.l2.touch(line)
            else:
                kind = "miss"
                victim2, _ = self.l2.fill(line)
                if victim2 is not None and self.l1.probe(victim2):
                    self.l1.sets[self.l1.index(victim2)].remove(victim2)
                    self.l1.dirty.discard(victim2)
            victim, victim_dirty = self.l1.fill(line)
            if victim is not None and victim_dirty and self.l2.probe(victim):
                self.l2.dirty.add(victim)
        if store:
            self.l1.dirty.add(line)
        return kind


def test_differential_vs_naive_lru():
    cfg = CacheConfig(l1_bytes=4096, l1_ways=4, l2_bytes=16384, l2_ways=8,
                      mem_latency=50)
    mem = MemHierState(cfg)
    naive = NaiveHierarchy(cfg)
    rng = random.Random(7)
    now = 0
    for i in range(4000):
        addr = (rng.randrange(0, 512) * 64) + (rng.randrange(8) * 8)
        store = rng.random() < 0.3
        now += 1000  # fills complete between accesses
        mem.advance(now)
        l2_hit = mem.l2.contains(addr - addr % LINE_BYTES)
        expected = naive.access(addr, store=store)
        kind, _ = mem.access(addr, now, i, store=store)
        got = {L1_HIT: "hit", MSHR_HIT: "mshr",
               L1_MISS: ("l2hit" if l2_hit else "miss")}[kind]
        assert got == expected, f"access {i} to {addr:#x}: {got} != {expected}"
    _drain(mem)
    for level, nlevel in ((mem.l1, naive.l1), (mem.l2, naive.l2)):
        assert level.data == nlevel.sets
        assert level.dirty == nlevel.dirty


def test_logged_records_are_frozen_mutation_records():
    # each logged record must be a MutationRecord equal to, and hashed
    # like, its keyword-built twin, and immutable
    mem = MemHierState()
    for i in range(40):
        mem.access(i * 4096, i, i, store=i % 3 == 0, speculative=i % 2 == 1)
    _drain(mem)
    assert {r.op for r in mem.log} >= {"mshr_alloc", "fill", "dirty"}
    for r in mem.log:
        assert type(r) is MutationRecord
        twin = MutationRecord(**{f: getattr(r, f) for f in MutationRecord._fields})
        assert r == twin and hash(r) == hash(twin) and repr(r) == repr(twin)
        with pytest.raises(AttributeError):
            r.cycle = 0
