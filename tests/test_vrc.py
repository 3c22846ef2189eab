import random

import pytest

from vrcsim.isa import LINE_BYTES
from vrcsim.slicer import (AnnotationTable, Slice, SliceInstr, const_op,
                           hist_op, live_op, load_annotations, temp_op)
from vrcsim.vrc import VrcConfig, VrcState


def _slice(sid, instrs, *, tag=0x100, pc=0x900, hist=(), live=(),
           immutable=True):
    return Slice(slice_id=sid, instrs=tuple(instrs), producer_store_addr=tag,
                 producer_store_size=8, producer_store_seq=0,
                 producer_store_pc=pc, root_value=0,
                 hist_requirements=tuple(hist), live_bindings=tuple(live),
                 immutable=immutable)


def _table(*slices, rcmp=None, tags=None):
    t = AnnotationTable()
    for s in slices:
        t.slices[s.slice_id] = s
        t.slice_tags[s.slice_id] = tags.get(s.slice_id) if tags else \
            ((s.producer_store_addr, s.producer_store_size),)
    t.rcmp_sites = rcmp or {0x40 + i * 4: s.slice_id for i, s in enumerate(slices)}
    return t


def add_slice(sid=0, **kw):
    return _slice(sid, [SliceInstr(0, "ADD", (const_op(2), const_op(3)))], **kw)


def _step(v, now, units=1, read_live=lambda reg, load_seq: 0):
    """One engine cycle with `units` units of each FU class left; returns
    whether the engine worked. A request that ends on the step at `now`
    has its value delivered at `now + 1`."""
    return v.step(now, [units, units], read_live)


def test_rcmp_decide_matrix():
    table = _table(add_slice(), rcmp={0x40: 0})
    v = VrcState(table, VrcConfig())
    assert v.enqueue(0x99, 1) is False                 # unannotated: delay
    assert v.enqueue(0x40, 2) is True                  # usable slice: recompute
    assert [p.load_seq for p in v.queue] == [2]


def test_rcmp_decide_respects_invalidation():
    table = _table(add_slice(), rcmp={0x40: 0})
    v = VrcState(table, VrcConfig())
    v.invalidate_on_store(0x100, 8, store_pc=0x555)  # foreign store on the tag
    assert v.enqueue(0x40, 1) is False
    assert 0 in v.unusable


def test_own_producer_store_does_not_invalidate():
    table = _table(add_slice(pc=0x900), rcmp={0x40: 0})
    v = VrcState(table, VrcConfig())
    v.invalidate_on_store(0x100, 8, store_pc=0x900)
    assert v.enqueue(0x40, 1) is True


def test_store_spares_every_slice_of_its_producer_pc():
    # two slices whose producer pc is the same and whose tags overlap: the
    # store defines both values, so exact mode invalidates neither of them
    # and lossy mode re-arms both
    a, b = add_slice(0, pc=0x900), add_slice(1, pc=0x900)
    table = _table(a, b, rcmp={0x40: 0, 0x44: 1})
    exact = VrcState(table, VrcConfig())
    exact.invalidate_on_store(0x100, 8, store_pc=0x900)
    assert not exact.unusable and exact.invalidations == 0
    lossy = VrcState(table, VrcConfig(lossy_tags=True))
    lossy.invalidate_on_store(0x100, 8, store_pc=0x900)
    assert not lossy.unusable
    for v in (exact, lossy):
        assert v.enqueue(0x40, 1) is True
        assert v.enqueue(0x44, 2) is True


def test_store_elsewhere_no_effect():
    table = _table(add_slice(), rcmp={0x40: 0})
    v = VrcState(table, VrcConfig())
    v.invalidate_on_store(0x4000, 8, store_pc=0x555)
    assert not v.unusable


# a slice whose one tag, [0x103c, 0x1044), spans the lines at 0x1000 and
# 0x1040
TWO_LINE_TAG = """A version=1
S slice_id=0 tag=0x103c size=8 seq=0 ppc=0x900 root=0x5 immutable=1 len=1
  P pos=0 op=MOV a=C:0x5
  T addr=0x103c size=8
R pc=0x40 slice=0
"""


def test_tag_is_found_on_every_line_it_touches():
    v = VrcState(load_annotations(TWO_LINE_TAG), VrcConfig())
    v.invalidate_on_store(0x1044, 8, store_pc=0x555)   # just past the tag
    assert not v.unusable
    v.invalidate_on_store(0x1040, 8, store_pc=0x555)   # its second line
    assert v.unusable == {0} and v.invalidations == 1
    assert v.enqueue(0x40, 1) is False


def _scan_invalidate(v, unusable, addr, size, store_pc):
    """Exact-mode invalidation as a scan of every slice's tags: the
    reference for the per-line index. Returns the slices it invalidates."""
    hits = 0
    for sid, ranges in v.table.slice_tags.items():
        if sid in v.ibuff and sid not in unusable \
                and v.ibuff[sid].producer_store_pc != store_pc \
                and any(addr < t + n and t < addr + size for t, n in ranges):
            unusable.add(sid)
            hits += 1
    return hits


@pytest.mark.parametrize("seed", range(20))
def test_indexed_invalidation_equals_a_scan_of_every_tag(seed):
    # a few lines, tags and stores of 1-8 bytes at any offset (a tag may
    # span two lines), some slices mutable and so not in IBuff, and store
    # pcs that are sometimes a slice's own producer pc
    rng = random.Random(seed)
    base, pcs = 0x4000, (0x900, 0x904, 0x908, 0x555)
    slices, tags = [], {}
    for sid in range(12):
        slices.append(add_slice(sid, pc=rng.choice(pcs[:3]),
                                immutable=rng.random() < 0.8))
        tags[sid] = tuple((base + rng.randrange(4 * LINE_BYTES), rng.randint(1, 8))
                          for _ in range(rng.randint(1, 3)))
    v = VrcState(_table(*slices, tags=tags), VrcConfig())
    unusable, invalidations = set(), 0
    for _ in range(40):
        addr, size = base + rng.randrange(-8, 4 * LINE_BYTES), rng.randint(1, 8)
        pc = rng.choice(pcs)
        v.invalidate_on_store(addr, size, store_pc=pc)
        invalidations += _scan_invalidate(v, unusable, addr, size, pc)
        assert v.unusable == unusable and v.invalidations == invalidations
    assert invalidations > 0


def test_mutable_slice_not_loaded_by_default():
    table = _table(add_slice(immutable=False), rcmp={0x40: 0})
    v = VrcState(table, VrcConfig())
    assert v.enqueue(0x40, 1) is False
    v2 = VrcState(table, VrcConfig(allow_mutable=True))
    assert v2.enqueue(0x40, 1) is True


def test_queue_full_delays():
    table = _table(add_slice(), rcmp={0x40: 0})
    v = VrcState(table, VrcConfig(queue_depth=1))
    assert v.enqueue(0x40, 10) is True
    assert v.enqueue(0x40, 11) is False
    assert v.enqueue(0x40, 12, oracle_value=5) is False  # oracle requests too
    assert len(v.queue) == 1


def test_single_add_slice_two_cycles():
    v = VrcState(_table(add_slice(), rcmp={0x40: 0}), VrcConfig())
    assert v.enqueue(0x40, 10)
    assert _step(v, 100) and not v.ended               # starts this cycle
    assert _step(v, 101)
    assert v.ended == [(10, 5)]                        # 1 FU + 1 delivery: 102
    assert v.total_slice_cycles == 102 - 100


def test_mul_add_slice_five_cycles():
    s = _slice(0, [SliceInstr(0, "MUL", (const_op(3), const_op(4))),
                   SliceInstr(1, "ADD", (temp_op(0), const_op(1)))])
    v = VrcState(_table(s, rcmp={0x40: 0}), VrcConfig())
    assert v.enqueue(0x40, 1)
    for now in range(50, 54):
        assert _step(v, now) and not v.ended
    assert _step(v, 54)
    assert v.ended == [(1, 13)]                        # 3 + 1 + 1: at 55


def test_seven_add_slice_eight_cycles():
    instrs = [SliceInstr(0, "ADD", (const_op(1), const_op(1)))]
    for i in range(1, 7):
        instrs.append(SliceInstr(i, "ADD", (temp_op(i - 1), const_op(1))))
    v = VrcState(_table(_slice(0, instrs), rcmp={0x40: 0}), VrcConfig())
    assert v.enqueue(0x40, 1)
    for now in range(7):
        assert _step(v, now) and not v.ended
    assert _step(v, 7)
    assert v.ended == [(1, 8)] and v.total_slice_cycles == 8


def test_fu_contention_stalls_engine():
    v = VrcState(_table(add_slice(), rcmp={0x40: 0}), VrcConfig())
    assert v.enqueue(0x40, 1)
    # no ALU left this cycle: busy without consuming the instruction
    assert _step(v, 0, units=0)
    assert v.active.cycles_into_instr == 0
    budget = [1, 1]
    assert v.step(1, budget, lambda reg, load_seq: 0)
    assert budget == [0, 1]                            # the ADD took an ALU
    assert _step(v, 2, units=0)                        # delivery takes no unit
    assert v.ended == [(1, 5)]                         # at 3


def test_clamped_latency_two_cycles():
    instrs = [SliceInstr(0, "MUL", (const_op(3), const_op(4))),
              SliceInstr(1, "ADD", (temp_op(0), const_op(1)))]
    v = VrcState(_table(_slice(0, instrs), rcmp={0x40: 0}),
                 VrcConfig(), "VRC2")
    assert v.enqueue(0x40, 1)
    # the clamp claims no functional unit
    assert _step(v, 10, units=0) and not v.ended
    assert _step(v, 11, units=0)
    assert v.ended == [(1, 13)]                        # at 12


def test_oracle_pseudo_slice():
    v = VrcState(AnnotationTable(), VrcConfig())
    assert v.enqueue(0x99, 5, oracle_value=777)   # needs no slice
    assert _step(v, 20, units=0) and not v.ended
    assert _step(v, 21)
    assert v.ended == [(5, 777)]                  # at 22
    assert v.busy_cycles == 2 and v.struct_accesses == 0


def test_arithmetic_fault_falls_back():
    s = _slice(0, [SliceInstr(0, "SHL", (const_op(1), const_op(70)))])
    v = VrcState(_table(s, rcmp={0x40: 0}), VrcConfig())
    assert v.enqueue(0x40, 1)
    assert _step(v, 0)                          # busy for its last cycle
    assert v.ended == [(1, None)] and v.faults == 1
    v.ended.clear()
    assert not _step(v, 1)
    assert v.completed == 0


def test_live_operand_stalls_until_ready():
    s = _slice(0, [SliceInstr(0, "ADD", (live_op(4), const_op(1)))],
               live=((4, -1, 9),))
    ready = {"v": None}

    def read_live(reg, load_seq):
        assert (reg, load_seq) == (4, 1)
        return ready["v"]

    v = VrcState(_table(s, rcmp={0x40: 0}), VrcConfig())
    assert v.enqueue(0x40, 1)
    assert _step(v, 0, read_live=read_live)     # producer not run yet
    assert _step(v, 1, read_live=read_live)
    assert v.busy_cycles == 0
    ready["v"] = 9
    assert _step(v, 2, read_live=read_live)     # FU cycle
    assert _step(v, 3, read_live=read_live)
    assert v.ended == [(1, 10)]


def test_hist_gating_and_checkpoint():
    key = (0x900, 0)
    s = _slice(0, [SliceInstr(0, "ADD", (hist_op(key), const_op(1)))],
               hist=((key, 3, 41),))
    table = _table(s, rcmp={0x40: 0})
    v = VrcState(table, VrcConfig())
    assert v.enqueue(0x40, 1) is False          # no hist yet
    v.rec_checkpoint(key, 41)
    assert v.hist_inserts == 1
    assert v.enqueue(0x40, 1) is True
    _step(v, 0)
    _step(v, 1)
    assert v.ended == [(1, 42)]


def test_hist_overflow_marks_unavailable():
    key1, key2 = (0x900, 0), (0x904, 0)
    s = _slice(0, [SliceInstr(0, "ADD", (hist_op(key2), const_op(1)))],
               hist=((key2, 3, 1),))
    v = VrcState(_table(s, rcmp={0x40: 0}), VrcConfig(hist_capacity=1))
    v.rec_checkpoint(key1, 5)
    v.rec_checkpoint(key2, 6)
    assert (v.hist_inserts, v.hist_overflows) == (1, 1)
    assert v.enqueue(0x40, 1) is False
    v.rec_checkpoint(key1, 7)                # overwrite stays fine
    assert (v.hist_inserts, v.hist_overflows) == (1, 1)
    assert v.hist == {key1: 7}


def test_cancel_queued():
    v = VrcState(_table(add_slice(), rcmp={0x40: 0}), VrcConfig())
    assert v.enqueue(0x40, 1)
    assert v.cancel_queued(1) is True
    assert v.cancel_queued(1) is False
    assert not _step(v, 0) and not v.ended


def test_queued_entry_invalidated_before_start_aborts():
    table = _table(add_slice(), rcmp={0x40: 0})
    v = VrcState(table, VrcConfig())
    assert v.enqueue(0x40, 1)
    v.invalidate_on_store(0x100, 8, store_pc=0x555)
    assert not _step(v, 0)                      # the pop falls back
    assert v.ended == [(1, None)] and v.faults == 0   # invalidated


def test_lossy_signature_bulk_reset_and_rearm():
    a, b = add_slice(0, tag=0x100, pc=0x900), add_slice(1, tag=0x2000, pc=0x904)
    table = _table(a, b, rcmp={0x40: 0, 0x44: 1})
    v = VrcState(table, VrcConfig(lossy_tags=True))
    # lossy mode starts disarmed; producer commits repopulate
    assert v.enqueue(0x40, 1) is False
    v.invalidate_on_store(0x100, 8, store_pc=0x900)
    v.invalidate_on_store(0x2000, 8, store_pc=0x904)
    assert v.enqueue(0x40, 2) is True
    assert v.enqueue(0x44, 3) is True
    assert _step(v, 0) and not v.ended          # slice 0 runs for load 2
    # a foreign store into a signed line resets everything in bulk and
    # aborts the running slice
    v.invalidate_on_store(0x2008, 8, store_pc=0x555)
    assert v.ended == [(2, None)] and v.active is None
    assert v.enqueue(0x40, 4) is False
    assert v.enqueue(0x44, 5) is False
    v.invalidate_on_store(0x100, 8, store_pc=0x900)   # repopulates slice 0
    assert v.enqueue(0x40, 6) is True


def test_mean_slice_cycles():
    v = VrcState(_table(add_slice(), rcmp={0x40: 0}), VrcConfig())
    assert v.mean_slice_cycles() is None
    assert v.enqueue(0x40, 1)
    _step(v, 0)
    _step(v, 1)
    assert v.mean_slice_cycles() == 2.0
