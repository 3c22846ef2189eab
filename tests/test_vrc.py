from vrcsim.slicer import (AnnotationTable, Slice, SliceInstr, const_op,
                           hist_op, live_op, temp_op)
from vrcsim.vrc import BUSY, DONE, IDLE, VrcConfig, VrcState


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
    assert v.step(100) == (BUSY, None)                  # starts this cycle
    status, payload = v.step(101)
    assert status == DONE
    load_seq, value, finish = payload
    assert (load_seq, value, finish) == (10, 5, 102)   # 1 FU + 1 delivery


def test_mul_add_slice_five_cycles():
    s = _slice(0, [SliceInstr(0, "MUL", (const_op(3), const_op(4))),
                   SliceInstr(1, "ADD", (temp_op(0), const_op(1)))])
    v = VrcState(_table(s, rcmp={0x40: 0}), VrcConfig())
    assert v.enqueue(0x40, 1)
    results = [v.step(50 + i) for i in range(5)]
    assert [r[0] for r in results[:4]] == [BUSY] * 4
    status, (load_seq, value, finish) = results[4]
    assert status == DONE and value == 13 and finish == 55  # 3 + 1 + 1


def test_seven_add_slice_eight_cycles():
    instrs = [SliceInstr(0, "ADD", (const_op(1), const_op(1)))]
    for i in range(1, 7):
        instrs.append(SliceInstr(i, "ADD", (temp_op(i - 1), const_op(1))))
    v = VrcState(_table(_slice(0, instrs), rcmp={0x40: 0}), VrcConfig())
    assert v.enqueue(0x40, 1)
    out = [v.step(i) for i in range(8)]
    assert out[-1][0] == DONE
    assert out[-1][1][2] == 8


def test_fu_contention_stalls_engine():
    v = VrcState(_table(add_slice(), rcmp={0x40: 0}), VrcConfig())
    assert v.enqueue(0x40, 1)
    # no ALU slot this cycle: BUSY without consuming the instruction
    assert v.step(0, take_fu=lambda k: False) == (BUSY, None)
    assert v.step(1, take_fu=lambda k: True) == (BUSY, None)
    status, (_, _, finish) = v.step(2, take_fu=lambda k: True)
    assert status == DONE and finish == 3


def test_clamped_latency_two_cycles():
    instrs = [SliceInstr(0, "MUL", (const_op(3), const_op(4))),
              SliceInstr(1, "ADD", (temp_op(0), const_op(1)))]
    v = VrcState(_table(_slice(0, instrs), rcmp={0x40: 0}),
                 VrcConfig(clamp_cycles=2))
    assert v.enqueue(0x40, 1)
    # the clamp claims no functional unit
    assert v.step(10, take_fu=lambda k: False) == (BUSY, None)
    status, (load_seq, value, finish) = v.step(11, take_fu=lambda k: False)
    assert status == DONE and value == 13 and finish == 12


def test_oracle_pseudo_slice():
    v = VrcState(AnnotationTable(), VrcConfig())
    assert v.enqueue(0x99, 5, oracle_value=777)   # needs no slice
    assert v.step(20, take_fu=lambda k: False) == (BUSY, None)
    status, (load_seq, value, finish) = v.step(21)
    assert status == DONE and (load_seq, value, finish) == (5, 777, 22)
    assert v.busy_cycles == 2 and v.struct_accesses == 0


def test_arithmetic_fault_falls_back():
    s = _slice(0, [SliceInstr(0, "SHL", (const_op(1), const_op(70)))])
    v = VrcState(_table(s, rcmp={0x40: 0}), VrcConfig())
    assert v.enqueue(0x40, 1)
    assert v.step(0) == (BUSY, None)
    assert v.fallbacks == [(1, True)]           # faulted
    assert v.step(1) == (IDLE, None)
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
    assert v.step(0, read_live=read_live) == (BUSY, None)  # producer not run yet
    assert v.step(1, read_live=read_live) == (BUSY, None)
    assert v.busy_cycles == 0
    ready["v"] = 9
    assert v.step(2, read_live=read_live) == (BUSY, None)  # FU cycle
    status, (_, value, finish) = v.step(3, read_live=read_live)
    assert status == DONE and value == 10


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
    v.step(0)
    status, (_, value, _) = v.step(1)
    assert status == DONE and value == 42


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
    assert v.step(0) == (IDLE, None)


def test_queued_entry_invalidated_before_start_aborts():
    table = _table(add_slice(), rcmp={0x40: 0})
    v = VrcState(table, VrcConfig())
    assert v.enqueue(0x40, 1)
    v.invalidate_on_store(0x100, 8, store_pc=0x555)
    assert v.step(0) == (IDLE, None)            # the pop falls back
    assert v.fallbacks == [(1, False)]          # invalidated, not faulted


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
    assert v.step(0) == (BUSY, None)            # slice 0 runs for load 2
    # a foreign store into a signed line resets everything in bulk and
    # aborts the running slice
    v.invalidate_on_store(0x2008, 8, store_pc=0x555)
    assert v.fallbacks == [(2, False)] and v.active is None
    assert v.enqueue(0x40, 4) is False
    assert v.enqueue(0x44, 5) is False
    v.invalidate_on_store(0x100, 8, store_pc=0x900)   # repopulates slice 0
    assert v.enqueue(0x40, 6) is True


def test_mean_slice_cycles():
    v = VrcState(_table(add_slice(), rcmp={0x40: 0}), VrcConfig())
    assert v.mean_slice_cycles() is None
    assert v.enqueue(0x40, 1)
    v.step(0)
    v.step(1)
    assert v.mean_slice_cycles() == 2.0
