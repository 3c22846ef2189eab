import gc

import pytest

from vrcsim import core
from vrcsim.audit import assert_invisibility
from vrcsim.core import CoreConfig, DeadlockError, ProbeSpec
from vrcsim.memhier import CacheConfig
from vrcsim.replay import functional_replay
from vrcsim.slicer import annotate
from vrcsim.trace import SyntheticWorkloadSpec, gen_synthetic
from vrcsim.vp import VpConfig
from vrcsim.vrc import VrcConfig

COLD_A = 0x10_0000
COLD_B = 0x20_0000
MISS_LATENCY = 2 + 20 + 150


def _cfg(policy, **kw):
    return CoreConfig(policy=policy, record_load_timing=True, **kw)


def test_alu_only_trace_identical_across_policies(tb):
    for i in range(100):
        tb.alu(0x1000 + 4 * i, i % 32, "ADD", srcs=(i % 32,), imm=1)
    t = tb.build()
    cycles = set()
    from vrcsim.slicer import AnnotationTable
    for policy in core.POLICIES:
        r = core.run(t, annotations=AnnotationTable(), config=_cfg(policy))
        assert r.committed == 100
        cycles.add(r.cycles)
    assert len(cycles) == 1  # no loads: every policy behaves identically


def test_dom_single_shadowed_miss_timing(tb):
    tb.load(0x10, 1, COLD_A, value=1)
    tb.load(0x14, 2, COLD_B, value=2)
    r = core.run(tb.build(), config=_cfg("DOM"))
    # load0: dispatch 0, address ready 1, issues 1, fills at 1 + full miss
    u0, i0, v0 = r.load_timing[0]
    assert (u0, i0, v0) == (0, 1, 1 + MISS_LATENCY)
    # load1 is shadowed by load0's memory-order shadow, unshadows when load0
    # performs (cycle R), issues its own miss at R, completes at R + 2+20+mem
    u1, i1, v1 = r.load_timing[1]
    assert u1 == v0
    assert i1 == u1
    assert v1 == i1 + MISS_LATENCY


def test_baseline_overlaps_misses(tb):
    tb.load(0x10, 1, COLD_A, value=1)
    tb.load(0x14, 2, COLD_B, value=2)
    rb = core.run(tb.build(), config=_cfg("BASELINE"))
    rd = core.run(tb.build(), config=_cfg("DOM"))
    assert rb.cycles < rd.cycles  # baseline keeps the MLP


def test_oracle_vrc_two_cycles_and_clean_hierarchy(tb):
    tb.load(0x10, 1, COLD_A, value=1)       # older miss casts the shadow
    tb.load(0x14, 2, COLD_B, value=2)       # shadowed miss: oracle recompute
    r = core.run(tb.build(), config=_cfg("ORACLE_VRC"))
    assert r.counters["recomputes"] == 1
    _, issue, ready = r.load_timing[1]
    assert ready - issue == 2
    # the recomputed load never touched the hierarchy
    lines = {rec.line_addr for rec in r.mutation_log}
    assert COLD_B not in lines
    assert r.counters.get("unsound_recomputes", 0) == 0


def test_store_to_load_forwarding_one_cycle(tb):
    tb.load(0x08, 9, COLD_A, value=1)   # stalls commit, keeps the store in SQ
    tb.alu(0x10, 1, "MOV", imm=5)
    tb.store(0x14, 0x40, 5, srcs=(1,))
    tb.load(0x18, 2, 0x40)
    r = core.run(tb.build(), config=_cfg("DOM"))
    assert r.counters["store_forwards"] == 1
    _, issue, ready = r.load_timing[3]
    assert ready == issue + 1
    # the forwarded load is under the older load's shadow, yet forwarding is
    # core-local: no speculative hierarchy mutation may appear
    assert not [rec for rec in r.mutation_log if rec.speculative]
    assert not [rec for rec in r.mutation_log if rec.line_addr == 0x40
                and rec.cause_seq == 3]


def test_architectural_equivalence_all_policies():
    for pattern, seed in (("COMPUTE_STORE_LOAD", 21), ("MIXED", 22),
                          ("POINTER_CHASE", 23), ("STREAM", 24)):
        spec = SyntheticWorkloadSpec(pattern=pattern, count=4000, seed=seed,
                                     recomputable_fraction=0.75)
        t = gen_synthetic(spec)
        table, _ = annotate(t)
        rep = functional_replay(t)
        for policy in core.POLICIES:
            r = core.run(t, annotations=table, config=CoreConfig(policy=policy))
            assert r.committed == len(t)
            assert r.committed_values == rep.results, (pattern, policy)
            assert r.committed_regs == rep.final_regs, (pattern, policy)


def test_secure_policies_have_no_speculative_mutations():
    spec = SyntheticWorkloadSpec(pattern="MIXED", count=5000, seed=31,
                                 recomputable_fraction=0.5)
    t = gen_synthetic(spec)
    table, _ = annotate(t)
    for policy in core.SECURE_POLICIES:
        r = core.run(t, annotations=table, config=CoreConfig(policy=policy))
        assert not [rec for rec in r.mutation_log if rec.speculative], policy
    rb = core.run(t, annotations=table, config=CoreConfig(policy="BASELINE"))
    assert [rec for rec in rb.mutation_log if rec.speculative]


def test_rc_relaxes_load_load_ordering():
    spec = SyntheticWorkloadSpec(pattern="COMPUTE_STORE_LOAD", count=6000,
                                 seed=41, recomputable_fraction=0.0)
    t = gen_synthetic(spec)
    tso = core.run(t, config=CoreConfig(policy="DOM", consistency="TSO"))
    rc = core.run(t, config=CoreConfig(policy="DOM", consistency="RC"))
    assert rc.cycles < tso.cycles
    assert rc.shadow_stats[1] < tso.shadow_stats[1]  # fewer shadows per load


def test_vp_misprediction_replays_dependents(tb):
    # train a load pc on a constant, then change the value: the prediction
    # validates wrong and the dependent chain must still commit corrected
    n = 60
    for i in range(n):
        shadow_addr = 0x40_0000 + i * 4096
        tb.load(0x10, 1, shadow_addr, value=i)          # older miss: shadow
        value = 7 if i < n - 1 else 1234                 # last one breaks
        tb.load(0x14, 2, 0x50_0000 + i * 4096, value=value)
        tb.alu(0x18, 3, "ADD", srcs=(2, 2))
        tb.alu(0x1C, 4, "ADD", srcs=(3,), imm=1)
    t = tb.build()
    rep = functional_replay(t)
    r = core.run(t, config=CoreConfig(policy="VP", vp=VpConfig(seed=3)))
    assert r.counters.get("predicted_loads", 0) > 0
    assert r.counters.get("vp_mispredicts", 0) >= 1
    assert r.counters.get("replayed_ops", 0) >= 1
    assert r.committed_values == rep.results


def test_validation_serialization_program_order():
    spec = SyntheticWorkloadSpec(pattern="COMPUTE_STORE_LOAD", count=6000,
                                 seed=51, recomputable_fraction=1.0)
    t = gen_synthetic(spec)
    r = core.run(t, config=CoreConfig(policy="ORACLE_VP"))
    comps = r.validation_completions
    assert len(comps) > 10
    assert all(s1 < s2 for (s1, _), (s2, _) in zip(comps, comps[1:]))
    assert all(c1 < c2 for (_, c1), (_, c2) in zip(comps, comps[1:]))


def test_probe_requires_mispredicted_branch(tb):
    tb.branch(0x10, srcs=(1,), taken=True, predicted=True)
    tb.nop(0x14)
    with pytest.raises(ValueError, match="mispredicted"):
        core.run(tb.build(), config=_cfg("DOM"),
                 probe=ProbeSpec(branch_seq=0, load_addrs=(0x100,)))
    with pytest.raises(ValueError, match="out of range"):
        core.run(tb.build(), config=_cfg("DOM"),
                 probe=ProbeSpec(branch_seq=9, load_addrs=(0x100,)))


def test_probe_baseline_mutates_secure_does_not(tb):
    tb.alu(0x08, 1, "ADD", srcs=(1,), imm=1)
    tb.branch(0x10, srcs=(1,), taken=True, predicted=False)
    for i in range(30):
        tb.alu(0x20 + 4 * i, 2, "ADD", srcs=(2,), imm=1)
    t = tb.build()
    probe = ProbeSpec(branch_seq=1, load_addrs=(0x60_0000, 0x60_0040))
    for policy, leaks in (("BASELINE", True), ("DOM", False), ("VRC", False)):
        clean = core.run(t, annotations=None if policy != "VRC" else
                         annotate(t)[0], config=CoreConfig(policy=policy))
        probed = core.run(t, annotations=None if policy != "VRC" else
                          annotate(t)[0], config=CoreConfig(policy=policy),
                          probe=probe)
        assert (clean.memhier_digest != probed.memhier_digest) == leaks, policy
        assert clean.committed_values == probed.committed_values


def test_deadlock_detector_fires(tb):
    tb.load(0x10, 1, COLD_A, value=1)
    cfg = CoreConfig(policy="BASELINE", deadlock_cycles=500,
                     cache=CacheConfig(mshrs=0))
    with pytest.raises(DeadlockError, match="no commit"):
        core.run(tb.build(), config=cfg)


def test_deadlock_dump_names_head_state(tb):
    # the load is shadowed by the branch, so DOM delays its miss; once the
    # branch resolves it reissues and stalls on the missing MSHR for good,
    # its memory-order shadow the oldest unresolved one
    tb.branch(0x0)
    tb.load(0x10, 1, COLD_A, value=1)
    cfg = CoreConfig(policy="DOM", deadlock_cycles=500, cache=CacheConfig(mshrs=0))
    with pytest.raises(DeadlockError, match=r"head seq=1 state=NONSPEC;.*"
                                            r"; oldest shadow=M cast by seq=1$"):
        core.run(tb.build(), config=cfg)


def test_empty_trace(tb):
    r = core.run(tb.build(), config=_cfg("DOM"))
    assert r.cycles == 0 and r.committed == 0


def test_vrc_requires_annotations():
    t = gen_synthetic(SyntheticWorkloadSpec(pattern="STREAM", count=100, seed=1))
    with pytest.raises(ValueError, match="requires"):
        core.run(t, config=CoreConfig(policy="VRC"))


def test_exc_fallback_reverts_to_delay(tb):
    # adversarial slice with an out-of-range shift faults in the engine and
    # the load falls back to the plain delayed path, still committing right
    from vrcsim.slicer import AnnotationTable, Slice, SliceInstr, const_op
    tb.load(0x10, 1, COLD_A, value=1)       # shadow caster
    tb.load(0x14, 2, COLD_B, value=77)      # annotated with a faulting slice
    t = tb.build()
    bad = Slice(slice_id=0,
                instrs=(SliceInstr(0, "SHL", (const_op(1), const_op(99))),),
                producer_store_addr=0x999000, producer_store_size=8,
                producer_store_seq=0, producer_store_pc=0x1,
                root_value=0, hist_requirements=(), live_bindings=(),
                immutable=True)
    table = AnnotationTable()
    table.slices[0] = bad
    table.rcmp_sites[0x14] = 0
    table.slice_tags[0] = ((0x999000, 8),)
    r = core.run(t, annotations=table, config=_cfg("VRC"))
    assert r.counters.get("exc_fallbacks", 0) == 1
    assert r.committed == 2
    assert r.committed_values[1] == 77  # fallback load reads the real value


def test_committed_register_state_isolation():
    # slice execution leaves committed state identical to other policies
    spec = SyntheticWorkloadSpec(pattern="COMPUTE_STORE_LOAD", count=5000,
                                 seed=61, recomputable_fraction=1.0)
    t = gen_synthetic(spec)
    table, _ = annotate(t)
    dom = core.run(t, annotations=table, config=CoreConfig(policy="DOM"))
    vrc = core.run(t, annotations=table, config=CoreConfig(policy="VRC"))
    assert vrc.counters["recomputes"] > 0
    assert vrc.committed_regs == dom.committed_regs
    assert vrc.committed_values == dom.committed_values


@pytest.mark.parametrize("consistency", ["TSO", "RC"])
def test_oracle_vrc_full_queue_delays(consistency):
    # dense misses fill the oracle engine's queue; the load that finds it
    # full must delay like VRC does, not overflow the queue
    t = gen_synthetic(SyntheticWorkloadSpec(pattern="STREAM", count=2000, seed=1,
                                            load_density=0.2,
                                            working_set_bytes=4 << 20))
    rep = functional_replay(t)
    r = core.run(t, config=CoreConfig(policy="ORACLE_VRC",
                                      consistency=consistency))
    assert r.committed == len(t)
    assert r.committed_values == rep.results
    assert r.committed_regs == rep.final_regs
    assert assert_invisibility(r.mutation_log).passed
    assert r.counters["recomputes"] > 0
    assert r.counters["delayed_loads"] > 0


def test_cancelled_recompute_reissues_as_real_load():
    # a recomputation still queued when its load unshadows is dropped and
    # the load performs a real access instead
    t = gen_synthetic(SyntheticWorkloadSpec(pattern="COMPUTE_STORE_LOAD",
                                            count=1500, seed=1))
    table, _ = annotate(t)
    rep = functional_replay(t)
    r = core.run(t, annotations=table,
                 config=CoreConfig(policy="VRC", consistency="RC"))
    assert r.counters["cancelled_recomputes"] > 0
    assert r.counters["recompute_done"] < r.counters["recomputes"]
    assert r.committed_values == rep.results
    assert r.committed_regs == rep.final_regs


@pytest.mark.parametrize("consistency", ["TSO", "RC"])
def test_invalidated_recompute_falls_back_to_real_load(consistency):
    # in lossy mode a foreign store resets every slice in bulk, aborting
    # recomputations already queued or running; those loads fall back to
    # delay or reissue and still commit the oracle's values
    t = gen_synthetic(SyntheticWorkloadSpec(pattern="COMPUTE_STORE_LOAD",
                                            count=3000, seed=1))
    table, _ = annotate(t)
    rep = functional_replay(t)
    r = core.run(t, annotations=table,
                 config=CoreConfig(policy="VRC", consistency=consistency,
                                   vrc=VrcConfig(lossy_tags=True)))
    c = r.counters
    aborted = (c["recomputes"] - c["recompute_done"]
               - c.get("cancelled_recomputes", 0) - c.get("exc_fallbacks", 0))
    assert aborted > 0
    assert r.committed_values == rep.results
    assert r.committed_regs == rep.final_regs


def test_runs_leave_no_reference_cycles():
    # a finished simulator is freed by reference counting alone, so its
    # entry ring and O(trace) lists do not wait for the cyclic collector
    t = gen_synthetic(SyntheticWorkloadSpec(pattern="MIXED", count=1000, seed=1))
    table, _ = annotate(t)
    gc.collect()
    gc.disable()
    try:
        for policy in core.POLICIES:
            core.run(t, annotations=table, config=CoreConfig(policy=policy))
            assert gc.collect() == 0, policy
    finally:
        gc.enable()


def test_recompute_waits_for_a_live_leaf_still_in_flight(tb):
    # the slice's live input r4 comes from a missed load that has issued but
    # not filled; the recomputation may not finish before that fill
    tb.load(0x10, 4, COLD_A, value=5)                  # live leaf, unshadowed
    tb.load(0x14, 7, COLD_B, value=0x40)               # shadowed miss
    tb.alu(0x18, 9, "ADD", srcs=(7,), imm=0)           # store address
    tb.alu(0x1C, 5, "ADD", srcs=(4,), imm=1)           # store data
    tb.store(0x20, 0x30_0000, srcs=(5, 9))
    tb.load(0x24, 6, 0x30_0000)                        # passes the store
    t = tb.build()
    table, _ = annotate(t)
    assert 0x24 in table.rcmp_sites
    for policy in ("VRC", "VRC2"):
        r = core.run(t, annotations=table, config=_cfg(policy))
        assert r.counters["recompute_done"] == 1, policy
        assert r.load_timing[5][2] > r.load_timing[0][2], policy
        assert r.committed_values == functional_replay(t).results


def test_entries_are_bounded_by_the_rob(monkeypatch):
    # the core recycles a ring of `rob_size` entries instead of building
    # one per instruction
    built = []

    class CountedEntry(core._Entry):
        __slots__ = ()

        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(core, "_Entry", CountedEntry)
    t = gen_synthetic(SyntheticWorkloadSpec(pattern="MIXED", count=3000, seed=1))
    cfg = CoreConfig()
    r = core.run(t, config=cfg)
    assert r.committed == len(t) == 3000
    assert r.committed_values == functional_replay(t).results
    assert 0 < len(built) <= cfg.rob_size
