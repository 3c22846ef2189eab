import gc
from dataclasses import replace

import pytest

from vrcsim import core
from vrcsim.audit import assert_invisibility, differential_check
from vrcsim.core import CoreConfig, DeadlockError, ProbeSpec
from vrcsim.memhier import CacheConfig
from vrcsim.replay import functional_replay
from vrcsim.slicer import (AnnotationTable, Slice, SliceInstr, annotate, const_op,
                           temp_op)
from vrcsim.vp import VpConfig
from vrcsim.vrc import VrcConfig
from vrcsim.workloads import PATTERNS, SyntheticWorkloadSpec, TraceBuilder, gen_synthetic

from conftest import random_loop_trace
from test_fingerprints import (DEFAULT_RUNS, REFILE_CORE, RUNS, TIGHT_CORE,
                               UNFILE_CORE, _fingerprint, hand_fu_replay_trace,
                               hand_fu_unfile_trace, hand_paths_trace,
                               hand_pool_refile_trace, hand_replay_trace,
                               hand_sq_fill_trace, traces)

COLD_A = 0x10_0000
COLD_B = 0x20_0000
MISS_LATENCY = 2 + 20 + 150


def _cfg(policy, **kw):
    return CoreConfig(policy=policy, **kw)


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


def store_data_in_flight_trace():
    """A load of a store whose data a MUL has not delivered yet, while a
    miss at the ROB head keeps the store in the store queue."""
    tb = TraceBuilder()
    tb.load(0x00, 1, COLD_A, value=1)           # misses at the ROB head
    tb.alu(0x04, 2, "MOV", imm=3)
    tb.alu(0x08, 3, "MUL", srcs=(2, 2))         # issues at 2, done at 5
    tb.store(0x0C, COLD_B, srcs=(3,))
    tb.load(0x10, 4, COLD_B)                    # forwards at 5
    tb.alu(0x14, 5, "ADD", srcs=(4,), imm=0x1000)
    tb.load(0x18, 6, 0x30_0000)
    return tb.build()


def younger_store_trace():
    """A load that first finds an older store A whose data is a miss in
    flight, then a younger store B of the same bytes, whose address a
    MOV, ADD and MUL make known at 7 and whose data is ready."""
    tb = TraceBuilder()
    tb.load(0x00, 1, COLD_A, value=1)           # misses at the ROB head
    tb.load(0x04, 2, 0x50_0000, value=3)        # A's data, a miss
    tb.store(0x08, COLD_B, srcs=(2,))           # A
    tb.alu(0x0C, 8, "MOV", imm=COLD_B)          # issues at 1, done at 2
    tb.alu(0x10, 9, "ADD", srcs=(8,), imm=0)    # issues at 2, done at 3
    tb.alu(0x14, 9, "MUL", srcs=(9,), imm=1)    # issues at 3, done at 6
    tb.alu(0x18, 10, "MOV", imm=7)
    tb.store(0x1C, COLD_B, srcs=(10, 9))        # B: address known at 7
    tb.load(0x20, 4, COLD_B)                    # forwards from B at 7
    return tb.build()


def no_l1_latency_trace():
    """Under `l1_latency=0` an L1 hit's value is ready in the cycle the load
    issues, whose bucket the issue stage has already popped: the load at
    0x0C hits the line the first miss filled, a real hit under BASELINE and
    a hidden one under DOM (the miss at 0x08 shadows it), and its waiting
    ALU consumer must be filed for the next cycle."""
    tb = TraceBuilder()
    tb.load(0x00, 1, COLD_A, value=3)                   # misses
    tb.alu(0x04, 2, "ADD", srcs=(1,), imm=1)
    tb.load(0x08, 3, COLD_B, value=4, srcs=(2,))        # misses after it
    tb.load(0x0C, 4, COLD_A + 8, value=5, srcs=(2,))    # hits COLD_A's line
    tb.alu(0x10, 5, "ADD", srcs=(4,), imm=1)
    return tb.build()


def test_load_waiting_for_store_data_forwards_when_it_arrives():
    # the load waits in the issue pool for the MUL's value while nothing
    # else is due: a skip over the idle cycles must stop when it arrives,
    # not at the next fill. BASELINE: one miss issued at 1 (172 cycles),
    # then the commit cycle; DOM: load 6 is shadowed by load 0 under TSO
    # and issues its own miss when that one fills at 173
    t = store_data_in_flight_trace()
    for policy, cycles in (("BASELINE", 1 + MISS_LATENCY + 1),
                           ("DOM", 1 + 2 * MISS_LATENCY + 1)):
        r = core.run(t, config=_cfg(policy))
        assert r.cycles == cycles, policy
        assert r.counters["store_forwards"] == 1, policy
        assert r.load_timing[4][2] == 5 + 1, policy   # MUL done at 5, +1
        assert r.committed_values == functional_replay(t).results


def test_load_forwards_from_a_younger_store_once_its_address_is_known():
    # the load that waits for store A's data visits again when store B's
    # address becomes known at 7 and forwards from B: it waits for the
    # youngest older store it knows of, not for A's data at 173. Nine
    # instructions take two commit cycles at width 8
    t = younger_store_trace()
    r = core.run(t, config=_cfg("BASELINE"))
    assert r.load_timing[8][2] == 7 + 1
    assert r.counters["store_forwards"] == 1
    assert r.cycles == 1 + MISS_LATENCY + 2


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


def _fu_ops_without_engine(r):
    c = r.counters
    return sum(c.get(k, 0) for k in ("dispatched_alu", "dispatched_branch",
                                     "replayed_ops"))


def test_fu_ops_counts_each_execution_and_engine_unit(tb):
    # every ALU op and branch takes one unit when it executes, and again per
    # replay; an unclamped slice op takes one per engine cycle it runs (ADD
    # one, MUL three); a VRC2 or oracle request takes none
    tb.load(0x10, 1, COLD_A, value=1)                   # a shadow caster
    tb.load(0x14, 2, COLD_B, value=77)                  # recomputed
    for i in range(6):
        tb.alu(0x18 + 8 * i, 3, "MUL" if i % 3 else "ADD", srcs=(2, 3))
        tb.branch(0x1C + 8 * i, srcs=(3,), taken=bool(i % 2), predicted=True)
    t = tb.build()
    table = AnnotationTable()
    table.slices[0] = Slice(
        slice_id=0, instrs=(SliceInstr(0, "ADD", (const_op(3), const_op(4))),
                            SliceInstr(1, "MUL", (temp_op(0), const_op(11)))),
        producer_store_addr=0x999000, producer_store_size=8,
        producer_store_seq=0, producer_store_pc=0x1, root_value=77,
        hist_requirements=(), live_bindings=(), immutable=True)
    table.rcmp_sites[0x14] = 0
    table.slice_tags[0] = ((0x999000, 8),)
    for policy, engine_units in (("BASELINE", 0), ("DOM", 0), ("VRC", 1 + 3),
                                 ("VRC2", 0), ("ORACLE_VRC", 0)):
        r = core.run(t, annotations=table, config=_cfg(policy))
        assert r.counters["fu_ops"] == _fu_ops_without_engine(r) + engine_units
        if "VRC" in policy:
            assert r.counters["recompute_done"] == 1, policy
    r = core.run(hand_replay_trace(), config=_cfg("VP"))
    assert r.counters["replayed_ops"] > 0
    assert r.counters["fu_ops"] == _fu_ops_without_engine(r)


@pytest.mark.parametrize("consistency", ["TSO", "RC"])
def test_replayed_faulting_op_gives_back_its_iq_entry_and_shadow_once(consistency):
    # each MUL may fault, and a value-prediction replay makes some execute
    # again: the exception shadow resolves (a second resolve raises
    # ShadowError) and the IQ entry is given back at the first execution
    # only, so a finished run holds no IQ entry and no shadow
    t = hand_replay_trace(fault=True)
    oracle = functional_replay(t).results
    for overrides in ({}, TIGHT_CORE):
        cfg = CoreConfig(policy="VP", consistency=consistency, **overrides)
        sim = core._Sim(t, None, cfg, None)
        r = sim.run()
        assert r.counters["replayed_ops"] > 0
        assert r.committed_values == oracle
        assert sim.iq_used == 0
        assert sim.sb.room() == cfg.sb_capacity


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


def test_deadlock_dump_names_an_alu_head_state(tb):
    # an ALU op keeps no entry in flight: the MUL at the head has executed
    # and waits out its latency when a one-cycle bound trips, and the
    # report must still name its state
    tb.alu(0x0, 1, "MOV", imm=3)
    for i in range(4):
        tb.alu(0x4 + 4 * i, 1, "MUL", srcs=(1, 1))
    for i in range(200):
        tb.alu(0x20 + 4 * i, 2 + i % 8, "ADD", srcs=(10,), imm=i)
    cfg = CoreConfig(policy="DOM", deadlock_cycles=1)
    with pytest.raises(DeadlockError, match=r"head seq=1 state=DONE;"):
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


def test_nop_with_sources_reads_nothing(tb):
    # a NOP built with a source register is no consumer of it: the load's
    # wake must not file the NOP, which would commit and then be issued
    tb.load(0x0, 1, COLD_A, value=5)
    tb.nop(0x4, srcs=(1,))
    tb.alu(0x8, 2, "ADD", srcs=(1,), imm=1)
    t = tb.build()
    table, _ = annotate(t)
    rep = functional_replay(t)
    for policy in core.POLICIES:
        r = core.run(t, annotations=table, config=_cfg(policy))
        assert r.committed_values == rep.results, policy
        assert r.committed_regs == rep.final_regs, policy


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


def _shift_site_values(table, t):
    # every checkpoint site records a value one off the run's
    return {seq: [(key, value + 1) for key, value in site]
            for seq, site in table.rec_sites.items()}


def _add_storeless_sites(table, t):
    # every store becomes a checkpoint site of every key, with a value that
    # no store has to checkpoint
    keys = sorted({key for site in table.rec_sites.values() for key, _ in site})
    return {**table.rec_sites,
            **{ins.seq: [(key, 0) for key in keys]
               for ins in t.instructions if ins.kind == "STORE"}}


@pytest.mark.parametrize("tamper", [_shift_site_values, _add_storeless_sites])
def test_hist_checkpoints_the_committed_value(tamper):
    # Hist holds what the run committed at a checkpoint site, not the value
    # the annotation file records there, so a tampered file changes nothing
    t = gen_synthetic(SyntheticWorkloadSpec(pattern="COMPUTE_STORE_LOAD", count=3000,
                                            seed=1, recomputable_fraction=0.75))
    table, _ = annotate(t)
    tampered = replace(table, rec_sites=tamper(table, t))
    assert tampered.rec_sites != table.rec_sites
    oracle = functional_replay(t).results
    for policy in ("VRC", "VRC2"):
        clean = core.run(t, annotations=table, config=_cfg(policy))
        r = core.run(t, annotations=tampered, config=_cfg(policy))
        assert r.committed_values == oracle, policy
        assert r.counters.get("unsound_recomputes", 0) == 0, policy
        assert r.counters["recompute_done"] > 0, policy
        assert (r.cycles, r.memhier_digest, r.counters) == \
            (clean.cycles, clean.memhier_digest, clean.counters), policy


def test_commit_checkpoints_feed_hist():
    # commit hands Hist the committed value of each checkpoint site, a
    # path no golden run reaches; a change to Hist or to checkpoint timing
    # moves these pinned values
    t = gen_synthetic(SyntheticWorkloadSpec(pattern="COMPUTE_STORE_LOAD", count=3000,
                                            seed=1, recomputable_fraction=0.75))
    table, _ = annotate(t)
    pinned = {
        "VRC": (4745, 4, 0, 45, "802cc280d9dec2108ea88da6fe544c75"
                                "adac4af8f5b988f90845ea40777e3af8"),
        "VRC2": (4755, 4, 0, 51, "08e8049d7131cddd78c28992608713f4"
                                 "e4b0de7c8ab3b2ffcbe818549a2d524e"),
    }
    for policy, want in pinned.items():
        r = core.run(t, annotations=table, config=_cfg(policy))
        c = r.counters
        assert (r.cycles, c["hist_inserts"], c["hist_overflows"],
                c["recompute_done"], r.memhier_digest) == want, policy


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


@pytest.mark.parametrize("overrides", [
    {"rob_size": 0, "iq_size": 0}, {"iq_size": 0}, {"lq_size": 0},
    {"sq_size": 0}, {"alu_units": 0}, {"mul_units": 0}, {"mem_ports": 0},
    {"rq_capacity": 0}, {"alu_units": -1}, {"sb_capacity": 1},
    {"redirect_penalty": -1}, {"deadlock_cycles": 0},
], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
def test_config_that_cannot_progress_is_rejected(overrides):
    # each of these stops a run with DeadlockError (or, for the penalty,
    # reads an early redirect as "blocked until the branch resolves")
    with pytest.raises(ValueError, match=next(iter(overrides))):
        CoreConfig(**overrides)


def test_smallest_legal_core_runs_to_completion(tb):
    # one of everything, and a shadow buffer of two: a faulting load under
    # TSO casts its exception and memory-order shadows at once
    smallest = dict(width=1, rob_size=1, iq_size=1, lq_size=1, sq_size=1,
                    alu_units=1, mul_units=1, mem_ports=1, rq_capacity=1,
                    sb_capacity=2, redirect_penalty=0, deadlock_cycles=5_000)
    tb.alu(0x0, 1, "MOV", imm=3)
    tb.load(0x4, 2, COLD_A, fault=True)
    tb.store(0x8, COLD_B, srcs=(1,))
    tb.branch(0xC, srcs=(2,), predicted=False)
    tb.alu(0x10, 3, "MUL", srcs=(1, 2))
    traces = [tb.build()] + [
        gen_synthetic(SyntheticWorkloadSpec(pattern=p, count=300, seed=1))
        for p in PATTERNS]
    for t in traces:
        table, _ = annotate(t)
        for policy in ("DOM", "VP", "VRC"):
            r = core.run(t, annotations=table,
                         config=CoreConfig(policy=policy, **smallest))
            assert r.committed_values == functional_replay(t).results, policy


class _HookedSim(core._Sim):
    """A simulator with a per-cycle test hook, which appends the cycle of
    each of its runs to `hooked`. It also records the run's idle skips,
    from which `assert_hooked_every_cycle` rebuilds the cycles the run
    stepped: the cycle phases are generators that the run makes once and
    resumes once per stepped cycle, so a hook that acts where a phase is
    made, not where it is resumed, runs once per run."""

    def __init__(self, *args):
        super().__init__(*args)
        self.hooked, self.skips = [], []

    def _advance_time(self):
        start = self.now
        super()._advance_time()
        self.skips.append((start, self.now))

    def assert_hooked_every_cycle(self, cycles):
        skipped = {c for start, end in self.skips for c in range(start + 1, end)}
        assert self.hooked == [c for c in range(cycles) if c not in skipped]
        assert len(self.hooked) > 1


class _ResetSlotsSim(_HookedSim):
    """Before each dispatch stage, fully resets every ring slot that the
    stage may take."""

    def _dispatch(self):
        stage = super()._dispatch()
        rob = self.config.rob_size
        while True:
            end = min(self.commit_head + rob, self.n)
            for seq in range(self.next_dispatch, end):
                self.ring[seq % rob].reset(seq, self.trace[seq], self.now)
            self.hooked.append(self.now)
            yield next(stage)


def test_ring_slots_recycle_across_kinds():
    # a four-entry ROB passes every ring slot between kinds all the time;
    # the short dispatch paths of ALU ops and loads write only some fields,
    # and must leave each run as dispatching into fully reset slots does;
    # `reset` must set every field. The load-dense STREAM traces (a fifth
    # of their instructions are loads) run under TSO and RC
    e = core._Entry()
    e.reset(0, None, 0)
    assert all(hasattr(e, name) for name in core._Entry.__slots__)
    small = {"rob_size": 4, "iq_size": 4}
    traces = [gen_synthetic(SyntheticWorkloadSpec(pattern=p, count=600, seed=2))
              for p in PATTERNS]
    traces += [hand_paths_trace(), hand_replay_trace(), hand_fu_replay_trace()]
    cases = [(t, annotate(t)[0], functional_replay(t), "TSO") for t in traces]
    for seed in (2, 3):
        t = gen_synthetic(SyntheticWorkloadSpec(
            pattern="STREAM", count=400, seed=seed, load_density=0.2,
            working_set_bytes=4 << 20))
        cases += [(t, annotate(t)[0], functional_replay(t), consistency)
                  for consistency in ("TSO", "RC")]

    def runs(sim_class):
        for t, table, oracle, consistency in cases:
            for policy in core.POLICIES:
                sim = sim_class(t, table, CoreConfig(
                    policy=policy, consistency=consistency, **small), None)
                r = sim.run()
                assert r.committed_values == oracle.results, policy
                assert r.committed_regs == oracle.final_regs, policy
                yield sim, r

    recycled = [(_fingerprint(r), r.shadow_stats) for _, r in runs(core._Sim)]
    reset = []
    for sim, r in runs(_ResetSlotsSim):
        sim.assert_hooked_every_cycle(r.cycles)
        reset.append((_fingerprint(r), r.shadow_stats))
    assert reset == recycled


def test_ops_waiting_for_a_unit_keep_program_order(tb):
    # more ready ALU ops than ALUs, cycle after cycle: the younger MOVs wait
    # for a unit from cycle 2 on. The older ADD waits on a forwarded load
    # and is ready at cycle 3; it must take a unit ahead of every waiting
    # younger op, so the load whose address it makes issues at cycle 5
    tb.load(0x00, 9, COLD_B, value=1)           # stalls commit, keeps the store
    tb.alu(0x04, 1, "MOV", imm=5)
    tb.store(0x08, 0x40, srcs=(1,))
    tb.load(0x0C, 2, 0x40)                      # forwards at 2, value at 3
    tb.alu(0x10, 3, "ADD", srcs=(2,), imm=1)    # ready at 3, value at 4
    tb.load(0x14, 4, COLD_A, srcs=(3,))         # address ready at 5
    for i in range(40):
        tb.alu(0x18 + 4 * i, 10 + i % 20, "MOV", imm=i)
    t = tb.build()
    r = core.run(t, config=_cfg("BASELINE"))
    assert r.counters["store_forwards"] == 1
    _, issue, ready = r.load_timing[5]
    assert issue == 5
    assert ready == 5 + MISS_LATENCY
    assert r.committed_values == functional_replay(t).results


@pytest.mark.parametrize("consistency", ["TSO", "RC"])
def test_replayed_address_producer_files_a_load_once(consistency):
    # the last load of each iteration waits in the issue pool while a
    # replay resets its address producer, and hits in L1 once it issues: the
    # producer's re-execution must not file it again, or it is visited once
    # more (a second hidden access), after it may have committed
    for seed in range(1, 21):
        t = hand_pool_refile_trace(seed, resident=True)
        rep = functional_replay(t)
        r = core.run(t, config=CoreConfig(policy="VP", consistency=consistency,
                                          **REFILE_CORE))
        assert r.committed_values == rep.results, seed
        assert r.committed_regs == rep.final_regs, seed


class _FiledOnceSim(_HookedSim):
    """Checks after each issue stage that no seq waits twice: in the
    calendar, the issue pool and the FU classes' lists together."""

    def _issue_phase(self):
        for progress in super()._issue_phase():
            waiting = [seq for bucket in self.calendar.values() for seq in bucket]
            waiting += self.issue_pool
            for ops in self.fu_wait:
                waiting += ops
            assert len(waiting) == len(set(waiting)), f"a seq waits twice at {self.now}"
            self.hooked.append(self.now)
            yield progress


def test_no_seq_waits_twice():
    cases = [(t, overrides, consistency) for name, t in traces()
             for _, overrides, consistency, _ in RUNS.get(name, DEFAULT_RUNS)]
    variant = hand_pool_refile_trace(1, resident=True)
    cases += [(variant, REFILE_CORE, "TSO"), (variant, REFILE_CORE, "RC")]
    for t, overrides, consistency in cases:
        table, _ = annotate(t)
        oracle = functional_replay(t).results
        for policy in core.POLICIES:
            cfg = CoreConfig(policy=policy, consistency=consistency, **overrides)
            sim = _FiledOnceSim(t, table, cfg, None)
            r = sim.run()
            assert r.committed_values == oracle, policy
            sim.assert_hooked_every_cycle(r.cycles)


class _SteppedSim(core._Sim):
    """Steps every cycle where `_Sim` skips an idle stretch."""

    def _advance_time(self):
        self.now += 1


def _timing(r):
    # counters are left out: a retry counter counts the cycles a waiting
    # load is visited in, and only stepping visits it in idle cycles
    return (r.cycles, r.memhier_digest, r.mutation_log.export_lines(),
            r.load_timing, r.committed_values, r.committed_regs,
            r.validation_completions, r.shadow_stats)


# a ROB of 16, one memory port and one MSHR
SMALL_CORE = {"rob_size": 16, "iq_size": 8, "lq_size": 4, "sq_size": 2,
              "mem_ports": 1, "cache": CacheConfig(mshrs=1)}


def test_skipping_idle_cycles_equals_stepping_them():
    # a cycle that makes no progress skips to the next one at which
    # something is due; stepping through every cycle must give the same run
    short = (hand_paths_trace(), hand_sq_fill_trace(),
             store_data_in_flight_trace(), younger_store_trace())
    cases = [(t, overrides, consistency) for t in short
             for overrides in ({}, TIGHT_CORE) for consistency in ("TSO", "RC")]
    cases += [(no_l1_latency_trace(), {"cache": CacheConfig(l1_latency=0)},
               consistency) for consistency in ("TSO", "RC")]
    cases += [(hand_fu_replay_trace(), {}, "TSO"),
              (hand_fu_unfile_trace(2), UNFILE_CORE, "TSO"),
              (hand_pool_refile_trace(1), REFILE_CORE, "TSO")]
    cases += [(random_loop_trace(seed), overrides, ("TSO", "RC")[seed % 2])
              for seed in range(20) for overrides in ({}, SMALL_CORE)]
    cases = [(t, overrides, consistency, core.POLICIES)
             for t, overrides, consistency in cases]
    # value-prediction replays that take a waiting op out of a calendar
    # bucket or its FU class's list, re-execute the address producer of a
    # load in the pool, or make a faulting op execute again, while walks
    # carry their unvisited rest into the next cycle's bucket
    replays = [(hand_fu_unfile_trace(seed), UNFILE_CORE) for seed in range(1, 9)]
    replays += [(hand_pool_refile_trace(seed, resident), REFILE_CORE)
                for seed in range(1, 9) for resident in (False, True)]
    replays.append((hand_replay_trace(fault=True), {}))
    cases += [(t, overrides, consistency, ("VP",)) for t, overrides in replays
              for consistency in ("TSO", "RC")]
    for t, overrides, consistency, policies in cases:
        table, _ = annotate(t)
        for policy in policies:
            cfg = CoreConfig(policy=policy, consistency=consistency, **overrides)
            skipped = core._Sim(t, table, cfg, None).run()
            stepped = _SteppedSim(t, table, cfg, None).run()
            assert _timing(skipped) == _timing(stepped), (policy, cfg)


def test_foreign_store_invalidates_a_slice_for_good():
    # the slice for the load at 0x44 recomputes the value its producer
    # store at 0x04 wrote (5); the store at 0x0C writes 7 over it, so its
    # commit must invalidate the slice. The line leaves the 512-byte
    # direct-mapped L1 when T + 4096 fills, so the load, shadowed by the
    # miss before it, misses and asks for a recomputation, and delays
    T = 0x10_0000
    tb = TraceBuilder()
    tb.alu(0x00, 1, "MOV", imm=5)
    tb.store(0x04, T, srcs=(1,))
    tb.alu(0x08, 2, "MOV", imm=7)
    tb.store(0x0C, T, srcs=(2,))
    tb.load(0x10, 6, 0xA0_0000, value=1)                 # misses
    tb.load(0x14, 3, T + 4096, srcs=(6,))                # evicts T
    tb.load(0x18, 4, 0x90_0000, value=2, srcs=(3,))      # misses: a shadow
    tb.load(0x44, 5, T, srcs=(3,))                       # reads 7
    t = tb.build()
    table = AnnotationTable()
    table.slices[0] = Slice(
        slice_id=0, instrs=(SliceInstr(0, "MOV", (const_op(5),)),),
        producer_store_addr=T, producer_store_size=8, producer_store_seq=1,
        producer_store_pc=0x04, root_value=5, hist_requirements=(),
        live_bindings=(), immutable=True)
    table.rcmp_sites[0x44] = 0
    table.slice_tags[0] = ((T, 8),)
    cache = CacheConfig(l1_bytes=512, l1_ways=1)
    for policy in ("VRC", "VRC2"):
        r = core.run(t, annotations=table, config=_cfg(policy, cache=cache))
        assert r.committed_values == functional_replay(t).results, policy
        assert r.counters["slice_invalidations"] == 1, policy
        assert r.counters["rcmp_delay"] == 1, policy
        assert r.counters.get("unsound_recomputes", 0) == 0, policy


# random looped programs (`conftest.random_loop_trace`); a probe reads
# four lines no program touches and the first line of each of the six
# lines the programs use
RANDOM_PROGRAMS = range(30)
RANDOM_PROBE_LINES = tuple(0x7000_0000 + i * 64 for i in range(4)) + tuple(
    0x40_0000 + i * 0x1040 for i in range(6))


@pytest.mark.parametrize("consistency", ("TSO", "RC"))
def test_random_programs_keep_the_run_invariants(consistency):
    # every policy commits the oracle's values and registers and completes
    # its validations in program order; every secure run, clean or probed,
    # is invisible, and a probe at a mispredicted branch leaves the
    # differential audit equal. BASELINE probes must leak somewhere, and
    # some run must validate, or these checks would pass vacuously
    leaks = validated = 0
    for seed in RANDOM_PROGRAMS:
        t = random_loop_trace(seed)
        table, _ = annotate(t)
        rep = functional_replay(t)
        branch = next((ins.seq for ins in t.instructions if ins.kind == "BRANCH"
                       and not ins.br.predicted_correctly), None)
        for policy in core.POLICIES:
            cfg = CoreConfig(policy=policy, consistency=consistency)
            r = core.run(t, annotations=table, config=cfg)
            assert r.committed_values == rep.results, (seed, policy)
            assert r.committed_regs == rep.final_regs, (seed, policy)
            comps = r.validation_completions
            validated += len(comps)
            assert all(s1 < s2 and c1 < c2 for (s1, c1), (s2, c2)
                       in zip(comps, comps[1:])), (seed, policy)
            secure = policy in core.SECURE_POLICIES
            assert not secure or assert_invisibility(r.mutation_log), (seed, policy)
            if branch is None:
                continue
            probed = core.inject_transient_probe(
                t, ProbeSpec(branch_seq=branch, load_addrs=RANDOM_PROBE_LINES),
                annotations=table, config=cfg)
            assert probed.committed_values == rep.results, (seed, policy)
            equal = differential_check(r, probed).equal
            if secure:
                assert equal, (seed, policy)
                assert assert_invisibility(probed.mutation_log), (seed, policy)
            else:
                leaks += not equal
    assert leaks > 0 and validated > 0


@pytest.mark.parametrize("consistency", ("TSO", "RC"))
def test_random_programs_vrc_without_slices_is_dom(consistency):
    for seed in RANDOM_PROGRAMS:
        t = random_loop_trace(seed)
        dom = core.run(t, config=CoreConfig(policy="DOM", consistency=consistency))
        vrc = core.run(t, annotations=AnnotationTable(),
                       config=CoreConfig(policy="VRC", consistency=consistency))
        assert (vrc.cycles, vrc.memhier_digest) == (dom.cycles, dom.memhier_digest), seed


@pytest.mark.parametrize("consistency", ("TSO", pytest.param("RC", marks=pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: under RC a VP that never gains "
                        "confidence still differs from DOM"))))
def test_random_programs_never_confident_vp_is_dom(consistency):
    never = VpConfig(conf_increment_prob=0.0)
    for seed in RANDOM_PROGRAMS:
        t = random_loop_trace(seed)
        dom = core.run(t, config=CoreConfig(policy="DOM", consistency=consistency))
        vp = core.run(t, config=CoreConfig(policy="VP", consistency=consistency,
                                           vp=never))
        assert (vp.cycles, vp.memhier_digest) == (dom.cycles, dom.memhier_digest), seed
