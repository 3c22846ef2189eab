"""Golden behavioural fingerprints: every policy on every pattern must keep
its cycles, counters, hierarchy digest, mutation log, committed state,
validation order and load timing byte for byte, and the slicer must keep
its annotation bytes and every `SliceStats` field.

A change that alters simulated behaviour on purpose regenerates the golden
file with `PYTHONPATH=src python3 tests/test_fingerprints.py` (which prints
the keys it added, removed and changed) and says why.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import fields
from pathlib import Path

from vrcsim import core
from vrcsim.core import CoreConfig, ProbeSpec
from vrcsim.memhier import CacheConfig
from vrcsim.slicer import annotate, emit_annotations
from vrcsim.vp import VpConfig
from vrcsim.workloads import (PATTERNS, SyntheticWorkloadSpec, TraceBuilder,
                              gen_synthetic)


GOLDEN = Path(__file__).with_name("golden_fingerprints.json")
COUNT = 800
SEED = 1
# a predictor that is confident after one correct prediction, so a load
# pc whose value changes now and then is mispredicted once per change
FAST_VP = VpConfig(conf_bits=1, conf_increment_prob=1.0)
# one ALU and one multiplier behind a near-free L2 and memory
UNFILE_CORE = {"alu_units": 1, "mul_units": 1, "vp": FAST_VP,
               "cache": CacheConfig(l2_latency=2, mem_latency=3)}
# one memory port, issue width 2 and two MSHRs
REFILE_CORE = {"width": 2, "mem_ports": 1, "redirect_penalty": 2, "vp": FAST_VP,
               "cache": CacheConfig(mshrs=2, mem_latency=40)}
# a smaller ROB, IQ, LQ and SQ, an 8-entry shadow buffer and release queue
# and two MSHRs: dispatch often stops on a full shadow buffer
TIGHT_CORE = {"rob_size": 96, "iq_size": 32, "lq_size": 16, "sq_size": 8,
              "sb_capacity": 8, "rq_capacity": 8, "cache": CacheConfig(mshrs=2)}
# (key suffix, `CoreConfig` overrides, consistency, probed policies) per
# trace. MIXED runs a second time with two MSHRs, so loads and store commits
# stall on full MSHRs and shadowed loads ride in-flight fills, and BASELINE is
# probed there; and a third time under RC, where only the value-predicting
# policies cast a shadow for each load. The first three hand-built traces and
# the store-queue one run under TSO and RC, and the first is probed under
# both; the four patterns and those four traces also run on the tight core
# under TSO and RC; HAND_REPLAY_FAULT runs on the default core under TSO
# and RC; HAND_FU_UNFILE and HAND_POOL_REFILE run on the small cores they
# are built for.
DEFAULT_RUNS = (("", {}, "TSO", ()),)
TIGHT_RUNS = ((" tight", TIGHT_CORE, "TSO", ()),
              (" tight RC", TIGHT_CORE, "RC", ()))
RUNS = {"MIXED": (("", {}, "TSO", ("VRC",)),
                  (" mshrs=2", {"cache": CacheConfig(mshrs=2)}, "TSO", ("BASELINE",)),
                  (" RC", {}, "RC", ())) + TIGHT_RUNS,
        "POINTER_CHASE": DEFAULT_RUNS + TIGHT_RUNS,
        "STREAM": DEFAULT_RUNS + TIGHT_RUNS,
        "COMPUTE_STORE_LOAD": DEFAULT_RUNS + TIGHT_RUNS,
        "HAND_PATHS": (("", {}, "TSO", core.POLICIES),
                       (" RC", {}, "RC", core.POLICIES)) + TIGHT_RUNS,
        "HAND_REPLAY": (("", {}, "TSO", ()),
                        (" RC", {}, "RC", ())) + TIGHT_RUNS,
        "HAND_REPLAY_FAULT": (("", {}, "TSO", ()), (" RC", {}, "RC", ())),
        "HAND_FU_REPLAY": (("", {}, "TSO", ()),
                           (" RC", {}, "RC", ())) + TIGHT_RUNS,
        "HAND_SQ_FILL": (("", {}, "TSO", ()),
                         (" RC", {}, "RC", ())) + TIGHT_RUNS,
        "HAND_FU_UNFILE": (("", UNFILE_CORE, "TSO", ()),),
        "HAND_POOL_REFILE": (("", REFILE_CORE, "TSO", ()),)}


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _fingerprint(r: core.RunResult) -> dict:
    return {
        "cycles": r.cycles,
        "counters": _sha(sorted(r.counters.items())),
        "memhier_digest": r.memhier_digest,
        "mutation_log": _sha(r.mutation_log.export_lines()),
        "committed": _sha((r.committed_values, r.committed_regs)),
        "validations": _sha(r.validation_completions),
        "load_timing": _sha(sorted(r.load_timing.items())),
    }


def _probe(t) -> ProbeSpec:
    site = next(ins.seq for ins in t.instructions
                if ins.kind == "BRANCH" and not ins.br.predicted_correctly)
    return ProbeSpec(site, tuple(0x7000_0000 + i * 64 for i in range(8)))


def _slice_fingerprint(table, stats) -> dict:
    out = {"annotations": hashlib.sha256(emit_annotations(table).encode()).hexdigest()}
    for f in fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, Counter):
            value = {getattr(k, "value", k): n for k, n in value.items()}
        out[f.name] = value
    return out


def hand_paths_trace():
    """About twenty instructions through the rare core paths the generator
    never emits: a faulting NOP, load and store; a store whose address waits
    on a missed load times a MUL while a younger load of its data passes it
    (under VRC that load's slice reads a live register whose shadowed load
    is still delayed); and a 4-byte store inside a younger 8-byte load,
    which blocks forwarding until the store commits."""
    tb = TraceBuilder()
    tb.nop(0x00, fault=True)
    tb.alu(0x04, 8, "MOV", imm=3)
    tb.load(0x08, 7, 0x20_0000, value=0x40, fault=True)
    tb.load(0x0C, 4, 0x10_0000, value=5)               # live leaf, shadowed
    tb.alu(0x10, 9, "MUL", srcs=(7, 8))                # store address
    tb.alu(0x14, 5, "ADD", srcs=(4,), imm=1)           # store data
    tb.store(0x18, 0x30_0000, srcs=(5, 9), fault=True)
    tb.load(0x1C, 6, 0x30_0000)                        # passes the store
    tb.store(0x20, 0x38_0000, size=4, srcs=(8,))
    tb.load(0x24, 10, 0x38_0000)                       # partial overlap
    tb.alu(0x28, 11, "ADD", srcs=(10, 6))
    tb.branch(0x2C, srcs=(11,), predicted=False)       # probe site
    for i in range(8):
        tb.alu(0x30 + 4 * i, 12 + i % 3, "ADD", srcs=(11,), imm=i)
    return tb.build()


def hand_replay_trace(fault: bool = False):
    """About 1.1k instructions on which the default value predictor gains
    confidence and then mispredicts: one load pc returns a constant for 100
    iterations and then alternates. Its MUL dependents replay, a load whose
    address depends on the MUL is woken again by it, and an ADD of the MUL
    and a load riding the validation's fill finds the MUL reset when it
    issues. With `fault`, the MUL may fault: a replay makes a faulting op
    execute again, and its exception shadow must resolve, and its IQ entry
    be given back, at its first execution only."""
    tb = TraceBuilder()
    for i in range(160):
        tb.load(0x10, 1, 0x40_0000 + i * 4096, value=i)    # older miss: shadow
        tb.load(0x14, 2, 0x50_0000 + i * 4096,
                value=7 if i < 100 or i % 2 else 9)
        tb.alu(0x18, 3, "MUL", srcs=(2, 2), fault=fault)
        tb.alu(0x1C, 4, "ADD", srcs=(3,), imm=1)
        tb.load(0x20, 5, 0x60_0000 + i * 64, srcs=(3,))
        tb.load(0x24, 6, 0x50_0008 + i * 4096, srcs=(1,))
        tb.alu(0x28, 7, "ADD", srcs=(3, 6))
    return tb.build()


def hand_fu_replay_trace():
    """About 2.2k instructions on which value-prediction replays meet
    saturated functional units: a load pc predicted confidently for 100
    iterations mispredicts twice. When its validation completes, a MUL and
    an ADD that consume the load wait for a unit behind older ops of the
    same class, and an ADD of the replayed MUL and of a load riding a store
    commit's fill leaves the ready heap after the MUL re-executes but
    before its result, so it waits again."""
    tb = TraceBuilder()
    tb.alu(0x00, 40, "MOV", imm=3)
    for i in range(112):
        tb.load(0x10, 1, 0x40_0000 + i * 4096, value=i)    # older miss: shadow
        for k in range(4):                                  # store data: 13 cycles
            tb.alu(0x14 + 4 * k, 20, "MUL", srcs=(1 if k == 0 else 20, 40))
        tb.alu(0x24, 20, "ADD", srcs=(20,), imm=1)
        tb.store(0x40, 0x70_0000 + i * 4096, srcs=(20,))    # misses at commit
        tb.load(0x44, 2, 0x50_0000 + i * 4096,
                value=7 if i < 100 or i % 2 else 9)
        tb.alu(0x48, 3, "MUL", srcs=(2, 2))                 # replayed
        tb.alu(0x4C, 21, "AND", srcs=(20,), imm=0)
        tb.load(0x50, 5, 0x70_0008 + i * 4096, srcs=(21,))  # rides the store's fill
        tb.alu(0x54, 7, "ADD", srcs=(3, 5))
        tb.load(0x58, 6, 0x50_0008 + i * 4096, srcs=(1,))   # rides the validation
        tb.alu(0x5C, 8, "MUL", srcs=(6, 6))
        tb.alu(0x60, 9, "MUL", srcs=(2, 6))                 # waits for the MUL unit
        for k in range(4):
            tb.alu(0x64 + 4 * k, 10 + k, "ADD", srcs=(6,), imm=k)
        tb.alu(0x74, 14, "ADD", srcs=(2, 6))                # waits for an ALU
    return tb.build()


def hand_fu_unfile_trace(seed: int):
    """Value-prediction replays that reset the producer of an op waiting
    for a unit, on `UNFILE_CORE`. Each iteration has an older missing load,
    independent ADDs that keep the one ALU busy, a branch on one of them, a
    load whose value changes now and then, a MUL of it and ADD and MUL
    chains on the MUL. A validation that finds the value changed resets the
    MUL while chain ops that read it wait for the ALU."""
    rng = random.Random(seed)
    tb = TraceBuilder()
    tb.alu(0x00, 40, "MOV", imm=3)
    value = 7
    for i in range(40):
        tb.load(0x10, 1, 0x40_0000 + i * 4096, value=i)    # older miss: shadow
        for k in range(rng.randrange(2, 9)):
            tb.alu(0x20 + 4 * k, 20 + k % 4, "ADD", srcs=(40, 40))
        tb.branch(0x3C, srcs=(20,))                        # shadow till it runs
        for k in range(rng.randrange(2, 9)):
            tb.alu(0x80 + 4 * k, 28 + k % 4, "ADD", srcs=(40, 40))
        if rng.random() < 0.2:
            value = rng.randrange(1, 100)
        tb.load(0x40, 2, 0x50_0000 + i * 4096, value=value)
        tb.alu(0x44, 3, "MUL", srcs=(2, 40))                # replayed
        src = 3
        for k in range(rng.randrange(1, 4)):
            tb.alu(0x48 + 4 * k, 4 + k, rng.choice(("ADD", "ADD", "MUL")),
                   srcs=(src, 2 if k else 40))
            src = 4 + k
        for k in range(rng.randrange(0, 4)):
            tb.alu(0x60 + 4 * k, 24 + k, rng.choice(("ADD", "MUL")), srcs=(40, 40))
        tb.alu(0x70, 8, "ADD", srcs=(src, 2))
    return tb.build()


def hand_pool_refile_trace(seed: int, resident: bool = False):
    """Value-prediction replays that re-execute the address producer of a
    load waiting in the issue pool, on `REFILE_CORE`. Each iteration has two
    missing loads, a load in the second one's line whose value changes now
    and then (predicted, then validated by that line's fill), a MUL of the
    two, three to six misses addressed by the second load and a load
    addressed by the MUL. After a mispredict the misses take the memory
    port cycle after cycle, and the MUL re-executes while the last load
    waits in the pool; the load keeps its address and is not filed again.

    With `resident`, each iteration has zero to three misses that do not
    wait for the second load, and the last load reads one of four lines
    that stay in L1: it hits as soon as it issues, often in the walk in
    which the re-executed MUL wakes it, and commits soon after, so a second
    filing would visit a committed load."""
    rng = random.Random(seed)
    tb = TraceBuilder()
    value = 7
    for i in range(40):
        tb.load(0x10, 1, 0x40_0000 + i * 4096, value=rng.getrandbits(32))
        tb.load(0x14, 2, 0x48_0000 + i * 4096, value=rng.getrandbits(32))
        if rng.random() < 0.3:
            value = rng.randrange(1, 100)
        tb.load(0x18, 3, 0x48_0000 + i * 4096 + 8, value=value)
        tb.alu(0x1C, 4, "MUL", srcs=(3, 2))                 # replayed
        if resident:
            for k in range(rng.randrange(0, 4)):
                tb.load(0x20 + 4 * k, 10 + k, 0x60_0000 + (i * 16 + k) * 4096,
                        value=rng.getrandbits(32))
            tb.load(0x30, 5, 0x70_0000 + i % 4 * 64, srcs=(4,))
            continue
        for k in range(rng.randrange(3, 7)):
            tb.load(0x20 + 4 * k, 10 + k, 0x60_0000 + (i * 16 + k) * 4096,
                    value=rng.getrandbits(32), srcs=(2,))
        tb.load(0x30, 5, 0x70_0000 + i * 4096, value=rng.getrandbits(32),
                srcs=(4,))
    return tb.build()


def hand_sq_fill_trace():
    """A load that misses to memory, then more stores than the default
    store queue holds, each of a value made from the load, and loads of
    some of them: no store commits before the load, so dispatch waits on a
    full store queue until the load's fill returns, and the younger loads
    issue as the queue drains."""
    tb = TraceBuilder()
    tb.load(0x00, 1, 0x40_0000, value=3)
    for i in range(48):
        tb.alu(0x10, 2, "ADD", srcs=(1,), imm=i)
        tb.store(0x14, 0x50_0000 + i * 8, srcs=(2,))
        if i % 6 == 5:
            tb.load(0x18, 3, 0x50_0000 + (i - 3) * 8)       # an older store
            tb.load(0x1C, 4, 0x58_0000 + i * 64, value=i)   # misses
    return tb.build()


UNTRACED = 0x9000_0000


def hand_slices_trace():
    """One load pc per slicer outcome the generator never reaches: a partial
    overlap, a store with no source register and a stored register never
    written (each read directly and through an intermediate load), one leaf
    key that needs two values, a store whose traced value differs from its
    register data, a 4-byte store whose register carries bits above 32, a pc
    whose instances differ in shape, one Hist key with different values at
    two pcs, and a four-op chain that is too long at max_len 3. Annotated
    slices cover all four operand kinds, and one is mutable."""
    tb = TraceBuilder()
    # immutable slice over CONST, LIVE_REG, HIST and TEMP operands
    tb.load(0x100, 1, UNTRACED, value=3)               # leaf, overwritten: Hist
    tb.load(0x104, 2, UNTRACED + 0x40, value=4)        # leaf, still live
    tb.alu(0x108, 3, "ADD", srcs=(1, 2))
    tb.alu(0x10C, 3, "ADD", srcs=(3,), imm=5)
    tb.store(0x110, 0x1000, srcs=(3,))
    tb.alu(0x114, 1, "MOV", imm=0)
    tb.load(0x118, 4, 0x1000)
    # mutable slice: two store sites write the loaded bytes
    tb.alu(0x11C, 5, "MOV", imm=7)
    tb.store(0x120, 0x1100, srcs=(5,))
    tb.alu(0x124, 6, "MOV", imm=9)
    tb.store(0x128, 0x1100, srcs=(6,))
    tb.load(0x12C, 7, 0x1100)
    # partial overlap, at the root and at an intermediate load
    tb.alu(0x130, 8, "MOV", imm=0x1234)
    tb.store(0x134, 0x1200, srcs=(8,))
    tb.load(0x138, 9, 0x1200, size=4)
    tb.alu(0x13C, 10, "ADD", srcs=(9,), imm=1)
    tb.store(0x140, 0x1240, srcs=(10,))
    tb.load(0x144, 11, 0x1240)
    # a store with no source register: no producer at the root, a live
    # leaf through an intermediate load
    tb.store(0x148, 0x1300, value=0x77)
    tb.load(0x14C, 12, 0x1300)
    tb.alu(0x150, 13, "ADD", srcs=(12,), imm=1)
    tb.store(0x154, 0x1340, srcs=(13,))
    tb.load(0x158, 14, 0x1340)
    # a stored register never written: the same two outcomes
    tb.store(0x15C, 0x1400, srcs=(63,))
    tb.load(0x160, 15, 0x1400)
    tb.alu(0x164, 16, "ADD", srcs=(15,), imm=2)
    tb.store(0x168, 0x1440, srcs=(16,))
    tb.load(0x16C, 17, 0x1440)
    # leaf key (0x174, 0) needs two values within one slice
    tb.load(0x170, 18, UNTRACED + 0x100, value=3)
    tb.alu(0x174, 19, "ADD", srcs=(18,), imm=1)
    tb.alu(0x178, 20, "MOV", srcs=(19,))
    tb.load(0x170, 18, UNTRACED + 0x140, value=10)
    tb.alu(0x174, 19, "ADD", srcs=(18,), imm=1)
    tb.alu(0x17C, 21, "ADD", srcs=(20, 19))
    tb.alu(0x180, 18, "MOV", imm=0)
    tb.store(0x184, 0x1500, srcs=(21,))
    tb.load(0x188, 22, 0x1500)
    # traced store value differs from its register data
    tb.alu(0x18C, 23, "MOV", imm=5)
    tb.store(0x190, 0x1600, value=6, srcs=(23,))
    tb.load(0x194, 24, 0x1600)
    # 4-byte stores whose value has bits above 32: from the register, and
    # only in the traced value
    tb.alu(0x198, 25, "MOV", imm=0x1_0000_0005)
    tb.store(0x19C, 0x1700, size=4, srcs=(25,))
    tb.load(0x1A0, 26, 0x1700, size=4)
    tb.alu(0x1A4, 27, "MOV", imm=5)
    tb.store(0x1A8, 0x1740, value=0x1_0000_0005, size=4, srcs=(27,))
    tb.load(0x1AC, 28, 0x1740, size=4)
    # instances of one load pc that differ in shape: a constant, then the
    # producing store's pc
    tb.alu(0x1B0, 29, "MOV", imm=5)
    tb.store(0x1B4, 0x1800, srcs=(29,))
    tb.load(0x1C0, 30, 0x1800)
    tb.alu(0x1B0, 29, "MOV", imm=6)
    tb.store(0x1B4, 0x1840, srcs=(29,))
    tb.load(0x1C0, 30, 0x1840)
    tb.alu(0x1B8, 31, "ADD", srcs=(29, 29))
    tb.store(0x1BC, 0x1880, srcs=(31,))
    tb.load(0x1C0, 30, 0x1880)
    # Hist key (0x1C8, 0) with value 3 at one load pc and 7 at another
    tb.load(0x1C4, 32, UNTRACED + 0x200, value=3)
    tb.alu(0x1C8, 33, "ADD", srcs=(32,), imm=1)
    tb.store(0x1CC, 0x1900, srcs=(33,))
    tb.load(0x1C4, 32, UNTRACED + 0x240, value=7)
    tb.alu(0x1C8, 33, "ADD", srcs=(32,), imm=1)
    tb.store(0x1CC, 0x1940, srcs=(33,))
    tb.alu(0x1D0, 32, "MOV", imm=0)
    tb.load(0x1D4, 34, 0x1900)
    tb.load(0x1D8, 35, 0x1940)
    # a four-op chain
    tb.alu(0x1DC, 36, "MOV", imm=1)
    for i in range(3):
        tb.alu(0x1E0 + 4 * i, 36, "ADD", srcs=(36,), imm=1)
    tb.store(0x1EC, 0x1A00, srcs=(36,))
    tb.load(0x1F0, 37, 0x1A00)
    # a stored value that is itself loaded: the slice recurses through it
    tb.alu(0x1F4, 38, "MOV", imm=5)
    tb.store(0x1F8, 0x1B00, srcs=(38,))
    tb.load(0x1FC, 39, 0x1B00)
    tb.store(0x200, 0x1B40, srcs=(39,))
    tb.load(0x204, 41, 0x1B40)
    return tb.build()


def traces():
    """(name, trace) for every trace the golden file covers. STREAM_INGEST
    has the bench stream-ingest shape: a load misses often enough that some
    leave the shadow release queue after they commit, and their deferred
    LRU touches must still be applied."""
    for pattern in PATTERNS:
        yield pattern, gen_synthetic(SyntheticWorkloadSpec(pattern=pattern,
                                                           count=COUNT, seed=SEED))
    yield "STREAM_INGEST", gen_synthetic(SyntheticWorkloadSpec(
        pattern="STREAM", count=COUNT, seed=SEED, load_density=0.2,
        working_set_bytes=4 << 20))
    yield "HAND_PATHS", hand_paths_trace()
    yield "HAND_REPLAY", hand_replay_trace()
    yield "HAND_REPLAY_FAULT", hand_replay_trace(fault=True)
    yield "HAND_FU_REPLAY", hand_fu_replay_trace()
    yield "HAND_SQ_FILL", hand_sq_fill_trace()
    yield "HAND_FU_UNFILE", hand_fu_unfile_trace(2)  # seed 1 never unfiles from a list
    yield "HAND_POOL_REFILE", hand_pool_refile_trace(1)


def current_fingerprints() -> dict:
    out = {}
    for name, t in traces():
        table, _ = annotate(t)
        for suffix, overrides, consistency, probed in RUNS.get(name, DEFAULT_RUNS):
            for policy in core.POLICIES:
                cfg = CoreConfig(policy=policy, consistency=consistency, **overrides)
                key = f"{name} {policy}{suffix}"
                out[key] = _fingerprint(core.run(t, annotations=table, config=cfg))
                if policy in probed:
                    out[f"{key} probed"] = _fingerprint(
                        core.inject_transient_probe(t, _probe(t), annotations=table,
                                                    config=cfg))
    return out


SLICE_COUNT = 3000
SLICE_FRACTIONS = (0.25, 1.0)
SLICE_MAX_LENS = (100, 3)


def slice_traces():
    """(name, trace) for every trace the annotation entries cover."""
    for pattern in PATTERNS:
        for fraction in SLICE_FRACTIONS:
            spec = SyntheticWorkloadSpec(pattern=pattern, count=SLICE_COUNT, seed=SEED,
                                         recomputable_fraction=fraction,
                                         load_density=0.03)
            yield f"{pattern} rf={fraction}", gen_synthetic(spec)
    yield "HAND_SLICES", hand_slices_trace()


def annotation_fingerprints() -> dict:
    out = {}
    for name, t in slice_traces():
        for max_len in SLICE_MAX_LENS:
            out[f"slices {name} max_len={max_len}"] = _slice_fingerprint(
                *annotate(t, max_len=max_len))
    return out


def _assert_golden(current: dict, slices: bool) -> None:
    golden = {k: v for k, v in json.loads(GOLDEN.read_text()).items()
              if k.startswith("slices ") == slices}
    assert current.keys() == golden.keys()
    changed = [k for k in golden if current[k] != golden[k]]
    assert not changed, f"behaviour changed for {changed}"


def test_fingerprints_match_golden():
    _assert_golden(current_fingerprints(), slices=False)


def test_annotations_match_golden():
    _assert_golden(annotation_fingerprints(), slices=True)


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = {**current_fingerprints(), **annotation_fingerprints()}
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    for label, keys in (("added", new.keys() - old.keys()),
                        ("removed", old.keys() - new.keys()),
                        ("changed", {k for k in new.keys() & old.keys()
                                     if new[k] != old[k]})):
        print(f"{label} ({len(keys)}):", *sorted(keys), sep="\n  ")
