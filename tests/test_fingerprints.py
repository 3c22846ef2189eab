"""Golden behavioural fingerprints: every policy on every pattern must keep
its cycles, counters, hierarchy digest, mutation log, committed state,
validation order and load timing byte for byte.

A change that alters simulated behaviour on purpose regenerates the golden
file with `PYTHONPATH=src python3 tests/test_fingerprints.py` and says why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from vrcsim import core
from vrcsim.core import CoreConfig, ProbeSpec
from vrcsim.memhier import CacheConfig
from vrcsim.slicer import annotate
from vrcsim.trace import PATTERNS, SyntheticWorkloadSpec, gen_synthetic

from conftest import TraceBuilder

GOLDEN = Path(__file__).with_name("golden_fingerprints.json")
COUNT = 800
SEED = 1
# (key suffix, cache, consistency, probed policies) per trace. MIXED runs a
# second time with two MSHRs, so loads and store commits stall on full MSHRs
# and shadowed loads ride in-flight fills, and BASELINE is probed there; and a
# third time under RC, where only the value-predicting policies cast a shadow
# for each load. The hand-built traces run under TSO and RC, and the first is
# probed under both.
RUNS = {"MIXED": (("", CacheConfig(), "TSO", ("VRC",)),
                  (" mshrs=2", CacheConfig(mshrs=2), "TSO", ("BASELINE",)),
                  (" RC", CacheConfig(), "RC", ())),
        "HAND_PATHS": (("", CacheConfig(), "TSO", core.POLICIES),
                       (" RC", CacheConfig(), "RC", core.POLICIES)),
        "HAND_REPLAY": (("", CacheConfig(), "TSO", ()),
                        (" RC", CacheConfig(), "RC", ()))}
DEFAULT_RUNS = (("", CacheConfig(), "TSO", ()),)


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


def hand_replay_trace():
    """About 1.1k instructions on which the default value predictor gains
    confidence and then mispredicts: one load pc returns a constant for 100
    iterations and then alternates. Its MUL dependents replay, a load whose
    address depends on the MUL is woken again by it, and an ADD of the MUL
    and a load riding the validation's fill finds the MUL reset when it
    issues."""
    tb = TraceBuilder()
    for i in range(160):
        tb.load(0x10, 1, 0x40_0000 + i * 4096, value=i)    # older miss: shadow
        tb.load(0x14, 2, 0x50_0000 + i * 4096,
                value=7 if i < 100 or i % 2 else 9)
        tb.alu(0x18, 3, "MUL", srcs=(2, 2))
        tb.alu(0x1C, 4, "ADD", srcs=(3,), imm=1)
        tb.load(0x20, 5, 0x60_0000 + i * 64, srcs=(3,))
        tb.load(0x24, 6, 0x50_0008 + i * 4096, srcs=(1,))
        tb.alu(0x28, 7, "ADD", srcs=(3, 6))
    return tb.build()


def traces():
    """(name, trace) for every trace the golden file covers."""
    for pattern in PATTERNS:
        yield pattern, gen_synthetic(SyntheticWorkloadSpec(pattern=pattern,
                                                           count=COUNT, seed=SEED))
    yield "HAND_PATHS", hand_paths_trace()
    yield "HAND_REPLAY", hand_replay_trace()


def current_fingerprints() -> dict:
    out = {}
    for name, t in traces():
        table, _ = annotate(t)
        for suffix, cache, consistency, probed in RUNS.get(name, DEFAULT_RUNS):
            for policy in core.POLICIES:
                cfg = CoreConfig(policy=policy, consistency=consistency,
                                 record_load_timing=True, cache=cache)
                key = f"{name} {policy}{suffix}"
                out[key] = _fingerprint(core.run(t, annotations=table, config=cfg))
                if policy in probed:
                    out[f"{key} probed"] = _fingerprint(
                        core.inject_transient_probe(t, _probe(t), annotations=table,
                                                    config=cfg))
    return out


def test_fingerprints_match_golden():
    golden = json.loads(GOLDEN.read_text())
    current = current_fingerprints()
    assert current.keys() == golden.keys()
    changed = [k for k in golden if current[k] != golden[k]]
    assert not changed, f"behaviour changed for {changed}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current_fingerprints(), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
