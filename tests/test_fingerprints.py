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

GOLDEN = Path(__file__).with_name("golden_fingerprints.json")
COUNT = 800
SEED = 1
# (key suffix, cache, consistency, probed policy) per pattern. MIXED runs a
# second time with two MSHRs, so loads and store commits stall on full MSHRs
# and shadowed loads ride in-flight fills, and BASELINE is probed there; and a
# third time under RC, where only the value-predicting policies cast a shadow
# for each load.
RUNS = {"MIXED": (("", CacheConfig(), "TSO", "VRC"),
                  (" mshrs=2", CacheConfig(mshrs=2), "TSO", "BASELINE"),
                  (" RC", CacheConfig(), "RC", None))}
DEFAULT_RUNS = (("", CacheConfig(), "TSO", None),)


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


def current_fingerprints() -> dict:
    out = {}
    for pattern in PATTERNS:
        t = gen_synthetic(SyntheticWorkloadSpec(pattern=pattern, count=COUNT,
                                                seed=SEED))
        table, _ = annotate(t)
        for suffix, cache, consistency, probed in RUNS.get(pattern, DEFAULT_RUNS):
            for policy in core.POLICIES:
                cfg = CoreConfig(policy=policy, consistency=consistency,
                                 record_load_timing=True, cache=cache)
                key = f"{pattern} {policy}{suffix}"
                out[key] = _fingerprint(core.run(t, annotations=table, config=cfg))
                if policy == probed:
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
