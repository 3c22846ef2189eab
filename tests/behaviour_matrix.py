"""Behaviour matrix: one fingerprint line per simulation over a fixed set of
traces, configurations, consistency models, policies and probes.

Two trees behave the same when this script's outputs from both are
byte-identical:

    PYTHONPATH=src python3 tests/behaviour_matrix.py > matrix.txt
    cmp matrix.txt other-tree-matrix.txt

The runs are the four generated patterns at seeds 1-3 (2k instructions) and
the first three hand-built traces of `test_fingerprints`, each under a
default core and a tight one (8-entry shadow buffer and release queue, two
MSHRs, lossy store tags), under TSO and RC, with every policy, clean and,
where the trace has a mispredicted branch, probed. Then the two
replay-heavy builders of `test_fingerprints` at seeds 1-6 run under VP on
three small cores (the one each builder is made for, and one with the
smallest parts of both), under TSO and RC, and last the pool-refile
builder's `resident` variant the same way. The file has no `test_` prefix,
so the test suite does not collect it.
"""

from __future__ import annotations

import json
from functools import partial

from vrcsim import core
from vrcsim.core import CoreConfig
from vrcsim.memhier import CacheConfig
from vrcsim.slicer import annotate
from vrcsim.vrc import VrcConfig
from vrcsim.workloads import PATTERNS, SyntheticWorkloadSpec, gen_synthetic

from test_fingerprints import (REFILE_CORE, UNFILE_CORE, _fingerprint, _probe,
                               hand_fu_replay_trace, hand_fu_unfile_trace,
                               hand_paths_trace, hand_pool_refile_trace,
                               hand_replay_trace)

COUNT = 2000
SEEDS = (1, 2, 3)
CONFIGS = (("default", {}),
           ("tight", {"sb_capacity": 8, "rq_capacity": 8,
                      "cache": CacheConfig(mshrs=2),
                      "vrc": VrcConfig(lossy_tags=True)}))
REPLAY_SEEDS = range(1, 7)
SMALL_CORES = (("unfile", UNFILE_CORE), ("refile", REFILE_CORE),
               ("smallest", {**UNFILE_CORE, **REFILE_CORE,
                             "cache": CacheConfig(mshrs=2, l2_latency=2,
                                                  mem_latency=3)}))


def traces():
    for pattern in PATTERNS:
        for seed in SEEDS:
            yield f"{pattern} seed={seed}", gen_synthetic(
                SyntheticWorkloadSpec(pattern=pattern, count=COUNT, seed=seed))
    yield "HAND_PATHS", hand_paths_trace()
    yield "HAND_REPLAY", hand_replay_trace()
    yield "HAND_FU_REPLAY", hand_fu_replay_trace()


def lines():
    for name, t in traces():
        table, _ = annotate(t)
        probed = any(ins.kind == "BRANCH" and not ins.br.predicted_correctly
                     for ins in t.instructions)
        for cfg_name, overrides in CONFIGS:
            for consistency in ("TSO", "RC"):
                for policy in core.POLICIES:
                    cfg = CoreConfig(policy=policy, consistency=consistency,
                                     **overrides)
                    key = f"{name} {cfg_name} {consistency} {policy}"
                    runs = [("", core.run(t, annotations=table, config=cfg))]
                    if probed:
                        runs.append((" probed", core.inject_transient_probe(
                            t, _probe(t), annotations=table, config=cfg)))
                    for suffix, r in runs:
                        yield f"{key}{suffix} " + json.dumps(_fingerprint(r),
                                                             sort_keys=True)
    for name, build in (("HAND_FU_UNFILE", hand_fu_unfile_trace),
                        ("HAND_POOL_REFILE", hand_pool_refile_trace),
                        ("HAND_POOL_REFILE resident",
                         partial(hand_pool_refile_trace, resident=True))):
        for seed in REPLAY_SEEDS:
            t = build(seed)
            for cfg_name, overrides in SMALL_CORES:
                for consistency in ("TSO", "RC"):
                    cfg = CoreConfig(policy="VP", consistency=consistency,
                                     **overrides)
                    r = core.run(t, config=cfg)
                    yield (f"{name} seed={seed} {cfg_name} {consistency} VP "
                           + json.dumps(_fingerprint(r), sort_keys=True))


if __name__ == "__main__":
    for line in lines():
        print(line)
