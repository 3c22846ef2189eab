"""Behaviour matrix: one fingerprint line per simulation over a fixed set of
traces, configurations, consistency models, policies and probes.

Two trees behave the same when this script's outputs from both are
byte-identical:

    PYTHONPATH=src python3 tests/behaviour_matrix.py > matrix.txt
    cmp matrix.txt other-tree-matrix.txt

The runs are the four generated patterns at seeds 1-3 (2k instructions) and
the hand-built traces of `test_fingerprints`, each under a default core and
a tight one (8-entry shadow buffer and release queue, two MSHRs, lossy store
tags), under TSO and RC, with every policy, clean and, where the trace has a
mispredicted branch, probed. The file has no `test_` prefix, so the test
suite does not collect it.
"""

from __future__ import annotations

import json

from vrcsim import core
from vrcsim.core import CoreConfig
from vrcsim.memhier import CacheConfig
from vrcsim.slicer import annotate
from vrcsim.trace import PATTERNS, SyntheticWorkloadSpec, gen_synthetic
from vrcsim.vrc import VrcConfig

from test_fingerprints import (_fingerprint, _probe, hand_fu_replay_trace,
                               hand_paths_trace, hand_replay_trace)

COUNT = 2000
SEEDS = (1, 2, 3)
CONFIGS = (("default", {}),
           ("tight", {"sb_capacity": 8, "rq_capacity": 8,
                      "cache": CacheConfig(mshrs=2),
                      "vrc": VrcConfig(lossy_tags=True)}))


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
                                     record_load_timing=True, **overrides)
                    key = f"{name} {cfg_name} {consistency} {policy}"
                    runs = [("", core.run(t, annotations=table, config=cfg))]
                    if probed:
                        runs.append((" probed", core.inject_transient_probe(
                            t, _probe(t), annotations=table, config=cfg)))
                    for suffix, r in runs:
                        yield f"{key}{suffix} " + json.dumps(_fingerprint(r),
                                                             sort_keys=True)


if __name__ == "__main__":
    for line in lines():
        print(line)
