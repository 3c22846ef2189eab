"""Self-tests of the benchmark: a tiny run emits every metric named in
BENCHMARK.json with its unit, two runs over the same input give identical
behavioural fingerprints, and the replay-oracle gate fails a run whose
annotations make VRC commit wrong values.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

import json
from dataclasses import replace

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# 600 compute instructions still give VRC recomputes to corrupt
TINY = 0.6


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_and_repeats_fingerprints(workload):
    plain = run.measure(workload, seed=1, seconds=0, trace=False, scale=TINY)
    traced = run.measure(workload, seed=1, seconds=0, trace=True, scale=TINY)
    for record, listed in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert record["failed"] == 0, record["failures"]
        assert record["attempted"] >= 1
        units = {name: m["unit"] for name, m in record["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in listed}
        assert all(isinstance(m["value"], (int, float))
                   for m in record["metrics"].values())
    assert plain["fingerprints"]
    assert plain["fingerprints"] == traced["fingerprints"]


def _off_by_one(table):
    """Annotations whose every slice recomputes one more than the stored value."""
    from vrcsim.slicer import AnnotationTable, SliceInstr, const_op, temp_op

    def bump(s):
        last = len(s.instrs)
        extra = SliceInstr(slice_pos=last, alu_op="ADD",
                           operands=(temp_op(last - 1), const_op(1)))
        return replace(s, instrs=s.instrs + (extra,))

    return AnnotationTable(
        slices={sid: bump(s) for sid, s in table.slices.items()},
        rcmp_sites=table.rcmp_sites, rec_sites=table.rec_sites,
        slice_tags=table.slice_tags)


def test_bogus_annotations_fail_the_gate():
    record = run.measure("compute-audit", seed=1, seconds=0, trace=True,
                         scale=TINY, tamper=_off_by_one)
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    assert metrics["vrc.unsound_recomputes"] > 0
    assert metrics["fail_rate"] > 0
    assert record["failed"] > 0
    assert any("committed values differ from replay" in f
               for f in record["failures"])
