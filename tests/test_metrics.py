import hashlib

import pytest

from vrcsim import core
from vrcsim.metrics import CSV_COLUMNS, ENERGY_WEIGHTS, energy_proxy, summarize
from vrcsim.slicer import AnnotationTable, Slice, SliceInstr, annotate, const_op
from vrcsim.workloads import SyntheticWorkloadSpec, gen_synthetic


def _runs(policies=("BASELINE", "DOM"), count=3000, seed=71):
    spec = SyntheticWorkloadSpec(pattern="COMPUTE_STORE_LOAD", count=count,
                                 seed=seed, recomputable_fraction=0.5)
    t = gen_synthetic(spec)
    table, _ = annotate(t)
    return {p: core.run(t, annotations=table, config=core.CoreConfig(policy=p))
            for p in policies}


def test_summarize_requires_baseline():
    runs = _runs(("BASELINE",))
    del runs["BASELINE"]
    with pytest.raises(ValueError):
        summarize({**runs})


def test_baseline_normalized_to_one():
    runs = _runs(("BASELINE",))
    summary = summarize(runs)
    assert summary.reports["BASELINE"].norm_ipc == 1.0


def test_slice_latency_absent_without_recomputation():
    runs = _runs(("BASELINE", "DOM"))
    summary = summarize(runs)
    assert summary.reports["DOM"].mean_slice_latency is None
    row = summary.csv.splitlines()[2].split(",")
    assert row[CSV_COLUMNS.index("mean_slice_latency")] == ""


def test_crafted_seven_cycle_slice_mean(tb):
    # six dependent adds plus the delivery cycle: exactly seven cycles
    from vrcsim.slicer import temp_op
    instrs = [SliceInstr(0, "ADD", (const_op(1), const_op(1)))]
    for i in range(1, 6):
        instrs.append(SliceInstr(i, "ADD", (temp_op(i - 1), const_op(1))))
    value = 7
    tb.load(0x08, 9, 0x10_0000, value=1)          # shadow-casting cold miss
    tb.load(0x14, 2, 0x20_0000, value=value)       # recomputed load
    t = tb.build()
    table = AnnotationTable()
    table.slices[0] = Slice(
        slice_id=0, instrs=tuple(instrs), producer_store_addr=0x999000,
        producer_store_size=8, producer_store_seq=0, producer_store_pc=0x1,
        root_value=value, hist_requirements=(), live_bindings=(),
        immutable=True)
    table.rcmp_sites[0x14] = 0
    table.slice_tags[0] = ((0x999000, 8),)
    runs = {
        "BASELINE": core.run(t, config=core.CoreConfig(policy="BASELINE")),
        "VRC": core.run(t, annotations=table,
                        config=core.CoreConfig(policy="VRC")),
    }
    assert runs["VRC"].counters["recomputes"] == 1
    assert runs["VRC"].counters.get("unsound_recomputes", 0) == 0
    summary = summarize(runs)
    assert summary.reports["VRC"].mean_slice_latency == 7.0


def test_energy_zero_instruction_run_static_only():
    breakdown = energy_proxy({}, cycles=0)
    assert breakdown["total"] == 0.0
    breakdown = energy_proxy({}, cycles=100)
    assert breakdown["core_dynamic"] == 0.0
    assert breakdown["overhead"] == 0.0
    assert breakdown["core_static"] > 0 and breakdown["memory"] > 0


def test_energy_doubling_cycles_doubles_static_terms_only():
    counters = {"fu_ops": 100, "l1_hits": 50, "mem_accesses": 5}
    a = energy_proxy(counters, cycles=1000)
    b = energy_proxy(counters, cycles=2000)
    assert b["core_static"] == 2 * a["core_static"]
    assert b["core_dynamic"] == a["core_dynamic"]
    assert b["memory"] - a["memory"] == ENERGY_WEIGHTS["mem_static_per_cycle"] * 1000


def test_energy_totals_match_hand_computed_weights():
    w = ENERGY_WEIGHTS
    counters = {"fu_ops": 100, "l1_hits": 50, "l1_misses": 7, "mshr_hits": 3,
                "l2_hits": 4, "mem_accesses": 5, "vp_lookups": 11,
                "vp_updates": 13, "vrc_struct_accesses": 17}
    expected = {
        "core_dynamic": w["fu_op"] * 100 + w["l1_access"] * 60 + w["l2_access"] * 9,
        "core_static": w["static_per_cycle"] * 500,
        "memory": w["mem_access"] * 5 + w["mem_static_per_cycle"] * 500,
        "overhead": w["vp_lookup"] * 11 + w["vp_update"] * 13
        + w["vrc_struct_access"] * 17,
    }
    expected["total"] = sum(expected.values())
    assert energy_proxy(counters, cycles=500) == pytest.approx(expected)


def test_vrc_coverage_excludes_mshr_hits():
    runs = _runs(("BASELINE", "VRC"))
    r = runs["VRC"]
    denom = r.counters["shadowed_l1_misses"]
    assert denom > 0
    summary = summarize(runs)
    assert summary.reports["VRC"].vrc_coverage == \
        r.counters.get("recomputes", 0) / denom
    # waiting on an in-flight fill is not a miss
    assert r.counters.get("mshr_wait_loads", 0) >= 0


def test_reports_reproducible_byte_for_byte():
    a = summarize(_runs(("BASELINE", "DOM", "VRC")))
    b = summarize(_runs(("BASELINE", "DOM", "VRC")))
    assert a.csv == b.csv
    assert a.table == b.table


def test_csv_schema_and_policy_order():
    runs = _runs(("BASELINE", "VRC", "DOM"))
    summary = summarize(runs)
    lines = summary.csv.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert [ln.split(",")[0] for ln in lines[1:]] == ["BASELINE", "DOM", "VRC"]


def _report_digests(spec: SyntheticWorkloadSpec) -> tuple[str, str]:
    """sha256 of `summarize`'s CSV and table over the seven clean policies."""
    t = gen_synthetic(spec)
    table, _ = annotate(t)
    summary = summarize({p: core.run(t, annotations=table,
                                     config=core.CoreConfig(policy=p))
                         for p in core.POLICIES})
    return (hashlib.sha256(summary.csv.encode()).hexdigest(),
            hashlib.sha256(summary.table.encode()).hexdigest())


def test_golden_mixed_report_bytes_are_pinned():
    # the seven clean policies on the golden 800-instruction MIXED seed-1
    # trace; a change to a counter, a report formula or ENERGY_WEIGHTS
    # changes these bytes
    assert _report_digests(SyntheticWorkloadSpec(
        pattern="MIXED", count=800, seed=1)) == (
        "462794148ef5cc0f7b8de2f71f550aa51ffd7ac47af898329f16c749d4019ce4",
        "edca43b5c1d37e117e7e2e8cb45f25e71e7e510aa76474446e33a95ae9fb4d41")


def test_golden_stream_report_bytes_are_pinned():
    # a load-dense trace (a quarter of its instructions are loads, against
    # 3% on MIXED): its report carries the shadow statistics, which no
    # fingerprint holds, of 193 loads under each policy
    assert _report_digests(SyntheticWorkloadSpec(
        pattern="STREAM", count=800, seed=1, load_density=0.2,
        working_set_bytes=4 << 20)) == (
        "d5aa23055caa0f928199a0ba886428e98504cca95bc64d4256f9535f99e9420b",
        "b0498ccdc6cf5a1674dadc8abed784d64ba0734e1ec7245f42e9af1d1f17489a")
