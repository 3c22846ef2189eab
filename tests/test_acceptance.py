"""Acceptance suite. Each criterion is one test that prints a PASS line;
run with `pytest tests/test_acceptance.py -v -s`.

The randomized part drives fifty 10k-instruction traces (seeds 1-50, all four
workload patterns) through every policy, with a transient probe injected
after the first mispredicted branch of each trace.
"""

import statistics
from dataclasses import dataclass, field

import pytest

from vrcsim import audit, core
from vrcsim.cli import main as cli_main
from vrcsim.replay import functional_replay
from vrcsim.shadows import ShadowKind, ShadowState
from vrcsim.slicer import (AnnotationTable, Slice, SliceInstr, annotate,
                           const_op, temp_op)
from vrcsim.vrc import VrcState, VrcConfig
from vrcsim.workloads import SyntheticWorkloadSpec, TraceBuilder, gen_synthetic

from test_shadows import _poll

SEEDS = range(1, 51)
PATTERNS = ("MIXED", "COMPUTE_STORE_LOAD", "STREAM", "POINTER_CHASE")
FRACTIONS = (0.25, 0.5, 0.75)
PROBE_ADDRS = tuple(0x7100_0000 + i * 64 for i in range(8))
MISS_LATENCY = 2 + 20 + 150


@dataclass
class TraceRecord:
    seed: int
    pattern: str
    fraction: float
    cycles: dict = field(default_factory=dict)
    equivalent: dict = field(default_factory=dict)
    differential_equal: dict = field(default_factory=dict)
    invisibility_pass: dict = field(default_factory=dict)
    validation_ok: dict = field(default_factory=dict)
    baseline_probe_divergent: bool = False


def _validations_monotonic(result) -> bool:
    comps = result.validation_completions
    by_seq = all(s1 < s2 for (s1, _), (s2, _) in zip(comps, comps[1:]))
    by_cycle = all(c1 < c2 for (_, c1), (_, c2) in zip(comps, comps[1:]))
    return by_seq and by_cycle


@pytest.fixture(scope="session")
def suite():
    records = []
    for seed in SEEDS:
        pattern = PATTERNS[seed % 4]
        fraction = FRACTIONS[seed % 3]
        spec = SyntheticWorkloadSpec(
            pattern=pattern, count=10_000, seed=seed,
            recomputable_fraction=fraction, load_density=0.03,
            mispredict_rate=0.1)
        t = gen_synthetic(spec)
        table, _ = annotate(t)
        rep = functional_replay(t)
        br = next(i.seq for i in t.instructions
                  if i.kind == "BRANCH" and not i.br.predicted_correctly)
        probe = core.ProbeSpec(branch_seq=br, load_addrs=PROBE_ADDRS)
        rec = TraceRecord(seed=seed, pattern=pattern, fraction=fraction)
        for policy in core.POLICIES:
            cfg = core.CoreConfig(policy=policy)
            clean = core.run(t, annotations=table, config=cfg)
            rec.cycles[policy] = clean.cycles
            rec.equivalent[policy] = (clean.committed_values == rep.results
                                      and clean.committed_regs == rep.final_regs)
            if policy in ("VP", "ORACLE_VP"):
                rec.validation_ok[policy] = _validations_monotonic(clean)
            if policy in core.SECURE_POLICIES:
                probed = core.inject_transient_probe(
                    t, probe, annotations=table, config=cfg)
                rec.differential_equal[policy] = \
                    audit.differential_check(clean, probed).equal
                rec.invisibility_pass[policy] = \
                    audit.assert_invisibility(probed.mutation_log).passed
                rec.equivalent[policy] &= (probed.committed_values == rep.results)
            else:
                probed = core.inject_transient_probe(
                    t, probe, annotations=table, config=cfg)
                rec.baseline_probe_divergent = \
                    not audit.differential_check(clean, probed).equal
        records.append(rec)
    return records


def test_criterion_1_transient_invisibility(suite):
    for rec in suite:
        for policy in core.SECURE_POLICIES:
            assert rec.differential_equal[policy], (rec.seed, policy)
            assert rec.invisibility_pass[policy], (rec.seed, policy)
    # the unsecured baseline must be observably leaky on at least one probe
    assert any(rec.baseline_probe_divergent for rec in suite)
    n = len(suite) * len(core.SECURE_POLICIES)
    print(f"\nACCEPTANCE 1 PASS: transient invisibility on {n} probed runs, "
          f"baseline divergence demonstrated")


def test_criterion_2_architectural_correctness(suite):
    for rec in suite:
        for policy in core.POLICIES:
            assert rec.equivalent[policy], (rec.seed, policy)
    print(f"\nACCEPTANCE 2 PASS: committed state matches the in-order replay "
          f"oracle for {len(suite)}x{len(core.POLICIES)} runs")


def test_criterion_3_slice_soundness_and_coverage():
    lines = []
    for fraction in (0.25, 0.5, 1.0):
        spec = SyntheticWorkloadSpec(
            pattern="COMPUTE_STORE_LOAD", count=30_000, seed=3,
            recomputable_fraction=fraction, load_density=0.03)
        t = gen_synthetic(spec)
        table, _ = annotate(t)
        r = core.run(t, annotations=table, config=core.CoreConfig(policy="VRC"))
        assert r.counters.get("unsound_recomputes", 0) == 0
        assert r.counters.get("recomputes", 0) > 0
        coverage = r.counters["recomputes"] / r.counters["shadowed_l1_misses"]
        assert coverage >= fraction - 0.05, (fraction, coverage)
        rep = functional_replay(t)
        assert r.committed_values == rep.results
        lines.append(f"f={fraction}: coverage {coverage:.3f}")
    print(f"\nACCEPTANCE 3 PASS: recomputed values exact, {'; '.join(lines)}")


def _shadow_equivalence_check(sb, registered):
    for load in _poll(sb):
        assert registered[load] is False
        registered[load] = True
    for load, released in registered.items():
        assert released != sb.oracle_is_shadowed(load)


def _replay_schedule(events):
    sb = ShadowState(sb_capacity=64, rq_capacity=64)
    registered, live, idx = {}, [], 0
    for ev in events:
        if ev == "cast":
            live.append(sb.cast(ShadowKind.C, idx))
            idx += 1
        elif ev == "register":
            registered[idx] = not sb.register_load(idx, False, None)[0]
            idx += 1
        else:
            sb.resolve(live.pop(ev[1]))
        _shadow_equivalence_check(sb, registered)


def test_criterion_4_shadow_tracker_equivalence():
    count = 0

    def enumerate_schedules(events, live_count, remaining):
        nonlocal count
        _replay_schedule(events)
        count += 1
        if remaining == 0:
            return
        events.append("cast")
        enumerate_schedules(events, live_count + 1, remaining - 1)
        events.pop()
        events.append("register")
        enumerate_schedules(events, live_count, remaining - 1)
        events.pop()
        for k in range(live_count):
            events.append(("resolve", k))
            enumerate_schedules(events, live_count - 1, remaining - 1)
            events.pop()

    enumerate_schedules([], 0, 10)

    import random
    rng = random.Random(99)
    sb = ShadowState(sb_capacity=200_000, rq_capacity=200_000)
    registered, live, idx = {}, [], 0
    events = 0
    for _ in range(100_000):
        events += 1
        roll = rng.random()
        if roll < 0.32 and sb.room():
            live.append(sb.cast(ShadowKind.C, idx))
            idx += 1
        elif roll < 0.64 and (got := sb.register_load(idx, False, None)) is not None:
            registered[idx] = not got[0]
            idx += 1
        elif live:
            sb.resolve(live.pop(rng.randrange(len(live))))
        for load in _poll(sb):
            assert registered[load] is False
            registered[load] = True
    for load, released in registered.items():
        assert released != sb.oracle_is_shadowed(load)
    print(f"\nACCEPTANCE 4 PASS: head-comparison == CAM oracle on {count} "
          f"exhaustive schedules (<=10 events) and {events} randomized events")


def test_criterion_5_validation_serialization(suite):
    checked = 0
    for rec in suite:
        for policy in ("VP", "ORACLE_VP"):
            assert rec.validation_ok[policy], (rec.seed, policy)
            checked += 1
    print(f"\nACCEPTANCE 5 PASS: validation completions strictly increasing in "
          f"program order across {checked} runs")


def test_criterion_6_directional_performance(suite):
    def holds(pred, recs):
        results = [pred(r) for r in recs]
        return sum(results) / len(results), results

    frac_a, _ = holds(lambda r: r.cycles["BASELINE"] <= r.cycles["DOM"], suite)
    assert frac_a >= 0.8, frac_a
    assert statistics.median([r.cycles["BASELINE"] for r in suite]) <= \
        statistics.median([r.cycles["DOM"] for r in suite])

    rec_like = [r for r in suite if r.fraction >= 0.5]
    frac_b, _ = holds(lambda r: r.cycles["VRC"] <= r.cycles["DOM"], rec_like)
    assert frac_b >= 0.8, frac_b

    def improvement(rec, base, oracle):
        return (rec.cycles[base] - rec.cycles[oracle]) / rec.cycles[base]

    frac_c, _ = holds(
        lambda r: improvement(r, "VP", "ORACLE_VP") <=
        improvement(r, "VRC", "ORACLE_VRC") + 1e-9, suite)
    assert frac_c >= 0.8, frac_c
    print(f"\nACCEPTANCE 6 PASS: BASELINE<=DOM on {frac_a:.0%}, VRC<=DOM on "
          f"{frac_b:.0%} (f>=0.5), oracle-gain ordering on {frac_c:.0%}")


def _locality_trace():
    """Every produced line is read twice; under a fill-less recomputation
    policy the second read misses again."""
    tb = TraceBuilder()
    for r in range(4, 8):
        tb.load((100 + r) * 4, r, 0x9100_0000 + r * 64, value=r * 1111)
    ring, lag, slots = 30, 24, 150
    for s in range(slots):
        tb.alu(0x500, 16, "ADD", srcs=(4, 5))
        tb.alu(0x504, 17, "XOR", srcs=(16, 6))
        tb.store(0x508, 0x6000_0000 + (s % ring) * 4096, srcs=(17,))
        if s >= lag:
            addr = 0x6000_0000 + ((s - lag) % ring) * 4096
            tb.load(0x50C, 18, addr)
            tb.load(0x510, 19, addr)   # reuse of the produced line
        else:
            tb.load(0x514, 18, 0x9200_0000)
            tb.load(0x518, 19, 0x9200_0040)
        for i in range(6):
            tb.alu(0x520 + 4 * i, 20 + i % 4, "ADD", srcs=(20 + i % 4,), imm=1)
    return tb.build()


def test_criterion_7_locality_effect():
    t = _locality_trace()
    table, stats = annotate(t)
    assert stats.annotated_pcs >= 2
    dom = core.run(t, annotations=table, config=core.CoreConfig(policy="DOM"))
    vrc = core.run(t, annotations=table, config=core.CoreConfig(policy="VRC"))
    assert vrc.counters["recomputes"] > 0
    assert vrc.counters.get("unsound_recomputes", 0) == 0

    def ratio(r):
        c = r.counters
        acc = c["l1_hits"] + c["l1_misses"] + c["mshr_hits"]
        return c["l1_misses"] / acc

    assert ratio(vrc) > ratio(dom), (ratio(vrc), ratio(dom))
    assert vrc.counters["l1_hits"] < dom.counters["l1_hits"]
    print(f"\nACCEPTANCE 7 PASS: L1 miss ratio {ratio(vrc):.3f} (VRC) > "
          f"{ratio(dom):.3f} (DOM) on the reuse trace")


def test_criterion_8_hand_checked_latencies():
    # delayed shadowed miss: issues at the unshadow cycle R, fills R + 2+20+mem
    tb = TraceBuilder()
    tb.load(0x10, 1, 0x10_0000, value=1)
    tb.load(0x14, 2, 0x20_0000, value=2)
    r = core.run(tb.build(), config=core.CoreConfig(policy="DOM"))
    unshadow, issue, ready = r.load_timing[1]
    assert unshadow == r.load_timing[0][2]  # R = older load's fill
    assert issue == unshadow
    assert ready == issue + MISS_LATENCY

    # MUL followed by ADD recomputes in 3 + 1 + 1 = 5 cycles
    engine = VrcState(_mul_add_table(), VrcConfig())
    engine.enqueue(0x40, 1)
    now = 100
    while not engine.ended:
        assert engine.step(now, [1, 1], lambda reg, load_seq: 0)
        now += 1
    # the request ends on the step at `now - 1`; its value arrives at `now`
    assert engine.ended == [(1, 13)] and now - 100 == 5

    # the same slice driven by the full core reports a 5-cycle mean latency
    tb2 = TraceBuilder()
    tb2.load(0x10, 1, 0x10_0000, value=1)
    tb2.load(0x14, 2, 0x20_0000, value=13)
    run2 = core.run(tb2.build(), annotations=_mul_add_table(pc=0x14),
                    config=core.CoreConfig(policy="VRC"))
    assert run2.counters["recomputes"] == 1
    assert run2.mean_slice_cycles == 5.0
    print("\nACCEPTANCE 8 PASS: delayed-miss latency R+2+20+mem and 5-cycle "
          "MUL+ADD slice verified to the cycle")


def _mul_add_table(pc=0x40):
    s = Slice(slice_id=0,
              instrs=(SliceInstr(0, "MUL", (const_op(3), const_op(4))),
                      SliceInstr(1, "ADD", (temp_op(0), const_op(1)))),
              producer_store_addr=0x999000, producer_store_size=8,
              producer_store_seq=0, producer_store_pc=0x2, root_value=13,
              hist_requirements=(), live_bindings=(), immutable=True)
    table = AnnotationTable()
    table.slices[0] = s
    table.rcmp_sites[pc] = 0
    table.slice_tags[0] = ((0x999000, 8),)
    return table


def test_criterion_9_determinism(tmp_path):
    tr = tmp_path / "tr.txt"
    assert cli_main(["gen", "--pattern", "mixed", "--count", "8000",
                     "--seed", "9", "--out", str(tr)]) == 0
    outs = []
    for d in ("one", "two"):
        out = tmp_path / d
        assert cli_main(["compare", "--trace", str(tr),
                         "--policy", "DOM", "--policy", "VRC",
                         "--policy", "ORACLE_VRC", "--seed", "9",
                         "--out", str(out)]) == 0
        outs.append((out / "compare.csv").read_bytes())
    assert outs[0] == outs[1]
    print("\nACCEPTANCE 9 PASS: repeated compare runs are byte-identical")
