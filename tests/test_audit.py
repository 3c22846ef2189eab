import pickle
from types import SimpleNamespace

from vrcsim import core
from vrcsim.audit import (MutationLog, MutationRecord, assert_invisibility,
                          differential_check)
from vrcsim.memhier import replay_log
from vrcsim.slicer import annotate
from vrcsim.workloads import SyntheticWorkloadSpec, gen_synthetic


def _rec(cycle=0, spec=False, probe=False, line=0x40, op="fill"):
    return MutationRecord(cycle=cycle, level=1, op=op, line_addr=line,
                          victim_addr=None, cause_seq=1, speculative=spec,
                          probe=probe)


def test_invisibility_pass_and_fail():
    log = MutationLog()
    log.append(_rec(spec=False))
    assert assert_invisibility(log).passed
    log.append(_rec(cycle=1, spec=True))
    verdict = assert_invisibility(log)
    assert not verdict.passed
    assert len(verdict.violators) == 1
    assert verdict.violators[0].cycle == 1


def test_export_lines_roundtrippable_text():
    log = MutationLog()
    log.append(_rec())
    log.append(_rec(cycle=3, spec=True, probe=True, op="lru_touch"))
    text = log.export_lines()
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert "spec=1" in lines[1] and "probe=1" in lines[1]


def _suite_trace():
    spec = SyntheticWorkloadSpec(pattern="MIXED", count=6000, seed=17,
                                 recomputable_fraction=0.5, mispredict_rate=0.15)
    return gen_synthetic(spec)


def _probe_for(t):
    br = next(i.seq for i in t.instructions
              if i.kind == "BRANCH" and not i.br.predicted_correctly)
    return core.ProbeSpec(branch_seq=br,
                          load_addrs=tuple(0x7100_0000 + i * 64 for i in range(6)))


def test_differential_identical_runs_equal():
    t = _suite_trace()
    cfg = core.CoreConfig(policy="DOM")
    a = core.run(t, config=cfg)
    b = core.run(t, config=cfg)
    assert differential_check(a, b).equal


def test_differential_probe_pairs():
    t = _suite_trace()
    table, _ = annotate(t)
    probe = _probe_for(t)
    for policy, expect_equal in (("DOM", True), ("VRC", True), ("BASELINE", False)):
        cfg = core.CoreConfig(policy=policy)
        clean = core.run(t, annotations=table, config=cfg)
        probed = core.inject_transient_probe(t, probe, annotations=table, config=cfg)
        result = differential_check(clean, probed)
        assert result.equal == expect_equal, policy
        if policy == "BASELINE":
            assert not assert_invisibility(probed.mutation_log).passed
        else:
            assert assert_invisibility(probed.mutation_log).passed


def test_log_replay_equals_live_digest_end_to_end():
    t = _suite_trace()
    for policy in ("BASELINE", "DOM"):
        r = core.run(t, config=core.CoreConfig(policy=policy))
        assert replay_log(r.mutation_log) == r.memhier_digest


def test_committed_filter_excludes_probe_records():
    log = MutationLog()
    log.append(_rec())
    log.append(_rec(spec=True, probe=True))
    assert len(log.committed_records()) == 1
    assert len(log.speculative_records()) == 1


def _runs(records_a, records_b):
    """Two stand-in runs with equal digests and the given mutation logs."""
    return (SimpleNamespace(memhier_digest="d", mutation_log=MutationLog(records_a)),
            SimpleNamespace(memhier_digest="d", mutation_log=MutationLog(records_b)))


def test_differential_reports_first_mismatching_record():
    a = [_rec(cycle=0), _rec(cycle=1), _rec(cycle=2)]
    b = [_rec(cycle=0), _rec(cycle=1, line=0x80), _rec(cycle=2)]
    result = differential_check(*_runs(a, b))
    assert not result.equal
    assert result.detail == "mutation log mismatch"
    assert result.first_divergence is a[1]


def test_differential_reports_first_extra_record_of_longer_log():
    short = [_rec(cycle=0), _rec(cycle=1)]
    long = short + [_rec(cycle=2), _rec(cycle=3)]
    for a, b in ((short, long), (long, short)):
        result = differential_check(*_runs(a, b))
        assert not result.equal
        assert result.detail == "mutation log length mismatch"
        assert result.first_divergence is long[2]


def test_differential_ignores_probe_records():
    a = [_rec(cycle=0), _rec(cycle=1, probe=True, line=0x80), _rec(cycle=2)]
    b = [_rec(cycle=0), _rec(cycle=2)]
    assert differential_check(*_runs(a, b)).equal


def test_run_results_survive_pickle():
    t = _suite_trace()
    clean = core.run(t, config=core.CoreConfig(policy="DOM"))
    probed = core.inject_transient_probe(t, _probe_for(t),
                                         config=core.CoreConfig(policy="BASELINE"))
    assert any(r.probe for r in probed.mutation_log)
    for r in (clean, probed):
        back = pickle.loads(pickle.dumps(r))
        assert type(back.mutation_log) is MutationLog
        assert back.mutation_log.export_lines() == r.mutation_log.export_lines()
        assert back.memhier_digest == r.memhier_digest
        assert differential_check(r, back).equal
