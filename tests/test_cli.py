import filecmp
import time

import pytest

from vrcsim.cli import _config_for, build_parser, main
from vrcsim.slicer import emit_annotations, load_annotations, AnnotationTable, \
    Slice, SliceInstr, const_op, annotate
from vrcsim.trace import load_trace
from vrcsim.vp import VpConfig


def _gen(tmp_path, name="tr.txt", count=6000, seed=5, recomputable=1.0,
         extra=()):
    out = tmp_path / name
    code = main(["gen", "--pattern", "compute", "--count", str(count),
                 "--seed", str(seed), "--recomputable", str(recomputable),
                 "--out", str(out), *extra])
    assert code == 0
    return out


def test_gen_deterministic_files(tmp_path):
    a = _gen(tmp_path, "a.txt", count=2000)
    b = _gen(tmp_path, "b.txt", count=2000)
    assert a.read_text() == b.read_text()


def test_gen_invalid_pattern_usage_error(tmp_path):
    assert main(["gen", "--pattern", "bogus", "--count", "10",
                 "--out", str(tmp_path / "x.txt")]) == 1


def test_gen_infeasible_spec_input_error(tmp_path):
    assert main(["gen", "--pattern", "compute", "--count", "0",
                 "--out", str(tmp_path / "x.txt")]) == 2


def test_slice_missing_trace_input_error(tmp_path):
    assert main(["slice", "--trace", str(tmp_path / "absent.txt")]) == 2


def test_slice_default_max_len_and_output(tmp_path, capsys):
    tr = _gen(tmp_path)
    ann = tmp_path / "ann.txt"
    assert main(["slice", "--trace", str(tr), "--out", str(ann)]) == 0
    table = load_annotations(ann.read_text())
    assert table.slices
    assert all(len(s.instrs) <= 100 for s in table.slices.values())


def test_slice_max_len_one_drops_coverage(tmp_path):
    tr = _gen(tmp_path)
    t = load_trace(tr)
    _, full = annotate(t, max_len=100)
    _, short = annotate(t, max_len=1)
    assert short.annotated_pcs < full.annotated_pcs
    assert short.dynamic_coverage < full.dynamic_coverage


def test_compare_adds_baseline_and_exits_zero(tmp_path):
    tr = _gen(tmp_path, count=4000)
    out = tmp_path / "results"
    assert main(["compare", "--trace", str(tr), "--policy", "DOM",
                 "--out", str(out)]) == 0
    csv = (out / "compare.csv").read_text()
    rows = [ln.split(",")[0] for ln in csv.strip().splitlines()[1:]]
    assert rows == ["BASELINE", "DOM"]  # baseline always added


def test_compare_unknown_policy_usage_error(tmp_path):
    tr = _gen(tmp_path, count=2000)
    assert main(["compare", "--trace", str(tr), "--policy", "TURBO"]) == 1


def test_compare_deterministic_csv(tmp_path):
    tr = _gen(tmp_path, count=4000)
    for d in ("r1", "r2"):
        assert main(["compare", "--trace", str(tr), "--policy", "DOM",
                     "--policy", "VRC", "--seed", "1",
                     "--out", str(tmp_path / d)]) == 0
    assert filecmp.cmp(tmp_path / "r1" / "compare.csv",
                       tmp_path / "r2" / "compare.csv", shallow=False)


def test_compare_skip_limit_window(tmp_path):
    tr = _gen(tmp_path, count=4000)
    out = tmp_path / "w"
    assert main(["compare", "--trace", str(tr), "--policy", "DOM",
                 "--skip", "500", "--limit", "1000", "--out", str(out)]) == 0
    csv = (out / "compare.csv").read_text()
    committed = int(csv.strip().splitlines()[1].split(",")[2])
    assert committed == 1000


@pytest.mark.parametrize("command,flag", [("compare", "--skip"),
                                          ("audit", "--limit")])
def test_negative_window_is_an_input_error(tmp_path, capsys, command, flag):
    tr = _gen(tmp_path, count=300)
    assert main([command, "--trace", str(tr), "--policy", "DOM", flag, "-5",
                 "--out", str(tmp_path / "w")]) == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_negative_mem_latency_is_an_input_error(tmp_path, capsys):
    tr = tmp_path / "stream.txt"
    assert main(["gen", "--pattern", "stream", "--count", "300",
                 "--out", str(tr)]) == 0
    assert main(["compare", "--trace", str(tr), "--policy", "DOM",
                 "--mem-latency", "-100", "--out", str(tmp_path / "m")]) == 2
    assert "mem_latency must be >= 0" in capsys.readouterr().err


def test_compare_config_file_defaults(tmp_path):
    tr = _gen(tmp_path, count=3000)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("mem-latency = 40\nconsistency = rc\n")
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert main(["compare", "--trace", str(tr), "--policy", "DOM",
                 "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["compare", "--trace", str(tr), "--policy", "DOM",
                 "--mem-latency", "40", "--consistency", "rc",
                 "--out", str(out2)]) == 0
    assert (out1 / "compare.csv").read_text() == (out2 / "compare.csv").read_text()


def test_config_equals_form(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("pattern = stream\ncount = 20\n")
    out = tmp_path / "t.txt"
    assert main(["gen", f"--config={cfg}", "--out", str(out)]) == 0
    assert len(load_trace(out)) == 20


def test_gen_required_flags_from_config(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("pattern = stream\ncount = 20\n")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["gen", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["gen", "--pattern", "stream", "--count", "20",
                 "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    # the command line still wins over the file
    assert main(["gen", "--config", str(cfg), "--count", "30",
                 "--out", str(a)]) == 0
    assert len(load_trace(a)) == 30


def test_slice_trace_from_config(tmp_path):
    tr = _gen(tmp_path, count=2000)
    cfg = tmp_path / "slice.cfg"
    cfg.write_text(f"trace = {tr}\n")
    ann = tmp_path / "ann.txt"
    assert main(["slice", "--config", str(cfg), "--out", str(ann)]) == 0
    assert load_annotations(ann.read_text()).slices


def test_config_policy_is_a_policy_list(tmp_path):
    tr = _gen(tmp_path, count=2000)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("policy = VRC\n")

    def rows(*extra):
        out = tmp_path / "out"
        assert main(["compare", "--trace", str(tr), "--config", str(cfg),
                     *extra, "--out", str(out)]) == 0
        csv = (out / "compare.csv").read_text()
        return [ln.split(",")[0] for ln in csv.strip().splitlines()[1:]]

    assert rows() == ["BASELINE", "VRC"]
    assert rows("--policy", "DOM") == ["BASELINE", "DOM"]


def test_config_values_checked_like_flags(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("pattern = bogus\ncount = 10\n")
    assert main(["gen", "--config", str(cfg),
                 "--out", str(tmp_path / "x.txt")]) == 1
    tr = _gen(tmp_path, count=500)
    for text in ("consistency = sc\n",      # not a choice
                 "mem-latency = forty\n",   # not an int
                 "no-such-flag = 1\n"):     # no such flag
        cfg.write_text(text)
        assert main(["compare", "--trace", str(tr), "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1, text


def test_audit_secure_policies_exit_zero(tmp_path):
    tr = _gen(tmp_path, count=6000, extra=("--mispredict-rate", "0.2"))
    assert main(["audit", "--trace", str(tr), "--policy", "DOM",
                 "--policy", "VRC"]) == 0


def test_audit_baseline_reported_but_exit_zero(tmp_path, capsys):
    tr = _gen(tmp_path, count=6000, extra=("--mispredict-rate", "0.2"))
    assert main(["audit", "--trace", str(tr), "--policy", "BASELINE"]) == 0
    out = capsys.readouterr().out
    assert "DIVERGENT" in out and "expected: leaky" in out


def _evil_annotations(tmp_path, tr):
    """An adversarial rewrite plan: every annotatable load pc recomputes
    garbage."""
    table, _ = annotate(load_trace(tr))
    evil = AnnotationTable()
    evil.slices[0] = Slice(
        slice_id=0, instrs=(SliceInstr(0, "ADD", (const_op(0xbad), const_op(1))),),
        producer_store_addr=0xdead000, producer_store_size=8,
        producer_store_seq=0, producer_store_pc=0x2, root_value=0xbae,
        hist_requirements=(), live_bindings=(), immutable=True)
    evil.slice_tags[0] = ((0xdead000, 8),)
    for pc in table.rcmp_sites:
        evil.rcmp_sites[pc] = 0
    ann = tmp_path / "evil.txt"
    ann.write_text(emit_annotations(evil))
    return ann


def test_audit_with_compromised_annotations_still_secure(tmp_path, capsys):
    tr = _gen(tmp_path, count=6000, extra=("--mispredict-rate", "0.2"))
    ann = _evil_annotations(tmp_path, tr)
    # the hierarchy stays invisible, but the garbage values are committed
    assert main(["audit", "--trace", str(tr), "--annotations", str(ann),
                 "--policy", "VRC"]) == 4
    captured = capsys.readouterr()
    assert "EQUAL" in captured.out and "PASS" in captured.out
    assert "error: VRC diverges from the replay oracle" in captured.err
    assert "error: VRC probed diverges from the replay oracle" in captured.err


def test_compare_fails_on_values_the_oracle_does_not_commit(tmp_path, capsys):
    tr = _gen(tmp_path, count=6000)
    ann = _evil_annotations(tmp_path, tr)
    assert main(["compare", "--trace", str(tr), "--annotations", str(ann),
                 "--policy", "DOM", "--policy", "VRC",
                 "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1  # BASELINE and DOM commit the oracle's values
    assert err[0].startswith("error: VRC diverges from the replay oracle at seq ")
    assert "expected " in err[0] and ", committed 2990" in err[0]
    assert (tmp_path / "out" / "compare.csv").exists()


def test_bad_annotations_are_an_input_error(tmp_path, capsys):
    tr = _gen(tmp_path, count=2000)
    ann = tmp_path / "bad.txt"
    ann.write_text("A version=1\n"
                   "S slice_id=0 tag=0x100 size=8 seq=0 ppc=0x900 root=0x5 "
                   "immutable=1 len=1\n"
                   "  P pos=0 op=FOO a=C:0x2 b=C:0x3\n"
                   "  T addr=0x100 size=8\n")
    assert main(["compare", "--trace", str(tr), "--annotations", str(ann),
                 "--policy", "VRC", "--out", str(tmp_path / "out")]) == 2
    assert "unknown op 'FOO'" in capsys.readouterr().err


def test_seed_reaches_vp_config():
    parser = build_parser()
    for cmd in ("compare", "audit"):
        args = parser.parse_args([cmd, "--seed", "7"])
        assert _config_for(args, "VP").vp.seed == 7
        # without the flag the predictor keeps its own default seed
        args = parser.parse_args([cmd])
        assert _config_for(args, "VP").vp == VpConfig()
    with pytest.raises(SystemExit):     # annotate has nothing to seed
        parser.parse_args(["slice", "--trace", "tr.txt", "--seed", "1"])


def test_probe_flag_parsing(tmp_path):
    tr = _gen(tmp_path, count=6000, extra=("--mispredict-rate", "0.2"))
    t = load_trace(tr)
    br = next(i.seq for i in t.instructions
              if i.kind == "BRANCH" and not i.br.predicted_correctly)
    assert main(["audit", "--trace", str(tr), "--policy", "DOM",
                 "--probe", f"branch={br},loads=0x71000000,0x71000040"]) == 0
    # a probe site that is not a mispredicted branch is an input error
    good = next(i.seq for i in t.instructions
                if i.kind == "BRANCH" and i.br.predicted_correctly)
    assert main(["audit", "--trace", str(tr), "--policy", "DOM",
                 "--probe", f"branch={good},loads=0x71000000"]) == 2


def test_full_policy_matrix_within_budget(tmp_path):
    tr = _gen(tmp_path, count=10_000, recomputable=0.5)
    t0 = time.time()
    args = ["compare", "--trace", str(tr), "--out", str(tmp_path / "m")]
    for policy in ("DOM", "VP", "VRC", "VRC2", "ORACLE_VP", "ORACLE_VRC"):
        args += ["--policy", policy]
    assert main(args) == 0
    elapsed = time.time() - t0
    assert elapsed < 60, f"seven-policy matrix took {elapsed:.1f}s"
    rows = (tmp_path / "m" / "compare.csv").read_text().strip().splitlines()
    assert len(rows) == 8  # header + seven policies
