"""Command-line harness: generate traces, build slice annotations, run and
compare policies, and audit transient invisibility.

Exit codes: 0 success, 1 usage error, 2 input error, 3 audit failure, 4 a
run of `compare` or `audit` committed values that differ from the in-order
replay oracle (reported as the policy, the first divergent seq and the
expected and committed values; it takes precedence over 3).
Defaults < config file (flat key=value, keys named like the long flags)
< command-line flags. Config-file entries are parsed as the flags they name,
so they satisfy required flags and are checked like them; a key the command
has no flag for is a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import audit as audit_mod
from . import core, metrics, slicer, trace as trace_mod, workloads
from .memhier import CacheConfig
from .replay import functional_replay
from .vp import VpConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_AUDIT = 3
EXIT_ORACLE = 4


class InputError(Exception):
    pass


# every accepted --pattern spelling -> the generator's pattern name
_PATTERNS = {p.lower(): p for p in workloads.PATTERNS} | {
    "compute": "COMPUTE_STORE_LOAD", "chase": "POINTER_CHASE",
}
# gen's flag for each generator knob -> its SyntheticWorkloadSpec field,
# whose default the flag takes
_GEN_KNOBS = {
    "--branch-density": "branch_density", "--mispredict-rate": "mispredict_rate",
    "--load-density": "load_density", "--store-density": "store_density",
    "--working-set": "working_set_bytes", "--recomputable": "recomputable_fraction",
}


def _parse_probe(text: str) -> core.ProbeSpec:
    fields = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        if key == "branch":
            fields["branch"] = int(value, 0)
        elif key == "loads":
            fields.setdefault("loads", []).append(int(value, 0))
        elif key == "":
            continue
        elif "loads" in fields:
            fields["loads"].append(int(part, 0))
        else:
            raise InputError(f"bad probe spec field {part!r}")
    if "branch" not in fields or not fields.get("loads"):
        raise InputError("probe spec needs branch=<seq>,loads=<hex,...>")
    return core.ProbeSpec(branch_seq=fields["branch"],
                          load_addrs=tuple(fields["loads"]))


def _auto_probe(t: trace_mod.Trace) -> core.ProbeSpec:
    for ins in t.instructions:
        if ins.kind == "BRANCH" and not ins.br.predicted_correctly:
            addrs = tuple(0x7000_0000 + i * 64 for i in range(8))
            return core.ProbeSpec(branch_seq=ins.seq, load_addrs=addrs)
    raise InputError("trace has no mispredicted branch to attach a probe to")


def _config_flags(path: str, argv: list[str]) -> list[str]:
    """The config file's entries as flag tokens, less the flags argv sets."""
    values = {}
    # entries end at a line feed only, as trace records do
    for line in Path(path).read_bytes().decode("utf-8").split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        values["--" + key.strip().replace("_", "-")] = value.strip()
    return [token for flag, value in values.items()
            if not any(a == flag or a.startswith(flag + "=") for a in argv)
            for token in (flag, value)]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", help="trace file")
    parser.add_argument("--annotations", help="annotation file")
    parser.add_argument("--policy", action="append", default=None,
                        choices=core.POLICIES, help="repeatable")
    parser.add_argument("--mem-latency", type=int, default=None)
    parser.add_argument("--consistency", choices=("tso", "rc"), default="tso")
    parser.add_argument("--max-len", type=int, default=slicer.DEFAULT_MAX_SLICE_LEN)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=VpConfig.seed,
                        help="seeds the VP predictor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrcsim",
        description="delay-on-miss / value-prediction / value-recomputation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic trace")
    _add_common(p_gen)
    defaults = {f.name: f.default
                for f in dataclasses.fields(workloads.SyntheticWorkloadSpec)}
    p_gen.add_argument("--seed", type=int, default=defaults["seed"])
    p_gen.add_argument("--pattern", required=True, choices=_PATTERNS)
    p_gen.add_argument("--count", type=int, required=True)
    for flag, name in _GEN_KNOBS.items():
        p_gen.add_argument(flag, dest=name, type=type(defaults[name]),
                           default=defaults[name])
    p_gen.add_argument("--out", default="trace.txt")

    p_slice = sub.add_parser("slice", help="build slice annotations for a trace")
    _add_common(p_slice)
    p_slice.add_argument("--trace", required=True)
    p_slice.add_argument("--max-len", type=int, default=slicer.DEFAULT_MAX_SLICE_LEN)
    p_slice.add_argument("--out", default="annotations.txt")

    p_cmp = sub.add_parser("compare", help="run policies and compare metrics")
    _add_common(p_cmp)
    _add_run_flags(p_cmp)

    p_audit = sub.add_parser("audit", help="probe/no-probe differential audit")
    _add_common(p_audit)
    _add_run_flags(p_audit)
    p_audit.add_argument("--probe", help="branch=<seq>,loads=<hex,...>")
    return parser


def cmd_gen(args) -> int:
    spec = workloads.SyntheticWorkloadSpec(
        pattern=_PATTERNS[args.pattern], count=args.count, seed=args.seed,
        **{name: getattr(args, name) for name in _GEN_KNOBS.values()})
    t = workloads.gen_synthetic(spec)
    trace_mod.save_trace(t, args.out)
    print(f"wrote {len(t)} instructions to {args.out}")
    return EXIT_OK


def cmd_slice(args) -> int:
    t = trace_mod.load_trace(args.trace)
    table, stats = slicer.annotate(t, max_len=args.max_len)
    Path(args.out).write_text(slicer.emit_annotations(table), encoding="utf-8")
    print(f"annotated {stats.annotated_pcs}/{stats.load_pcs} load pcs "
          f"({stats.dynamic_coverage:.3f} dynamic coverage), "
          f"mean slice len {stats.mean_len:.2f}, max {stats.max_len}")
    print(f"bindings: {dict(stats.binding_histogram)}")
    print(f"failures: { {k.value: v for k, v in stats.failure_histogram.items()} }")
    print(f"wrote annotations to {args.out}")
    return EXIT_OK


def _prepare_inputs(args):
    if not args.trace:
        raise InputError("--trace is required")
    path = Path(args.trace)
    if not path.exists():
        raise InputError(f"trace file not found: {path}")
    t = trace_mod.load_trace(path)
    report = trace_mod.validate_trace(t)
    if not report.ok:
        raise InputError(f"trace invalid: {report.violations[:3]}")
    policies = args.policy or ["DOM"]
    if "BASELINE" not in policies:
        policies = ["BASELINE"] + policies
    annotations = None
    if args.annotations:
        apath = Path(args.annotations)
        if not apath.exists():
            raise InputError(f"annotation file not found: {apath}")
        annotations = slicer.load_annotations(apath.read_bytes())
    elif any(p in ("VRC", "VRC2") for p in policies):
        annotations, _ = slicer.annotate(t, max_len=args.max_len)
    return t, policies, annotations


def _config_for(args, policy: str) -> core.CoreConfig:
    cache = CacheConfig(mem_latency=args.mem_latency) \
        if args.mem_latency is not None else CacheConfig()
    return core.CoreConfig(policy=policy,
                           consistency=args.consistency.upper(),
                           cache=cache, vp=VpConfig(seed=args.seed))


def _matches_oracle(label: str, result: core.RunResult, oracle) -> bool:
    """False, with the first divergent seq reported, when a run commits
    other values than the replay oracle (the registers follow the values)."""
    for seq, (got, want) in enumerate(zip(result.committed_values, oracle.results)):
        if got != want:
            print(f"error: {label} diverges from the replay oracle at seq {seq}: "
                  f"expected {want!r}, committed {got!r}", file=sys.stderr)
            return False
    return result.committed_regs == oracle.final_regs


def cmd_compare(args) -> int:
    t, policies, annotations = _prepare_inputs(args)
    oracle = functional_replay(t)
    runs = {}
    for policy in policies:
        runs[policy] = core.run(t, annotations=annotations,
                                config=_config_for(args, policy))
    matches = [_matches_oracle(p, r, oracle) for p, r in runs.items()]
    summary = metrics.summarize(runs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "compare.csv").write_text(summary.csv, encoding="utf-8")
    (out / "compare.txt").write_text(summary.table, encoding="utf-8")
    print(summary.table, end="")
    print(f"wrote {out / 'compare.csv'}")
    return EXIT_OK if all(matches) else EXIT_ORACLE


def cmd_audit(args) -> int:
    t, policies, annotations = _prepare_inputs(args)
    probe = _parse_probe(args.probe) if args.probe else _auto_probe(t)
    oracle = functional_replay(t)
    failures = 0
    matches = []
    for policy in policies:
        cfg = _config_for(args, policy)
        clean = core.run(t, annotations=annotations, config=cfg)
        probed = core.inject_transient_probe(t, probe, annotations=annotations,
                                             config=cfg)
        matches += [_matches_oracle(policy, clean, oracle),
                    _matches_oracle(f"{policy} probed", probed, oracle)]
        diff = audit_mod.differential_check(clean, probed)
        verdict = audit_mod.assert_invisibility(probed.mutation_log)
        secure = policy in core.SECURE_POLICIES
        status = "EQUAL" if diff.equal else "DIVERGENT"
        inv = "PASS" if verdict.passed else "FAIL"
        expected = "(expected: leaky)" if not secure else ""
        print(f"{policy:>10}: differential={status} invisibility={inv} {expected}")
        if secure and (not diff.equal or not verdict.passed):
            failures += 1
            if diff.first_divergence is not None:
                print(f"           first divergence: {diff.first_divergence.format_line()}")
            for rec in verdict.violators[:5]:
                print(f"           violator: {rec.format_line()}")
    if not all(matches):
        return EXIT_ORACLE
    return EXIT_AUDIT if failures else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # config file entries go in right after the subcommand, as flags, so
    # that argparse checks them and the command line's own flags win
    for i, arg in enumerate(argv):
        if arg == "--config" or arg.startswith("--config="):
            try:
                path = arg[len("--config="):] or argv[i + 1]
                argv[1:1] = _config_flags(path, argv)
            except (IndexError, OSError, UnicodeDecodeError) as e:
                print(f"error: cannot read config file: {e}", file=sys.stderr)
                return EXIT_INPUT
            break
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "slice":
            return cmd_slice(args)
        if args.command == "compare":
            return cmd_compare(args)
        return cmd_audit(args)
    except (InputError, trace_mod.TraceFormatError, workloads.SyntheticSpecError,
            slicer.AnnotationFormatError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
