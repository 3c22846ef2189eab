#!/usr/bin/env python3
"""vrcsim benchmark: one named workload per process, replay-oracle gated.

    python3 bench/run.py --workload mixed-sweep --seed 1 --seconds 40 --trace 0

Each iteration generates the seed's input, prepares it through the
package's public functions (gen, emit or save, parse or load, validate,
annotate, annotation emit and load, functional_replay), runs every policy of
the workload and checks every committed result against the in-order replay
oracle. Iterations repeat until `--seconds` have passed; each timing is the
sum of every call's fastest repetition, in reference seconds (see
REF_SECONDS). The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (tracing off). With
`--trace 1` every iteration runs its input twice, once untraced and once with
spans recorded around each call into a vrcsim layer, and the metrics are the
per-layer ones plus the tracing overhead. A full record (per-iteration
samples, fingerprints, failures and, when traced, every span) is written to
`.bench_out/` at the root of the checkout. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

ALL_POLICIES = ("BASELINE", "DOM", "VP", "VRC", "VRC2", "ORACLE_VP", "ORACLE_VRC")
# wrong-path probe lines, far from every address the generator uses
PROBE_ADDRS = tuple(0x7100_0000 + i * 64 for i in range(8))
PROBE_SITES = 8           # mispredicted branches tried as the probe site
IMPORT_TRIES = 20         # fresh interpreters that time `import vrcsim`
# Host times are reported in reference seconds: host seconds scaled by
# REF_SECONDS / the fastest time of the reference kernel in the same run.
# REF_SECONDS is about the kernel's fastest time on a shared 2-vCPU 2.1 GHz
# VM, so reference seconds stay close to host seconds there.
REF_SECONDS = 0.0033


@dataclass(frozen=True)
class Workload:
    pattern: str
    count: int                    # instructions per iteration at scale 1
    policies: tuple[str, ...]
    probe: bool                   # also run each policy probed and audit it
    via_files: bool               # save/load the trace instead of emit/parse
    annotate: bool
    spec: dict = field(default_factory=dict)


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "mixed-sweep": Workload(
        pattern="MIXED", count=1_000, policies=ALL_POLICIES, probe=False,
        via_files=False, annotate=True),
    "compute-audit": Workload(
        pattern="COMPUTE_STORE_LOAD", count=1_000, policies=ALL_POLICIES,
        probe=True, via_files=False, annotate=True,
        spec={"recomputable_fraction": 0.75, "mispredict_rate": 0.3}),
    "stream-ingest": Workload(
        pattern="STREAM", count=2_000, policies=("BASELINE", "DOM"),
        probe=False, via_files=True, annotate=False,
        spec={"load_density": 0.2, "working_set_bytes": 4 << 20}),
}

END_TO_END = {"wall_s": "s", "sim_kips": "kinstr/s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def _per_layer_units() -> dict[str, str]:
    units = {
        "trace.gen_s": "s", "trace.emit_s": "s", "trace.parse_s": "s",
        "trace.validate_s": "s", "trace.instructions": "count",
        "trace.text_bytes": "bytes",
        "slicer.annotate_s": "s", "slicer.emit_s": "s", "slicer.load_s": "s",
        "slicer.annotated_pcs": "count", "slicer.dynamic_coverage": "ratio",
        "slicer.mean_len": "instr",
        "replay.replay_s": "s",
    }
    for p in ALL_POLICIES:
        units[f"core.run_s.{p}"] = "s"
        units[f"core.probe_s.{p}"] = "s"
        units[f"core.kips.{p}"] = "kinstr/s"
        units[f"core.kcycles_per_s.{p}"] = "kcycles/s"
        units[f"core.cycles.{p}"] = "cycles"
        units[f"core.ipc.{p}"] = "instr/cycle"
    for name in ("fu_ops", "replayed_ops", "store_commit_stalls"):
        units[f"core.{name}"] = "count"
    units["shadows.shadowed_load_fraction"] = "ratio"
    units["shadows.delayed_loads"] = "count"
    for name in ("l1_hits", "l1_misses", "mshr_hits", "l2_hits", "mem_accesses",
                 "mshr_stalls", "store_forwards", "mutations"):
        units[f"memhier.{name}"] = "count"
    for name in ("lookups", "predicted_loads", "validations", "mispredicts"):
        units[f"vp.{name}"] = "count"
    units["vp.useful_ratio"] = "ratio"
    for name in ("recomputes", "recompute_done", "cancelled_recomputes",
                 "unsound_recomputes", "hist_overflows"):
        units[f"vrc.{name}"] = "count"
    units["vrc.done_ratio"] = "ratio"
    units["vrc.slice_cycles"] = "cycles"
    units["audit.differential_s"] = "s"
    units["audit.invisibility_s"] = "s"
    units["audit.vacuous_sites"] = "count"
    units["metrics.summarize_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["tracing.overhead_s"] = "s"
    units["bench.ref_s"] = "s"
    units["fail_rate"] = "ratio"
    units["src.lines"] = "lines"
    return units


# span name prefix -> layer; "bench" is the benchmark's own work (oracle
# comparisons, bookkeeping) between calls into the package
LAYERS = ("trace", "slicer", "replay", "core", "audit", "metrics", "bench")
SETUP_LAYERS = ("trace", "slicer", "replay")    # all called before core.run
PER_LAYER = _per_layer_units()

# (per-layer metric, span name) for the per-call host times
_LAYER_TIMES = (
    ("trace.gen_s", "trace.gen"), ("trace.emit_s", "trace.emit"),
    ("trace.parse_s", "trace.parse"), ("trace.validate_s", "trace.validate"),
    ("slicer.annotate_s", "slicer.annotate"), ("slicer.emit_s", "slicer.emit"),
    ("slicer.load_s", "slicer.load"), ("replay.replay_s", "replay.replay"),
    ("audit.differential_s", "audit.differential"),
    ("audit.invisibility_s", "audit.invisibility"),
    ("metrics.summarize_s", "metrics.summarize"),
)


# ---------------------------------------------------------------- tracing

@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None        # index of the enclosing span in Tracer.spans
    iteration: int


class Tracer:
    """Times each call into a vrcsim layer. Durations are always summed per
    pass, because the end-to-end metrics need core and set-up time; spans
    are kept in memory only when recording."""

    def __init__(self, record: bool):
        self.record = record
        self.spans: list[Span] = []
        self.durations: dict[str, float] = defaultdict(float)
        self._root: int | None = None

    def begin_pass(self, iteration: int) -> None:
        self.durations = defaultdict(float)
        self._iteration = iteration
        self._pass_start = time.perf_counter()
        if self.record:
            self._root = len(self.spans)
            self.spans.append(Span("bench.iteration", self._pass_start,
                                   self._pass_start, None, iteration))

    def elapsed(self) -> float:
        return time.perf_counter() - self._pass_start

    def end_pass(self) -> float:
        end = time.perf_counter()
        if self.record:
            self.spans[self._root].end = end
        return end - self._pass_start

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.durations[name] += end - start
            if self.record:
                self.spans.append(Span(name, start, end, self._root,
                                       self._iteration))

    def self_times(self, iteration: int) -> dict[str, float]:
        """Self time per layer for one iteration: each span's duration minus
        the part of it that its child spans cover."""
        index = {i: s for i, s in enumerate(self.spans) if s.iteration == iteration}
        child_time: dict[int, float] = defaultdict(float)
        for s in index.values():
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, s in index.items():
            out[s.name.split(".")[0]] += (s.end - s.start) - child_time[i]
        return out


# ---------------------------------------------------------------- checks

class Gate:
    """Counts operations (one simulation run or one check) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.check(False, what)


def _oracle_mismatch(result, oracle) -> str | None:
    bad = [i for i, (got, want) in enumerate(zip(result.committed_values,
                                                 oracle.results)) if got != want]
    if bad or len(result.committed_values) != len(oracle.results):
        return f"{len(bad)} committed values differ from replay, first seq {bad[:1]}"
    if result.committed_regs != oracle.final_regs:
        return "final registers differ from replay"
    return None


def _fingerprint(result) -> dict:
    counters = json.dumps(sorted(result.counters.items()))
    return {
        "cycles": result.cycles,
        "counters_sha256": hashlib.sha256(counters.encode()).hexdigest(),
        "memhier_digest": result.memhier_digest,
        "mutation_log_sha256": hashlib.sha256(
            result.mutation_log.export_lines().encode()).hexdigest(),
    }


# ---------------------------------------------------------------- one pass

@dataclass
class PassResult:
    wall_s: float
    setup_s: float            # pass start to the first core.run call
    core_s: float
    committed: int
    durations: dict
    cycles: dict              # policy -> simulated cycles of its clean run
    counts: dict | None = None          # iteration 0 only
    fingerprints: dict | None = None    # iteration 0 only


def _run_pass(vs, wl: Workload, seed: int, iteration: int, scale: float,
              tracer: Tracer, gate: Gate, tamper, work_dir: Path) -> PassResult:
    call = tracer.call
    core = vs.core
    spec = vs.SyntheticWorkloadSpec(
        pattern=wl.pattern, count=max(200, int(wl.count * scale)),
        seed=seed, **wl.spec)
    tracer.begin_pass(iteration)
    generated = call("trace.gen", vs.gen_synthetic, spec)
    if wl.via_files:
        path = work_dir / f"trace-{seed}.txt"
        call("trace.emit", vs.save_trace, generated, path)
        text_bytes = path.stat().st_size
        del generated
        t = call("trace.parse", vs.load_trace, path)
        path.unlink()
    else:
        text = call("trace.emit", vs.emit_trace, generated)
        text_bytes = len(text.encode())
        del generated
        t = call("trace.parse", vs.parse_trace, text)
        del text
    report = call("trace.validate", vs.validate_trace, t)
    gate.check(report.ok, f"trace validation: {report.violations[:3]}")
    table = stats = None
    if wl.annotate:
        table, stats = call("slicer.annotate", vs.annotate, t)
        ann_text = call("slicer.emit", vs.emit_annotations, table)
        table = call("slicer.load", vs.load_annotations, ann_text)
        if tamper is not None:
            table = tamper(table)
    oracle = call("replay.replay", vs.functional_replay, t)
    sites: list[int] = []
    if wl.probe:
        sites = [i.seq for i in t.instructions if i.kind == "BRANCH"
                 and not i.br.predicted_correctly][:PROBE_SITES]
        gate.check(bool(sites), "no mispredicted branch to probe")
    setup_s = tracer.elapsed()

    runs: dict = {}
    probed: dict = {}
    committed = 0             # over every finished run, vacuous probes too

    def simulate(name: str, fn, policy: str, *args):
        nonlocal committed
        try:
            result = call(f"{name}.{policy}", fn, t, *args, annotations=table,
                          config=core.CoreConfig(policy=policy))
        except Exception as e:  # DeadlockError or a model bug: count, go on
            gate.fail(f"{policy} {name} raised {e!r}")
            return None
        committed += result.committed
        bad = _oracle_mismatch(result, oracle)
        gate.check(bad is None, f"{policy} {name}: {bad}")
        if policy in core.SECURE_POLICIES:
            verdict = call("audit.invisibility", vs.assert_invisibility,
                           result.mutation_log)
            gate.check(verdict.passed, f"{policy} {name} invisibility: "
                       f"{len(verdict.violators)} speculative mutations")
        return result

    probe = None
    vacuous_sites = 0
    for policy in wl.policies:
        runs[policy] = simulate("core.run", vs.run, policy)
        if runs[policy] is None:
            del runs[policy]
            continue
        if not sites:
            continue
        if policy == "BASELINE":
            # Keep the first site whose probe leaves a trace in the unprotected
            # hierarchy: a probe that finds every MSHR busy until its branch
            # resolves never issues, and auditing the secure policies there
            # would prove nothing.
            for site in sites:
                candidate = core.ProbeSpec(branch_seq=site, load_addrs=PROBE_ADDRS)
                result = simulate("core.probe", vs.inject_transient_probe,
                                  policy, candidate)
                if result is not None and not call(
                        "audit.differential", vs.differential_check,
                        runs[policy], result).equal:
                    probe, probed[policy] = candidate, result
                    break
                vacuous_sites += 1
            gate.check(probe is not None, f"no BASELINE probe of {len(sites)} "
                       "sites left a trace: vacuous audit")
        elif probe is not None:
            result = simulate("core.probe", vs.inject_transient_probe, policy, probe)
            if result is None:
                continue
            probed[policy] = result
            diff = call("audit.differential", vs.differential_check,
                        runs[policy], result)
            gate.check(diff.equal, f"{policy} audit divergence: {diff.detail}")
    if "BASELINE" in runs:
        summary = call("metrics.summarize", vs.summarize, runs)
        gate.check(list(summary.reports) == list(runs),
                   "summarize dropped or reordered a policy")
    wall_s = tracer.end_pass()
    core_s = sum(d for name, d in tracer.durations.items()
                 if name.startswith("core."))
    result = PassResult(wall_s=wall_s, setup_s=setup_s, core_s=core_s,
                        committed=committed,
                        durations=dict(tracer.durations),
                        cycles={p: r.cycles for p, r in runs.items()})
    if iteration == 0:
        result.counts = _counts(t, text_bytes, stats, runs)
        result.counts["audit.vacuous_sites"] = vacuous_sites
        result.fingerprints = {p: _fingerprint(r) for p, r in runs.items()}
        result.fingerprints.update(
            {f"{p}+probe": _fingerprint(r) for p, r in probed.items()})
    return result


def _counts(t, text_bytes: int, stats, runs: dict) -> dict:
    def counter(policy: str, name: str) -> int:
        return runs[policy].counters.get(name, 0) if policy in runs else 0

    out = {"trace.instructions": len(t), "trace.text_bytes": text_bytes,
           "slicer.annotated_pcs": stats.annotated_pcs if stats else 0,
           "slicer.dynamic_coverage": stats.dynamic_coverage if stats else 0.0,
           "slicer.mean_len": stats.mean_len if stats else 0.0}
    for p in ALL_POLICIES:
        r = runs.get(p)
        out[f"core.cycles.{p}"] = r.cycles if r else 0
        out[f"core.ipc.{p}"] = r.committed / r.cycles if r and r.cycles else 0.0
    for name in ("fu_ops", "replayed_ops", "store_commit_stalls"):
        out[f"core.{name}"] = sum(counter(p, name) for p in runs)
    out["shadows.shadowed_load_fraction"] = \
        runs["DOM"].shadow_stats[0] if "DOM" in runs else 0.0
    out["shadows.delayed_loads"] = counter("DOM", "delayed_loads")
    for name in ("l1_hits", "l1_misses", "mshr_hits", "l2_hits", "mem_accesses",
                 "mshr_stalls", "store_forwards"):
        out[f"memhier.{name}"] = sum(counter(p, name) for p in runs)
    out["memhier.mutations"] = sum(len(r.mutation_log) for r in runs.values())
    predicted = counter("VP", "predicted_loads")
    mispredicts = counter("VP", "vp_mispredicts")
    out.update({"vp.lookups": counter("VP", "vp_lookups"),
                "vp.predicted_loads": predicted,
                "vp.validations": counter("VP", "validations"),
                "vp.mispredicts": mispredicts,
                "vp.useful_ratio": (predicted - mispredicts) / predicted
                if predicted else 0.0})
    for name in ("recomputes", "recompute_done", "cancelled_recomputes",
                 "unsound_recomputes", "hist_overflows", "slice_cycles"):
        out[f"vrc.{name}"] = counter("VRC", name)
    started = counter("VRC", "recomputes")
    out["vrc.done_ratio"] = counter("VRC", "recompute_done") / started if started else 0.0
    return out


# ---------------------------------------------------------------- a whole run

def _import_vrcsim():
    if not (SRC / "vrcsim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no vrcsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vrcsim
    return vrcsim


def _import_once() -> tuple[float, float]:
    """One cold `import vrcsim`, timed in a fresh interpreter, so that the
    once-per-process import can be sampled more than once, and the fastest
    of 5 runs of the reference kernel in the same interpreter, timed after
    the import so as not to preload modules that vrcsim imports."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
             "t = time.perf_counter(); import vrcsim; "
             "print(time.perf_counter() - t); "
             "sys.path.insert(0, sys.argv[2]); import run; "
             "print(min(run._time_reference() for _ in range(5)))")
    out = subprocess.run([sys.executable, "-c", probe, str(SRC),
                          str(Path(__file__).resolve().parent)],
                         capture_output=True, text=True, check=True)
    import_s, ref_s = map(float, out.stdout.split())
    return import_s, ref_s


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key, self.value, self.next = key, value, nxt


def _reference_kernel(n: int = 6000) -> int:
    """Fixed pure-Python work that owes nothing to vrcsim: dict lookups,
    small objects, attribute updates and a list comprehension, the kind of
    work the simulator's interpreter loop does."""
    table = {}
    head = None
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & 0xFFFF
        node = table.get(key & 0x3FF)
        if node is None or node.value & 1:
            head = _Node(key, acc ^ i, head)
            table[key & 0x3FF] = head
        else:
            node.value += key
        acc = (acc + (node.value if node else key)) & 0xFFFFFFFF
        if i % 7 == 0:
            acc ^= sum([acc >> s & 0xFF for s in (0, 8, 16)])
    return acc


def _time_reference() -> float:
    start = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - start


def _src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _best(passes: list, cost) -> float:
    """The fastest repetition of a cost over the passes. Neighbours on a
    shared host only ever add time to a deterministic computation, so the
    fastest repetition is the steadiest estimate of its cost."""
    return min(cost(p) for p in passes)


def _best_of_steps(passes: list) -> dict:
    """Best-of host times of one iteration, step by step: every span's
    fastest repetition plus the fastest benchmark-own rest."""
    def best(names, rest):
        return (sum(min(p.durations.get(n, 0.0) for p in passes) for n in names)
                + min(rest(p) for p in passes))

    names = sorted({n for p in passes for n in p.durations})
    setup_names = [n for n in names if n.split(".")[0] in SETUP_LAYERS]
    core_names = [n for n in names if n.startswith("core.")]
    return {
        "wall_s": best(names, lambda p: p.wall_s - sum(p.durations.values())),
        "setup_s": best(setup_names, lambda p: p.setup_s - sum(
            p.durations.get(n, 0.0) for n in setup_names)),
        "core_s": best(core_names, lambda p: 0.0),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, tamper=None) -> dict:
    """Run one workload for `seconds`, and at least once, and return the
    full record; `tamper` may replace the loaded annotation table, so a
    test can show that the gate catches wrong committed values."""
    wl = WORKLOADS[workload]
    vs = _import_vrcsim()
    work_dir = OUT_DIR / "work"
    if wl.via_files:
        work_dir.mkdir(parents=True, exist_ok=True)
    gate = Gate()
    tracer = Tracer(record=False)
    traced = Tracer(record=True)
    plain: list[PassResult] = []
    spanned: list[PassResult] = []
    ref_samples: list[float] = []
    import_samples: list[tuple[float, float]] = []
    started = time.perf_counter()
    iteration = 0
    while iteration == 0 or time.perf_counter() - started < seconds:
        # import samples are spread evenly over the run, like the passes
        if not trace and len(import_samples) < IMPORT_TRIES and \
                len(import_samples) * seconds <= \
                IMPORT_TRIES * (time.perf_counter() - started):
            import_samples.append(_import_once())
        for tr, sink in ((tracer, plain), (traced, spanned))[:1 + trace]:
            gc.collect()   # the previous pass's garbage is not this pass's cost
            ref_samples.append(_time_reference())
            sink.append(_run_pass(vs, wl, seed, iteration, scale, tr, gate,
                                  tamper, work_dir))
        iteration += 1
    while not trace and len(import_samples) < IMPORT_TRIES:
        import_samples.append(_import_once())
    ref_s = min(ref_samples)
    to_ref = REF_SECONDS / ref_s      # host seconds -> reference seconds

    first = plain[0]
    if trace:
        gate.check(spanned[0].fingerprints == first.fingerprints,
                   "fingerprints differ between two passes over one input")
    record = {
        "workload": workload, "seed": seed, "scale": scale,
        "iterations": iteration, "trace": trace,
        "attempted": gate.attempted, "failed": len(gate.failures),
        "failures": gate.failures[:50],
        "fingerprints": first.fingerprints,
        "ref_s": ref_s, "ref_samples": ref_samples,
        "samples": {
            "wall_s": [p.wall_s for p in plain],
            "setup_s": [p.setup_s for p in plain],
            "core_s": [p.core_s for p in plain],
        },
    }
    if trace:
        metrics = _per_layer_metrics(spanned, plain, traced, gate, first.counts,
                                     to_ref)
        metrics["bench.ref_s"] = ref_s
        record["spans"] = [[s.name, s.start, s.end, s.parent, s.iteration]
                           for s in traced.spans]
    else:
        best = _best_of_steps(plain)
        import_s = (min(i for i, _ in import_samples) * REF_SECONDS
                    / min(ref for _, ref in import_samples))
        metrics = {
            "wall_s": best["wall_s"] * to_ref,
            "setup_s": import_s + best["setup_s"] * to_ref,
            "sim_kips": first.committed / (best["core_s"] * to_ref) / 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["import_s"] = import_s
        record["import_samples"] = import_samples
    units = PER_LAYER if trace else END_TO_END
    record["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units.items()}
    return record


def _per_layer_metrics(spanned, plain, tracer, gate, counts, to_ref) -> dict:
    def time_of(name: str) -> float:
        return to_ref * _best(spanned, lambda p: p.durations.get(name, 0.0))

    metrics = dict(counts)
    for metric, span in _LAYER_TIMES:
        metrics[metric] = time_of(span)
    for p in ALL_POLICIES:
        run_s = time_of(f"core.run.{p}")
        metrics[f"core.run_s.{p}"] = run_s
        metrics[f"core.probe_s.{p}"] = time_of(f"core.probe.{p}")
        per_s = 1 / run_s / 1000 if run_s else 0.0
        metrics[f"core.kips.{p}"] = counts["trace.instructions"] * per_s
        cycles = spanned[0].cycles.get(p, 0)
        metrics[f"core.kcycles_per_s.{p}"] = cycles * per_s
    selfs = [tracer.self_times(i) for i in range(len(spanned))]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = to_ref * _best(selfs, lambda s: s[layer])
    metrics["tracing.overhead_s"] = to_ref * (_best_of_steps(spanned)["wall_s"]
                                              - _best_of_steps(plain)["wall_s"])
    metrics["fail_rate"] = len(gate.failures) / gate.attempted
    metrics["src.lines"] = _src_lines()
    return metrics


# ---------------------------------------------------------------- command line

def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"median={_median(values):.4g} n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median={q2:.4g} q1={q1:.4g} q3={q3:.4g} n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except FileNotFoundError as e:
        print(f"error: {e}; run from a checkout of the repository", file=sys.stderr)
        return 2

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={record['iterations']}")
    for name, values in record["samples"].items():
        print(f"  {name}: {_quartiles(values)}")
    for policy, fp in (record["fingerprints"] or {}).items():
        print(f"  fingerprint {args.workload} {policy}: "
              + " ".join(f"{k}={v}" for k, v in fp.items()))
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
