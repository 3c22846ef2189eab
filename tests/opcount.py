"""Executed bytecodes per simulated instruction on the three bench-shaped
traces, in total and per function, and the issue walk's visits.

    PYTHONPATH=src python3 tests/opcount.py [--top N] [--front] [--lines FUNC]

It counts bytecodes, not time: every Python opcode executed inside the
`core.run` and `core.inject_transient_probe` calls of one iteration is
counted with `sys.settrace` opcode events, and the total is divided by the
instructions those runs committed. Work in C (builtins, `sorted`, `heapq`,
list methods) costs no bytecodes and does not show. The count is
deterministic, so two trees can be compared without host noise; a cut in
bytecodes is a guide to a speed-up, not a measurement of one.

The same runs count, per committed instruction, the frames entered (which
inlining saves more of than bytecodes) and, apart, the resumes of
suspended generators: `sys.settrace` reports both as `call` events, and
the commit, issue and dispatch stages are generators that a run makes
once and resumes once per stepped cycle. They also count the committed
loads per instruction, and the issue walk's visits per committed
instruction, how many of them found the op's FU class used up for the
cycle, and how many of those were re-visits, to an op that had found its
class used up before in the same run. The visits come from line events on
the lines of
`_Sim._issue_phase` marked with the comments VISIT_MARK (the first line of
every visit) and STARVED_MARK (where the op's seq is the local `seq`).

The traces are those of `bench/run.py` at seed 1: mixed-sweep (a 1k MIXED
trace under all seven policies), compute-audit (a 1k COMPUTE_STORE_LOAD
trace, 0.75 recomputable and 0.3 mispredicted, under all seven policies
clean and probed, the probe site chosen as the bench does) and
stream-ingest (a 2k STREAM trace under BASELINE and DOM, its decode built
by the first run as when the bench loads it from a file). The file has no
`test_` prefix, so the test suite does not collect it.

With `--lines FUNC` it prints, on each workload, the bytecodes per
committed instruction that each source line of the function FUNC
executed, in line order, instead of the per-function list. FUNC is a
qualified name as the list prints it (`_Sim._issue_phase`) or its last
part (`_issue_phase`); a name that several functions share counts them
all; opcodes that carry no source line are listed under line 0. This is
the view that finds the bookkeeping a hot loop repeats per cycle or per
instruction.

With `--front` it counts the trace front end instead: the bytecodes and
frames per trace instruction of `gen_synthetic`, `emit_trace`, the parse
and `validate_trace` of the parsed trace, on each workload's trace.
Stream-ingest's trace is written with `save_trace` and read back with
`load_trace`, as the bench does; the other two parse the emitted string.
"""

from __future__ import annotations

import argparse
import dis
import inspect
import linecache
import sys
import tempfile
from collections import Counter
from pathlib import Path

from vrcsim import core
from vrcsim.audit import differential_check
from vrcsim.core import CoreConfig, ProbeSpec
from vrcsim.slicer import annotate
from vrcsim.trace import (emit_trace, load_trace, parse_trace, save_trace,
                          validate_trace)
from vrcsim.workloads import SyntheticWorkloadSpec, gen_synthetic

SEED = 1
PROBE_ADDRS = tuple(0x7100_0000 + i * 64 for i in range(8))
PROBE_SITES = 8
VISIT_MARK = "# an issue-walk visit"
STARVED_MARK = "# an FU-starved visit"
_RESUME = dis.opmap["RESUME"]
# name -> (pattern, count, policies, probed, annotated, generator options)
WORKLOADS = {
    "mixed-sweep": ("MIXED", 1_000, core.POLICIES, False, True, {}),
    "compute-audit": ("COMPUTE_STORE_LOAD", 1_000, core.POLICIES, True, True,
                      {"recomputable_fraction": 0.75, "mispredict_rate": 0.3}),
    "stream-ingest": ("STREAM", 2_000, ("BASELINE", "DOM"), False, False,
                      {"load_density": 0.2, "working_set_bytes": 4 << 20}),
}


def _marked_lines(fn, mark: str) -> frozenset:
    lines, first = inspect.getsourcelines(fn)
    return frozenset(first + i for i, line in enumerate(lines) if mark in line)


def _resumes(frame) -> bool:
    """Whether a `call` event resumes a suspended generator, not enters a
    frame: a resume starts at a RESUME instruction whose argument is not 0."""
    code, at = frame.f_code.co_code, frame.f_lasti
    return code[at] == _RESUME and code[at + 1] != 0


class OpCounter:
    """Counts executed opcodes per function, frames entered, generator
    resumes, and the issue walk's visits and FU-starved visits, while
    `call` runs; with `lines`, a function name, also the opcodes per
    source line of that function, keyed by (file name, line number)."""

    def __init__(self, lines: str | None = None):
        self.counts: Counter = Counter()
        self.lines = lines
        self.line_counts: Counter = Counter()
        self.frames = 0
        self.resumes = 0
        self.walk: Counter = Counter()   # "visits", "starved", "revisits"
        self._starved_seqs: set = set()  # of the current call's run
        self._local = {}
        issue = core._Sim._issue_phase
        self._issue_code = issue.__code__
        self._marks = {line: "visits" for line in _marked_lines(issue, VISIT_MARK)}
        self._marks.update(
            (line, "starved") for line in _marked_lines(issue, STARVED_MARK))

    def _tracer(self, frame, event, arg):
        # the global tracer sees only `call` events
        if _resumes(frame):
            self.resumes += 1
        else:
            self.frames += 1
        code = frame.f_code
        local = self._local.get(code)
        if local is None:
            key = f"{code.co_qualname} ({code.co_filename.rsplit('/', 1)[-1]}" \
                  f":{code.co_firstlineno})"
            counts = self.counts
            by_line = self.lines in (code.co_qualname, code.co_name)
            line_counts, filename = self.line_counts, code.co_filename
            if code is self._issue_code:
                walk, marks = self.walk, self._marks

                def local(frame, event, arg):
                    if event == "opcode":
                        counts[key] += 1
                        if by_line:
                            line_counts[filename, frame.f_lineno or 0] += 1
                    elif event == "line" and frame.f_lineno in marks:
                        mark = marks[frame.f_lineno]
                        walk[mark] += 1
                        if mark == "starved":
                            seq = frame.f_locals["seq"]
                            if seq in self._starved_seqs:
                                walk["revisits"] += 1
                            self._starved_seqs.add(seq)
                    return local
            elif by_line:
                def local(frame, event, arg):
                    if event == "opcode":
                        counts[key] += 1
                        line_counts[filename, frame.f_lineno or 0] += 1
                    return local
            else:
                def local(frame, event, arg):
                    if event == "opcode":
                        counts[key] += 1
                    return local
            self._local[code] = local
        frame.f_trace_lines = code is self._issue_code
        frame.f_trace_opcodes = True
        return local

    def call(self, fn, *args, **kwargs):
        self._starved_seqs.clear()
        sys.settrace(self._tracer)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.settrace(None)


def count_workload(name: str, lines: str | None = None
                   ) -> tuple[Counter, Counter, int, Counter]:
    """Opcode counts per function over one iteration's core runs, the issue
    walk's visit counts and the frames, resumes and loads (under "frames",
    "resumes" and "loads" in the second), the instructions they committed,
    and the opcode counts per source line of the function `lines`."""
    pattern, count, policies, probed, annotated, spec = WORKLOADS[name]
    t = gen_synthetic(SyntheticWorkloadSpec(pattern=pattern, count=count,
                                            seed=SEED, **spec))
    table = annotate(t)[0] if annotated else None
    sites = [i.seq for i in t.instructions if i.kind == "BRANCH"
             and not i.br.predicted_correctly][:PROBE_SITES] if probed else []
    counter = OpCounter(lines)
    committed = 0
    probe = None
    loads = sum(i.kind == "LOAD" for i in t.instructions)
    runs = 0
    for policy in policies:
        cfg = CoreConfig(policy=policy)
        clean = counter.call(core.run, t, annotations=table, config=cfg)
        committed += clean.committed
        runs += 1
        if policy == "BASELINE":
            # the first site whose probe leaves a trace in the hierarchy
            for site in sites:
                candidate = ProbeSpec(site, PROBE_ADDRS)
                result = counter.call(core.inject_transient_probe, t, candidate,
                                      annotations=table, config=cfg)
                committed += result.committed
                runs += 1
                if not differential_check(clean, result).equal:
                    probe = candidate
                    break
        elif probe is not None:
            result = counter.call(core.inject_transient_probe, t, probe,
                                  annotations=table, config=cfg)
            committed += result.committed
            runs += 1
    counter.walk["frames"] = counter.frames
    counter.walk["resumes"] = counter.resumes
    counter.walk["loads"] = loads * runs  # each run commits the whole trace
    return counter.counts, counter.walk, committed, counter.line_counts


def count_front(name: str) -> tuple[list[tuple[str, int, int]], int]:
    """(stage, bytecodes, frames) for each front-end stage on the
    workload's trace, and the trace's instruction count."""
    pattern, count, _, _, _, spec = WORKLOADS[name]
    spec = SyntheticWorkloadSpec(pattern=pattern, count=count, seed=SEED, **spec)
    stages = []

    def stage(label, fn, *args):
        counter = OpCounter()
        result = counter.call(fn, *args)
        stages.append((label, sum(counter.counts.values()), counter.frames))
        return result

    t = stage("gen_synthetic", gen_synthetic, spec)
    if name == "stream-ingest":
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.txt"
            stage("save_trace", save_trace, t, path)
            parsed = stage("load_trace", load_trace, path)
    else:
        parsed = stage("parse_trace", parse_trace, stage("emit_trace", emit_trace, t))
    stage("validate_trace", validate_trace, parsed)
    return stages, len(t)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--top", type=int, default=12,
                    help="functions listed per workload (default 12)")
    ap.add_argument("--front", action="store_true",
                    help="count the trace front end, not the core runs")
    ap.add_argument("--lines", metavar="FUNC",
                    help="bytecodes per instruction of each source line of FUNC")
    args = ap.parse_args(argv)
    if args.front:
        for name in WORKLOADS:
            stages, n = count_front(name)
            print(f"{name}: front end per trace instruction ({n} instructions)")
            for label, ops, frames in stages:
                print(f"  {label:15} {ops / n:8.1f} bytecodes {frames / n:6.2f} frames")
        return 0
    for name in WORKLOADS:
        counts, walk, committed, line_counts = count_workload(name, args.lines)
        total = sum(counts.values())
        if args.lines:
            print(f"{name}: {args.lines} per instruction, by source line "
                  f"({total / committed:.1f} bytecodes per instruction in all)")
            if not line_counts:
                print(f"  {args.lines} did not run")
            for (filename, lineno), n in sorted(line_counts.items()):
                source = linecache.getline(filename, lineno).rstrip() \
                    if lineno else "(an opcode with no source line)"
                print(f"  {n / committed:8.2f}  {lineno:5}  {source}")
            continue
        print(f"{name}: {total / committed:.1f} bytecodes per instruction "
              f"({total} over {committed} committed)")
        print(f"  {walk['frames'] / committed:.2f} frames entered, "
              f"{walk['resumes'] / committed:.2f} generator resumes and "
              f"{walk['loads'] / committed:.3f} loads per instruction")
        print(f"  issue walk: {walk['visits'] / committed:.3f} visits per "
              f"instruction, {walk['starved'] / committed:.3f} of them "
              f"FU-starved, {walk['revisits'] / committed:.3f} re-visits "
              "of an op starved before")
        for key, n in counts.most_common(args.top):
            print(f"  {n / committed:8.1f}  {100 * n / total:5.1f}%  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
