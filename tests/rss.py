"""Memory use of the core, as three numbers, each read in a fresh
interpreter.

    PYTHONPATH=src python3 tests/rss.py [--count N] [--iterations K]

growth   The resident-set growth of one MIXED run of `--count` instructions
         (default 100k) under VRC. The trace, its annotations and its decode
         are built first; the reading is the current RSS with the finished
         simulator still alive (so everything the run kept per instruction
         is counted) less the RSS just before the run.
loop     The peak RSS (`ru_maxrss`) of `--iterations` (default 30) passes
         over the three bench workloads' shapes at seed 1, public functions
         only: a 1k MIXED trace emitted, parsed, validated, annotated
         (annotations emitted and loaded), replayed and run under all seven
         policies and summarized; a 1k COMPUTE_STORE_LOAD trace (0.75
         recomputable, 0.3 mispredicted) the same way, plus each policy
         probed at the first mispredicted branch and audited; and a 2k
         STREAM trace (load density 0.2, 4 MB working set) saved, loaded,
         validated, replayed and run under BASELINE and DOM.
heap     The peak of the Python heap, in KiB, as `tracemalloc` counts it,
         over `HEAP_PASSES` (2) passes of the loop above. Tracing starts
         before one warm-up pass (the package's import included); the peak
         is reset after it and a `gc.collect()`, so it is what the warm-up
         left alive plus the most that the passes then held at once,
         results included. It counts objects, not the allocator's pages,
         so unlike `ru_maxrss`, which moves in 128-512 KB steps with code
         layout, it moves only with what a run allocates.

The bench's own `peak_rss_mb` grows with the number of iterations a timed
run fits in, so a faster tree reads as using more memory; here the count is
fixed, and two trees can be compared. The current RSS is read from
/proc/self/statm, so the first number needs Linux. The script needs nothing
outside the standard library, and has no `test_` prefix, so the test suite
does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

MB = 1 << 20
HEAP_PASSES = 2


def _current_rss() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _growth(count: int) -> float:
    from vrcsim import core
    from vrcsim.slicer import annotate
    from vrcsim.workloads import SyntheticWorkloadSpec, gen_synthetic

    t = gen_synthetic(SyntheticWorkloadSpec(pattern="MIXED", count=count, seed=1))
    table, _ = annotate(t)   # builds the decode
    sim = core._Sim(t, table, core.CoreConfig(policy="VRC"), None)
    gc.collect()
    before = _current_rss()
    result = sim.run()
    gc.collect()
    grown = _current_rss() - before
    assert result.committed == count
    return grown / MB


def _passes(iterations: int) -> None:
    import vrcsim as vs

    shapes = (
        ("MIXED", 1_000, vs.POLICIES, False, False, {}),
        ("COMPUTE_STORE_LOAD", 1_000, vs.POLICIES, True, False,
         {"recomputable_fraction": 0.75, "mispredict_rate": 0.3}),
        ("STREAM", 2_000, ("BASELINE", "DOM"), False, True,
         {"load_density": 0.2, "working_set_bytes": 4 << 20}),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.txt"
        for _ in range(iterations):
            for pattern, count, policies, probed, via_file, opts in shapes:
                spec = vs.SyntheticWorkloadSpec(pattern=pattern, count=count,
                                                seed=1, **opts)
                if via_file:
                    vs.save_trace(vs.gen_synthetic(spec), path)
                    t, table = vs.load_trace(path), None
                else:
                    t = vs.parse_trace(vs.emit_trace(vs.gen_synthetic(spec)))
                    table = vs.load_annotations(
                        vs.emit_annotations(vs.annotate(t)[0]))
                assert vs.validate_trace(t).ok
                oracle = vs.functional_replay(t)
                site = next(i.seq for i in t.instructions if i.kind == "BRANCH"
                            and not i.br.predicted_correctly)
                probe = vs.ProbeSpec(site, tuple(0x7100_0000 + i * 64
                                                 for i in range(8)))
                runs = {}
                for policy in policies:
                    cfg = vs.CoreConfig(policy=policy)
                    r = runs[policy] = vs.run(t, annotations=table, config=cfg)
                    assert r.committed_values == oracle.results, policy
                    if policy in vs.SECURE_POLICIES:
                        vs.assert_invisibility(r.mutation_log)
                    if probed:
                        p = vs.inject_transient_probe(t, probe, annotations=table,
                                                      config=cfg)
                        vs.differential_check(r, p)
                vs.summarize(runs)


def _loop(iterations: int) -> float:
    _passes(iterations)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _heap(passes: int) -> float:
    tracemalloc.start()
    _passes(1)
    gc.collect()
    tracemalloc.reset_peak()
    _passes(passes)
    return tracemalloc.get_traced_memory()[1] / 1024


def _child(what: str, n: int) -> float:
    out = subprocess.run([sys.executable, __file__, "--child", what, "--n", str(n)],
                         check=True, capture_output=True, text=True).stdout
    return float(out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=100_000)
    ap.add_argument("--iterations", type=int, default=30)
    ap.add_argument("--child", choices=("growth", "loop", "heap"), help=argparse.SUPPRESS)
    ap.add_argument("--n", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print({"growth": _growth, "loop": _loop, "heap": _heap}[args.child](args.n))
        return
    print(f"growth of one {args.count} MIXED/VRC run: "
          f"{_child('growth', args.count):.2f} MB")
    print(f"peak of {args.iterations} bench-shaped iterations: "
          f"{_child('loop', args.iterations):.2f} MB")
    print(f"Python-heap peak of {HEAP_PASSES} passes after a warm-up: "
          f"{_child('heap', HEAP_PASSES):,.0f} KiB")


if __name__ == "__main__":
    main()
