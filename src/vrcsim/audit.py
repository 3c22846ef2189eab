"""Memory-hierarchy mutation auditing.

Every change to cache tag arrays, LRU stacks, dirty bits or MSHRs is one
MutationRecord, an immutable tuple record appended to the run's
MutationLog, a plain list, at one choke point (`MemHierState._record`).
Each record names the causing instruction and whether that cause was
speculative at the time.
`assert_invisibility` is the security verdict: under a secure policy no
entry may carry a speculative cause. `differential_check` compares a
probe-injected run against a clean run; the observation model is the
externally visible hierarchy state (tags, LRU order, dirty bits and MSHR
allocation history), not timing. Functional-unit and recomputation-engine
contention channels are outside this threat surface.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

# the array of its level that each op other than mshr_alloc changes
_STRUCT_OF_OP = {"fill": "TAG", "evict": "TAG", "lru_touch": "LRU",
                 "dirty": "DIRTY"}


class MutationRecord(namedtuple("MutationRecord", (
        "cycle", "level", "op", "line_addr", "victim_addr", "cause_seq",
        "speculative", "probe"))):
    """One hierarchy mutation. `level` is 1 or 2; `op` is fill, evict,
    lru_touch, dirty or mshr_alloc; `victim_addr` is the line a fill
    evicted, or None."""

    __slots__ = ()

    def format_line(self) -> str:
        cycle, level, op, line, victim, cause, spec, probe = self
        struct = "MSHR" if op == "mshr_alloc" else f"L{level}_{_STRUCT_OF_OP[op]}"
        victim = f"{victim:#x}" if victim is not None else "-"
        return (
            f"M cycle={cycle} struct={struct} op={op} "
            f"line={line:#x} victim={victim} cause={cause} "
            f"spec={int(spec)} probe={int(probe)}"
        )


class MutationLog(list):
    """A run's MutationRecords in the order they were made."""

    __slots__ = ()

    def speculative_records(self) -> list[MutationRecord]:
        return [r for r in self if r.speculative]

    def committed_records(self) -> list[MutationRecord]:
        """Records attributable to non-speculative (committed/unshadowed) causes."""
        return [r for r in self if not r.speculative and not r.probe]

    def export_lines(self) -> str:
        return "".join(r.format_line() + "\n" for r in self)


@dataclass(frozen=True, slots=True)
class InvisibilityVerdict:
    passed: bool
    violators: tuple[MutationRecord, ...]

    def __bool__(self) -> bool:
        return self.passed


def assert_invisibility(log: MutationLog) -> InvisibilityVerdict:
    """PASS iff no mutation was caused by a speculative instruction."""
    violators = tuple(log.speculative_records())
    return InvisibilityVerdict(passed=not violators, violators=violators)


@dataclass(frozen=True, slots=True)
class DifferentialResult:
    equal: bool
    detail: str = ""
    first_divergence: MutationRecord | None = None

    def __bool__(self) -> bool:
        return self.equal


def differential_check(run_a, run_b) -> DifferentialResult:
    """Compare the externally observable hierarchy outcome of two runs.

    Runs are EQUAL when their hierarchy digests match and their mutation
    logs, filtered to committed causes, are identical.
    """
    if run_a.memhier_digest != run_b.memhier_digest:
        return DifferentialResult(False, detail="hierarchy digest mismatch")
    a = run_a.mutation_log.committed_records()
    b = run_b.mutation_log.committed_records()
    for ra, rb in zip(a, b):
        if ra != rb:
            return DifferentialResult(False, detail="mutation log mismatch",
                                      first_divergence=ra)
    if len(a) != len(b):
        longer = a if len(a) > len(b) else b
        return DifferentialResult(False, detail="mutation log length mismatch",
                                  first_divergence=longer[min(len(a), len(b))])
    return DifferentialResult(True)
