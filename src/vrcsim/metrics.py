"""Aggregates raw run counters into reporting quantities and renders them as
CSV plus an aligned text table. Coverage is recomputed or predicted loads
over `shadowed_l1_misses` (loads coalescing onto an in-flight MSHR are not
misses). That counter, like `mshr_stalls`, `store_commit_stalls` and
`load_lookups`, counts the cycles in which the core visits a waiting load or
store, not machine events: a load that retries an access counts each try,
and under BASELINE an MSHR-stall retry of a shadowed load counts as a miss.
Energy is an event-count proxy with the relative weights of ENERGY_WEIGHTS;
only trends are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import POLICIES, RunResult

CSV_COLUMNS = (
    "policy", "cycles", "committed", "ipc", "norm_ipc",
    "shadowed_load_fraction", "mean_shadows_per_load", "l1_miss_ratio",
    "vp_coverage", "vrc_coverage", "mean_slice_latency",
    "delayed_loads", "predicted_loads", "recomputed_loads", "validations",
    "energy_total", "energy_core_dynamic", "energy_core_static",
    "energy_memory", "energy_overhead",
)


# Relative, unitless energy weights for the event-count proxy.
# These set trends, not absolute energy: a main-memory access is two orders
# of magnitude more expensive than an L1 access; recomputation-structure
# reads (SFile/IBuff/Hist) are far cheaper than a cache access. Static terms
# accrue per cycle.
ENERGY_WEIGHTS = {
    "l1_access": 1.0,
    "l2_access": 5.0,
    "mem_access": 100.0,
    "fu_op": 0.5,
    "vp_lookup": 1.0,
    "vp_update": 1.0,
    "vrc_struct_access": 0.2,
    "static_per_cycle": 2.0,
    "mem_static_per_cycle": 0.5,
}


def energy_proxy(counters: dict, cycles: int) -> dict[str, float]:
    """Weighted event counts, broken down the way the evaluation reports it:
    core dynamic, core static, memory (incl. an idle per-cycle term), and
    the prediction/recomputation structure overhead."""
    w = ENERGY_WEIGHTS
    l1 = counters.get("l1_hits", 0) + counters.get("l1_misses", 0) + \
        counters.get("mshr_hits", 0)
    l2 = counters.get("l2_hits", 0) + counters.get("mem_accesses", 0)
    core_dynamic = (
        w["fu_op"] * counters.get("fu_ops", 0)
        + w["l1_access"] * l1
        + w["l2_access"] * l2
    )
    core_static = w["static_per_cycle"] * cycles
    memory = (
        w["mem_access"] * counters.get("mem_accesses", 0)
        + w["mem_static_per_cycle"] * cycles
    )
    overhead = (
        w["vp_lookup"] * counters.get("vp_lookups", 0)
        + w["vp_update"] * counters.get("vp_updates", 0)
        + w["vrc_struct_access"] * counters.get("vrc_struct_accesses", 0)
    )
    total = core_dynamic + core_static + memory + overhead
    return {
        "core_dynamic": core_dynamic,
        "core_static": core_static,
        "memory": memory,
        "overhead": overhead,
        "total": total,
    }


@dataclass(frozen=True)
class MetricsReport:
    policy: str
    cycles: int
    committed: int
    ipc: float
    norm_ipc: float
    shadowed_load_fraction: float
    mean_shadows_per_load: float
    l1_miss_ratio: float
    vp_coverage: float
    vrc_coverage: float
    mean_slice_latency: float | None
    delayed_loads: int
    predicted_loads: int
    recomputed_loads: int
    validations: int
    energy: dict


def report_for(result: RunResult, baseline: RunResult) -> MetricsReport:
    c = result.counters
    ipc = result.committed / result.cycles if result.cycles else 0.0
    base_ipc = baseline.committed / baseline.cycles if baseline.cycles else 0.0
    accesses = c.get("l1_hits", 0) + c.get("l1_misses", 0) + c.get("mshr_hits", 0)
    shadowed_misses = c.get("shadowed_l1_misses", 0)
    return MetricsReport(
        policy=result.policy,
        cycles=result.cycles,
        committed=result.committed,
        ipc=ipc,
        norm_ipc=ipc / base_ipc if base_ipc else 0.0,
        shadowed_load_fraction=result.shadow_stats[0],
        mean_shadows_per_load=result.shadow_stats[1],
        l1_miss_ratio=c.get("l1_misses", 0) / accesses if accesses else 0.0,
        vp_coverage=c.get("predicted_loads", 0) / shadowed_misses
        if shadowed_misses else 0.0,
        vrc_coverage=c.get("recomputes", 0) / shadowed_misses
        if shadowed_misses else 0.0,
        mean_slice_latency=result.mean_slice_cycles,
        delayed_loads=c.get("delayed_loads", 0),
        predicted_loads=c.get("predicted_loads", 0),
        recomputed_loads=c.get("recomputes", 0),
        validations=c.get("validations", 0),
        energy=energy_proxy(c, result.cycles),
    )


@dataclass(frozen=True)
class Summary:
    reports: dict[str, MetricsReport]
    csv: str
    table: str


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _row(r: MetricsReport) -> list[str]:
    return [_fmt(r.energy[c.removeprefix("energy_")] if c.startswith("energy_")
                 else getattr(r, c)) for c in CSV_COLUMNS]


def summarize(runs: dict[str, RunResult]) -> Summary:
    """Build per-policy reports normalized against the BASELINE run, in the
    canonical policy order. Identical runs yield byte-identical output."""
    if "BASELINE" not in runs:
        raise ValueError("summarize requires a BASELINE run")
    baseline = runs["BASELINE"]
    ordered = [p for p in POLICIES if p in runs]
    reports = {p: report_for(runs[p], baseline) for p in ordered}

    rows = [list(CSV_COLUMNS)] + [_row(reports[p]) for p in ordered]
    csv_text = "\n".join(",".join(row) for row in rows) + "\n"

    widths = [max(len(row[i]) for row in rows) for i in range(len(CSV_COLUMNS))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) if cell else "-".ljust(widths[i])
                               for i, cell in enumerate(row)).rstrip())
    table = "\n".join(lines) + "\n"
    return Summary(reports=reports, csv=csv_text, table=table)
