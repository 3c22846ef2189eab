"""Trace-driven out-of-order core and memory-hierarchy simulator for
delay-on-miss, load value prediction, and backward-slice value recomputation,
with a differential transient-invisibility audit."""

from .audit import (MutationLog, MutationRecord, assert_invisibility,
                    differential_check)
from .core import (CoreConfig, DeadlockError, POLICIES, ProbeSpec, RunResult,
                   SECURE_POLICIES, inject_transient_probe, run)
from .memhier import CacheConfig, MemHierState
from .metrics import MetricsReport, Summary, energy_proxy, summarize
from .replay import functional_replay
from .shadows import ShadowKind, ShadowState
from .slicer import (AnnotationTable, Slice, SliceFailure, SliceInstr,
                     annotate, build_slice, emit_annotations, load_annotations,
                     replay_slice)
from .trace import (Trace, TraceInstruction, emit_trace, load_trace,
                    parse_trace, save_trace, validate_trace)
from .vp import VpConfig, VpState
from .vrc import VrcConfig, VrcState
from .workloads import SyntheticWorkloadSpec, gen_synthetic

__version__ = "0.1.0"
