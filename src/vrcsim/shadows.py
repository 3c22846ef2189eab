"""Speculative-shadow tracking.

Shadow-casting instructions (potential exceptions, unresolved control flow,
stores with pending addresses, unperformed memory accesses, unvalidated value
predictions) allocate entries in a circular shadow buffer (SB). Each load
dispatched under a non-empty SB is associated with the SB tail in a FIFO
release queue; a load leaves speculation when the SB head has moved past its
associated entry. This needs only head comparisons, no CAM search.

`oracle_is_shadowed` is the brute-force reference: a load is shadowed iff
some unresolved caster is older in program order. The two views must agree
on every schedule; the test suite checks this exhaustively for short
schedules and on long randomized ones.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum


class ShadowKind(Enum):
    E = "E"    # potential exception
    C = "C"    # unresolved/unverified control flow
    D = "D"    # store with unresolved address
    M = "M"    # unperformed memory access (memory-model ordering)
    VP = "VP"  # unvalidated value prediction


class ShadowError(Exception):
    pass


@dataclass(slots=True)
class _SbEntry:
    sb_id: int
    kind: ShadowKind
    caster: int          # program-order index of the casting instruction
    resolved: bool = False


@dataclass(slots=True)
class _RqEntry:
    load: int            # program-order index of the load
    sb_id: int           # SB tail at dispatch time


class ShadowState:
    """One simulation's shadow buffer + release queue, with statistics."""

    def __init__(self, sb_capacity: int = 64, rq_capacity: int = 64):
        self.sb_capacity = sb_capacity
        self.rq_capacity = rq_capacity
        self._sb: deque[_SbEntry] = deque()
        self._rq: deque[_RqEntry] = deque()
        self._next_id = 0
        self._by_id: dict[int, _SbEntry] = {}
        self._unresolved = 0         # unresolved entries in the SB
        # statistics
        self.loads_registered = 0
        self.loads_shadowed = 0
        self.shadow_count_sum = 0

    # -- capacity -----------------------------------------------------------

    def room(self) -> int:
        """How many more entries fit in the SB."""
        return self.sb_capacity - len(self._sb)

    def sb_full(self) -> bool:
        return self.room() < 1

    def rq_full(self) -> bool:
        return len(self._rq) >= self.rq_capacity

    def releases_pending(self) -> bool:
        """True while a shadowed load waits in the release queue."""
        return bool(self._rq)

    # -- casting & resolution ------------------------------------------------

    def cast(self, kind: ShadowKind, caster: int) -> int:
        """Allocate an unresolved entry at the SB tail; raises on overflow
        (the core must stall dispatch instead)."""
        if self.sb_full():
            raise ShadowError("shadow buffer overflow")
        entry = _SbEntry(sb_id=self._next_id, kind=kind, caster=caster)
        self._next_id += 1
        self._sb.append(entry)
        self._by_id[entry.sb_id] = entry
        self._unresolved += 1
        return entry.sb_id

    def resolve(self, sb_id: int) -> None:
        entry = self._by_id.get(sb_id)
        if entry is None or entry.resolved:
            raise ShadowError(f"double or unknown resolve of sb entry {sb_id}")
        entry.resolved = True
        self._unresolved -= 1
        # advance the head over the contiguous resolved prefix
        while self._sb and self._sb[0].resolved:
            freed = self._sb.popleft()
            del self._by_id[freed.sb_id]

    # -- load registration & release ------------------------------------------

    def register_load(self, load: int) -> bool:
        """Returns True when the load is unshadowed immediately (empty SB);
        otherwise associates it with the current SB tail."""
        if self._sb and self.rq_full():
            raise ShadowError("release queue overflow")
        self.loads_registered += 1
        self.shadow_count_sum += self._unresolved
        if not self._sb:
            return True
        self.loads_shadowed += 1
        self._rq.append(_RqEntry(load=load, sb_id=self._sb[-1].sb_id))
        return False

    def poll_unshadowed(self) -> list[int]:
        """Pop every release-queue head whose associated entry has been passed
        by (or is a resolved) SB head; returns loads in dispatch order."""
        released = []
        while self._rq:
            head = self._rq[0]
            if not self._sb:
                released.append(self._rq.popleft().load)
                continue
            sb_head = self._sb[0]
            if head.sb_id < sb_head.sb_id or (
                head.sb_id == sb_head.sb_id and sb_head.resolved
            ):
                released.append(self._rq.popleft().load)
            else:
                break
        return released

    # -- oracle ---------------------------------------------------------------

    def oracle_is_shadowed(self, load: int) -> bool:
        """Brute-force scan: shadowed iff any unresolved caster is older."""
        return any(not e.resolved and e.caster < load for e in self._sb)

    # -- statistics -----------------------------------------------------------

    def shadowed_load_fraction(self) -> float:
        if not self.loads_registered:
            return 0.0
        return self.loads_shadowed / self.loads_registered

    def mean_shadows_per_load(self) -> float:
        if not self.loads_registered:
            return 0.0
        return self.shadow_count_sum / self.loads_registered
