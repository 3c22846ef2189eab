"""Speculative-shadow tracking.

Shadow-casting instructions (potential exceptions, unresolved control flow,
stores with pending addresses, unperformed memory accesses, unvalidated value
predictions) allocate consecutive ids in a FIFO shadow buffer (SB). The SB is
the id range [head, tail): resolving the head entry advances the head past
every resolved entry behind it, so the head is always unresolved, and only
the unresolved entries are stored. Each load dispatched under a non-empty SB
is associated with the newest SB id in a FIFO release queue; a load leaves
speculation once the head has moved past its associated id. This needs only
head comparisons, no CAM search.

`oracle_is_shadowed` is the brute-force reference: a load is shadowed iff
some unresolved caster is older in program order. The two views must agree
on every schedule; the test suite checks this exhaustively for short
schedules and on long randomized ones.
"""

from __future__ import annotations

from collections import deque
from enum import Enum


class ShadowKind(Enum):
    E = "E"    # potential exception
    C = "C"    # unresolved/unverified control flow
    D = "D"    # store with unresolved address
    M = "M"    # unperformed memory access (memory-model ordering)
    VP = "VP"  # unvalidated value prediction


class ShadowError(Exception):
    pass


class ShadowState:
    """One simulation's shadow buffer + release queue, with statistics."""

    def __init__(self, sb_capacity: int = 64, rq_capacity: int = 64):
        self.sb_capacity = sb_capacity
        self.rq_capacity = rq_capacity
        self._head = 0               # oldest id in the SB, unresolved
        self._tail = 0               # the next id to cast
        self._casts: dict[int, tuple[ShadowKind, int]] = {}  # unresolved id -> (kind, caster)
        self._rq: deque[tuple[int, int]] = deque()  # (load, newest SB id at dispatch)
        # statistics
        self.loads_registered = 0
        self.loads_shadowed = 0
        self.shadow_count_sum = 0

    # -- capacity -----------------------------------------------------------

    def room(self) -> int:
        """How many more entries fit in the SB."""
        return self.sb_capacity - (self._tail - self._head)

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
        sb_id = self._tail
        self._tail += 1
        self._casts[sb_id] = (kind, caster)
        return sb_id

    def resolve(self, sb_id: int) -> None:
        casts = self._casts
        if casts.pop(sb_id, None) is None:
            raise ShadowError(f"double or unknown resolve of sb entry {sb_id}")
        if sb_id == self._head:
            # advance the head over the resolved entries behind it
            head, tail = sb_id + 1, self._tail
            while head < tail and head not in casts:
                head += 1
            self._head = head

    def oldest_unresolved(self) -> tuple[ShadowKind, int] | None:
        """(kind, caster) of the SB head, or None when the SB is empty."""
        return self._casts.get(self._head)

    # -- load registration & release ------------------------------------------

    def register_load(self, load: int) -> bool:
        """Returns True when the load is unshadowed immediately (empty SB);
        otherwise associates it with the newest SB id."""
        empty = self._head == self._tail
        if not empty and self.rq_full():
            raise ShadowError("release queue overflow")
        self.loads_registered += 1
        self.shadow_count_sum += len(self._casts)
        if empty:
            return True
        self.loads_shadowed += 1
        self._rq.append((load, self._tail - 1))
        return False

    def poll_unshadowed(self) -> list[int]:
        """Pop every release-queue entry whose associated id the SB head has
        passed; returns loads in dispatch order."""
        rq, head = self._rq, self._head
        released = []
        while rq and rq[0][1] < head:
            released.append(rq.popleft()[0])
        return released

    # -- oracle ---------------------------------------------------------------

    def oracle_is_shadowed(self, load: int) -> bool:
        """Brute-force scan: shadowed iff any unresolved caster is older."""
        return any(caster < load for _, caster in self._casts.values())

    # -- statistics -----------------------------------------------------------

    def shadowed_load_fraction(self) -> float:
        if not self.loads_registered:
            return 0.0
        return self.loads_shadowed / self.loads_registered

    def mean_shadows_per_load(self) -> float:
        if not self.loads_registered:
            return 0.0
        return self.shadow_count_sum / self.loads_registered
