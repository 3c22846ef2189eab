import random

import pytest
from hypothesis import given, settings, strategies as st

from vrcsim.shadows import ShadowError, ShadowKind, ShadowState


def _poll(sb: ShadowState) -> list[int]:
    """Takes the loads released since the last poll, in dispatch order, as
    the core's run loop does."""
    released = sb.released[:]
    sb.released.clear()
    return released


def test_cast_allocates_at_tail():
    sb = ShadowState()
    a = sb.cast(ShadowKind.C, 0)
    b = sb.cast(ShadowKind.E, 1)
    assert b == a + 1


def test_overflow_raises():
    sb = ShadowState(sb_capacity=2)
    sb.cast(ShadowKind.C, 0)
    sb.cast(ShadowKind.C, 1)
    assert sb.room() == 0
    with pytest.raises(ShadowError):
        sb.cast(ShadowKind.C, 2)


def test_register_under_empty_sb_is_immediate():
    sb = ShadowState()
    assert sb.register_load(0, False, None) == (False, 0)
    assert _poll(sb) == []


def test_register_associates_with_tail():
    sb = ShadowState()
    sb.cast(ShadowKind.C, 0)
    assert sb.register_load(1, False, None) == (True, 1)
    assert sb.register_load(2, False, None) == (True, 1)
    assert sb._rq[0][1] == sb._rq[1][1]


def test_resolve_only_entry_empties_sb():
    sb = ShadowState()
    sid = sb.cast(ShadowKind.C, 0)
    sb.register_load(1, False, None)
    sb.resolve(sid)
    assert _poll(sb) == [1]
    assert sb.room() == sb.sb_capacity
    assert sb.oldest_unresolved() is None


def test_resolve_tail_keeps_head():
    sb = ShadowState()
    head = sb.cast(ShadowKind.C, 0)
    tail = sb.cast(ShadowKind.D, 1)
    sb.register_load(2, False, None)
    sb.resolve(tail)
    assert _poll(sb) == []
    sb.resolve(head)
    assert _poll(sb) == [2]


def test_resolved_entry_behind_unresolved_head_holds_room_and_loads():
    sb = ShadowState(sb_capacity=3)
    head = sb.cast(ShadowKind.C, 0)
    tail = sb.cast(ShadowKind.D, 1)
    assert sb.register_load(2, False, None) == (True, 2)
    sb.resolve(tail)
    assert sb.room() == 1                   # the resolved tail still takes room
    assert sb.register_load(3, False, None) == (True, 2)  # the SB is not empty
    assert _poll(sb) == []
    assert sb.oldest_unresolved() == (ShadowKind.C, 0)
    sb.resolve(head)
    assert sb.room() == 3
    assert _poll(sb) == [2, 3]
    assert sb.register_load(4, False, None) == (False, 2)


def test_register_casts_the_loads_own_shadows():
    # a load that may fault, under TSO: its E and M shadows take the next
    # two ids, after its registration, so they shadow only younger loads
    sb = ShadowState(sb_capacity=3)
    assert sb.register_load(0, True, ShadowKind.M) == (False, 0)
    assert sb.oldest_unresolved() == (ShadowKind.E, 0)
    assert sb.register_load(1, False, ShadowKind.M) == (True, 2)
    assert sb.room() == 0 and sb.oracle_is_shadowed(1)
    with pytest.raises(ShadowError):
        sb.register_load(2, False, ShadowKind.M)   # no room: nothing changes
    assert sb.room() == 0 and sb.shadowed_load_fraction() == 0.5
    sb.resolve(1)
    sb.resolve(0)
    assert _poll(sb) == [1]
    assert _poll(sb) == []


def test_double_resolve_raises():
    sb = ShadowState()
    sid = sb.cast(ShadowKind.C, 0)
    sb.resolve(sid)
    with pytest.raises(ShadowError):
        sb.resolve(sid)


def test_rq_overflow():
    sb = ShadowState(rq_capacity=1)
    sb.cast(ShadowKind.C, 0)
    sb.register_load(1, False, None)
    # the release queue is full: a shadowed load is refused, and nothing
    # changes
    assert sb.register_load(2, False, ShadowKind.M) is None
    assert sb.room() == sb.sb_capacity - 1
    assert sb.shadowed_load_fraction() == 1.0


def test_statistics_counters():
    sb = ShadowState()
    sb.register_load(0, False, None)            # unshadowed
    sb.cast(ShadowKind.C, 1)
    sb.cast(ShadowKind.E, 2)
    sb.register_load(3, False, None)            # under two shadows
    assert sb.shadowed_load_fraction() == 0.5
    assert sb.mean_shadows_per_load() == 1.0


# ---------------------------------------------------------------------------
# mechanism-vs-oracle equivalence

def _check_equivalence(sb: ShadowState, registered: dict[int, bool]) -> None:
    """registered maps load index -> released flag; compare with the oracle
    after each event, including monotonicity of release."""
    for load in _poll(sb):
        assert registered[load] is False
        registered[load] = True
    for load, released in registered.items():
        if released:
            assert not sb.oracle_is_shadowed(load), f"load {load} re-shadowed"
        else:
            assert sb.oracle_is_shadowed(load), f"load {load} held too long"


def _replay(events):
    sb = ShadowState(sb_capacity=64, rq_capacity=64)
    registered: dict[int, bool] = {}
    live: list[int] = []
    idx = 0
    for ev in events:
        if ev == "cast":
            live.append(sb.cast(ShadowKind.C, idx))
            idx += 1
        elif ev == "register":
            if not sb.register_load(idx, False, None)[0]:
                registered[idx] = True
            else:
                registered[idx] = False
            idx += 1
        else:
            _, k = ev
            sb.resolve(live.pop(k))
        _check_equivalence(sb, registered)
    return sb, registered


def _enumerate(events, live_count, remaining, visit):
    visit(tuple(events))
    if remaining == 0:
        return
    events.append("cast")
    _enumerate(events, live_count + 1, remaining - 1, visit)
    events.pop()
    events.append("register")
    _enumerate(events, live_count, remaining - 1, visit)
    events.pop()
    for k in range(live_count):
        events.append(("resolve", k))
        _enumerate(events, live_count - 1, remaining - 1, visit)
        events.pop()


def test_exhaustive_schedules_up_to_eight_events():
    # acceptance runs the full <= 10 case; keep the unit test snappy
    count = 0

    def visit(schedule):
        nonlocal count
        _replay(schedule)
        count += 1

    _enumerate([], 0, 8, visit)
    assert count == 9749  # all valid schedules of length <= 8


def test_randomized_long_schedule_matches_oracle():
    rng = random.Random(123)
    sb = ShadowState(sb_capacity=100_000, rq_capacity=100_000)
    registered: dict[int, bool] = {}
    live: list[int] = []
    shadows_seen = 0     # brute force: unresolved casts at each registration
    idx = 0
    for _ in range(100_000):
        roll = rng.random()
        if roll < 0.32 and sb.room():
            live.append(sb.cast(ShadowKind.C, idx))
            idx += 1
        elif roll < 0.64 and (got := sb.register_load(idx, False, None)) is not None:
            shadows_seen += len(live)
            registered[idx] = not got[0]
            idx += 1
        elif live:
            sb.resolve(live.pop(rng.randrange(len(live))))
        for load in _poll(sb):
            assert registered[load] is False
            registered[load] = True
    # final sweep: every load still held must be oracle-shadowed
    for load, released in registered.items():
        assert released != sb.oracle_is_shadowed(load)
    assert shadows_seen > 0
    assert sb.mean_shadows_per_load() == shadows_seen / len(registered)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 5), min_size=0, max_size=14))
def test_property_random_schedules(choices):
    sb = ShadowState(sb_capacity=64, rq_capacity=64)
    registered: dict[int, bool] = {}
    live: list[int] = []
    idx = 0
    for c in choices:
        if c <= 1 and sb.room():
            live.append(sb.cast(ShadowKind.C, idx))
            idx += 1
        elif c <= 3 and (got := sb.register_load(idx, False, None)) is not None:
            registered[idx] = not got[0]
            idx += 1
        elif live:
            sb.resolve(live.pop(c % len(live)))
        _check_equivalence(sb, registered)
