import random

import pytest
from hypothesis import given, settings, strategies as st

from vrcsim.shadows import ShadowError, ShadowKind, ShadowState


def test_cast_allocates_at_tail():
    sb = ShadowState()
    a = sb.cast(ShadowKind.C, 0)
    b = sb.cast(ShadowKind.E, 1)
    assert b == a + 1


def test_overflow_raises():
    sb = ShadowState(sb_capacity=2)
    sb.cast(ShadowKind.C, 0)
    sb.cast(ShadowKind.C, 1)
    assert sb.sb_full()
    with pytest.raises(ShadowError):
        sb.cast(ShadowKind.C, 2)


def test_register_under_empty_sb_is_immediate():
    sb = ShadowState()
    assert sb.register_load(0) is True
    assert sb.poll_unshadowed() == []


def test_register_associates_with_tail():
    sb = ShadowState()
    sb.cast(ShadowKind.C, 0)
    assert sb.register_load(1) is False
    assert sb.register_load(2) is False
    assert sb._rq[0].sb_id == sb._rq[1].sb_id


def test_resolve_only_entry_empties_sb():
    sb = ShadowState()
    sid = sb.cast(ShadowKind.C, 0)
    sb.register_load(1)
    sb.resolve(sid)
    assert sb.poll_unshadowed() == [1]
    assert not sb._sb


def test_resolve_tail_keeps_head():
    sb = ShadowState()
    head = sb.cast(ShadowKind.C, 0)
    tail = sb.cast(ShadowKind.D, 1)
    sb.register_load(2)
    sb.resolve(tail)
    assert sb.poll_unshadowed() == []
    sb.resolve(head)
    assert sb.poll_unshadowed() == [2]


def test_double_resolve_raises():
    sb = ShadowState()
    sid = sb.cast(ShadowKind.C, 0)
    sb.resolve(sid)
    with pytest.raises(ShadowError):
        sb.resolve(sid)


def test_rq_overflow():
    sb = ShadowState(rq_capacity=1)
    sb.cast(ShadowKind.C, 0)
    sb.register_load(1)
    assert sb.rq_full()
    with pytest.raises(ShadowError):
        sb.register_load(2)


def test_statistics_counters():
    sb = ShadowState()
    sb.register_load(0)            # unshadowed
    sb.cast(ShadowKind.C, 1)
    sb.cast(ShadowKind.E, 2)
    sb.register_load(3)            # under two shadows
    assert sb.shadowed_load_fraction() == 0.5
    assert sb.mean_shadows_per_load() == 1.0


# ---------------------------------------------------------------------------
# mechanism-vs-oracle equivalence

def _check_equivalence(sb: ShadowState, registered: dict[int, bool]) -> None:
    """registered maps load index -> released flag; compare with the oracle
    after each event, including monotonicity of release."""
    for load in sb.poll_unshadowed():
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
            if sb.register_load(idx):
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
        if roll < 0.32 and not sb.sb_full():
            live.append(sb.cast(ShadowKind.C, idx))
            idx += 1
        elif roll < 0.64 and not sb.rq_full():
            shadows_seen += len(live)
            registered[idx] = bool(sb.register_load(idx))
            idx += 1
        elif live:
            sb.resolve(live.pop(rng.randrange(len(live))))
        for load in sb.poll_unshadowed():
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
        if c <= 1 and not sb.sb_full():
            live.append(sb.cast(ShadowKind.C, idx))
            idx += 1
        elif c <= 3 and not sb.rq_full():
            registered[idx] = bool(sb.register_load(idx))
            idx += 1
        elif live:
            sb.resolve(live.pop(c % len(live)))
        _check_equivalence(sb, registered)
