import random

import pytest

from vrcsim.vp import Prediction, VpConfig, VpState


def test_untrained_predicts_none():
    vp = VpState()
    assert vp.predict(0x400) is None


def test_constant_training_saturates():
    vp = VpState()
    for _ in range(64):
        vp.train(0x400, 42)
    pred = vp.predict(0x400)
    assert pred == Prediction(value=42, confident=True)


def test_wrong_outcome_resets_confidence():
    vp = VpState()
    for _ in range(64):
        vp.train(0x400, 42)
    assert vp.predict(0x400).confident
    vp.train(0x400, 43)
    pred = vp.predict(0x400)
    assert pred is None or not pred.confident


def test_alternating_values_never_confident():
    vp = VpState()
    confident = 0
    for i in range(1000):
        pred = vp.predict(0x80)
        if pred is not None and pred.confident:
            confident += 1
        vp.train(0x80, 1 if i % 2 == 0 else 2)
    assert confident < 10  # < 1% of updates


def test_constant_stream_steady_state_accuracy():
    vp = VpState()
    for _ in range(100):
        vp.train(0x90, 7)
    correct = 0
    for _ in range(100):
        pred = vp.predict(0x90)
        if pred is not None and pred.confident and pred.value == 7:
            correct += 1
        vp.train(0x90, 7)
    assert correct == 100


def test_base_table_aliasing_last_trainer_wins():
    cfg = VpConfig(entries=16)
    vp = VpState(cfg)
    pc_a, pc_b = 0x100, 0x100 + 16  # same base index
    vp.train(pc_a, 11)
    vp.train(pc_b, 22)
    pred = vp.predict(pc_a)
    assert pred is not None and pred.value == 22


def test_branch_history_changes_indexing():
    vp = VpState()
    base = [vp._index(0x1234, c) for c in range(4)]
    for _ in range(vp.hist_lengths[-1]):
        vp.notify_branch(True)
    shifted = [vp._index(0x1234, c) for c in range(4)]
    assert base != shifted
    # deterministic folding: same history gives same indices
    vp2 = VpState()
    for _ in range(vp2.hist_lengths[-1]):
        vp2.notify_branch(True)
    assert [vp2._index(0x1234, c) for c in range(4)] == shifted


def test_history_window_drops_oldest():
    vp = VpState()
    vp.notify_branch(True)
    for _ in range(vp.hist_lengths[-1]):
        vp.notify_branch(False)
    assert vp.ghist == 0  # the initial taken bit fell out of the window


def test_determinism_under_seed():
    a, b = VpState(VpConfig(seed=5)), VpState(VpConfig(seed=5))
    import random
    rng = random.Random(1)
    for _ in range(500):
        pc = rng.randrange(0, 4096) * 4
        val = rng.randrange(0, 10)
        pa, pb = a.predict(pc), b.predict(pc)
        assert pa == pb
        a.train(pc, val)
        b.train(pc, val)


def test_config_validation():
    with pytest.raises(ValueError):
        VpConfig(entries=100)  # not a power of two


@pytest.mark.parametrize("name, value", [
    ("entries", 0), ("entries", 1), ("components", 1), ("components", 0),
    ("tag_bits", 0), ("tag_bits", -1)])
def test_config_rejects_what_fails_later(name, value):
    # each used to pass construction and fail in `VpState` or its first
    # predict, train or branch, with an error that names no field
    with pytest.raises(ValueError, match=f"{name} must be >= "):
        VpConfig(**{name: value})


def _fold(ghist: int, length: int, bits: int) -> int:
    """The reference fold: the XOR of the `bits`-wide chunks of the
    youngest `length` history bits, recomputed from the whole history."""
    h = ghist & ((1 << length) - 1)
    folded = 0
    while h:
        folded ^= h & ((1 << bits) - 1)
        h >>= bits
    return folded


@pytest.mark.parametrize("config", [
    VpConfig(),
    VpConfig(entries=64, tag_bits=5, components=8, min_history=3,
             history_ratio=3),
], ids=["default", "odd-lengths"])
def test_folded_histories_match_the_reference_fold(config):
    # the O(1) registers equal a full refold over a branch sequence longer
    # than the longest history, so old outcomes leave every slice
    vp = VpState(config)
    rng = random.Random(11)
    steps = config.history_lengths()[-1] + 1_500
    for step in range(steps):
        vp.notify_branch(rng.random() < 0.5)
        if step % 61 == 0 or step >= steps - 5:
            for comp, length in enumerate(vp.hist_lengths):
                assert vp.idx_folds[comp] == _fold(vp.ghist, length, vp.idx_bits)
                assert vp.tag_folds[comp] == _fold(vp.ghist, length,
                                                   config.tag_bits)
