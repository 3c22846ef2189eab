"""VTAGE-style load value predictor: a last-value base table plus tagged
components indexed by pc hashed with geometrically longer folded slices of
the global branch history. Longest-history tag match provides the
prediction; only saturated confidence counts as usable, and confidence rises
probabilistically (forward probabilistic counters).

A component's slice of `length` history bits folds into `bits` bits: the
XOR of its `bits`-wide chunks, youngest first. Each component keeps its
index fold and its tag fold in a register that a branch updates in O(1),
the circular-shift form of TAGE/VTAGE predictors (Michaud, "A PPM-like,
tag-based branch predictor", JILP 2005): the register rotates left by one,
takes the new outcome into bit 0 and drops the bit that leaves the slice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .isa import MASK64


@dataclass(frozen=True)
class VpConfig:
    components: int = 13              # 1 base + 12 tagged
    entries: int = 128
    tag_bits: int = 12
    conf_bits: int = 3
    conf_increment_prob: float = 0.25
    min_history: int = 2
    history_ratio: int = 2
    predict_latency: int = 2
    seed: int = 12345

    def __post_init__(self):
        # fewer fail the first index, tag or history fold
        for name, least in (("components", 2), ("entries", 2), ("tag_bits", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.entries & (self.entries - 1):
            raise ValueError("entries must be a power of two")
        lengths = self.history_lengths()
        if any(b >= a for a, b in zip(lengths[1:], lengths)):
            raise ValueError("history lengths must be strictly increasing")

    def history_lengths(self) -> list[int]:
        return [self.min_history * self.history_ratio ** i
                for i in range(self.components - 1)]

    @property
    def conf_max(self) -> int:
        return (1 << self.conf_bits) - 1


@dataclass(slots=True)
class _Entry:
    tag: int = -1
    value: int = 0
    conf: int = 0
    useful: bool = False


@dataclass(frozen=True, slots=True)
class Prediction:
    value: int
    confident: bool


class VpState:
    def __init__(self, config: VpConfig | None = None):
        self.config = config or VpConfig()
        c = self.config
        self.rng = random.Random(c.seed)
        # a slot holds None until its first write: an invalid entry
        self.base: list[_Entry | None] = [None] * c.entries
        self.tagged: list[list[_Entry | None]] = [
            [None] * c.entries for _ in range(c.components - 1)
        ]
        self.hist_lengths = c.history_lengths()
        self.ghist = 0                       # branch outcomes, LSB = youngest
        self.idx_bits = (c.entries - 1).bit_length()
        # per component, the folds of its history slice that index and tag
        self.idx_folds = [0] * (c.components - 1)
        self.tag_folds = [0] * (c.components - 1)
        # per component, for a branch's fold update: the slice's oldest bit,
        # and the fold bit that bit leaves from, in the index and the tag fold
        self._fold_shifts = [(length - 1, length % self.idx_bits,
                              length % c.tag_bits) for length in self.hist_lengths]
        self.lookups = 0
        self.updates = 0

    # -- indexing ------------------------------------------------------------

    def _index(self, pc: int, comp: int) -> int:
        idx_bits = self.idx_bits
        folded = self.idx_folds[comp]
        return (pc ^ (pc >> idx_bits) ^ folded ^ (comp + 1)) & (self.config.entries - 1)

    def _tag(self, pc: int, comp: int) -> int:
        folded = self.tag_folds[comp]
        return (pc ^ (pc >> self.config.tag_bits) ^ (folded << 1)) & \
            ((1 << self.config.tag_bits) - 1)

    # -- interface -------------------------------------------------------------

    def predict(self, pc: int) -> Prediction | None:
        """Longest tagged match wins, base table as fallback; None if nothing
        matches. Only a saturated confidence counter makes it usable."""
        self.lookups += 1
        provider = self._provider(pc)
        if provider is None:
            return None
        _, entry = provider
        return Prediction(value=entry.value,
                          confident=entry.conf >= self.config.conf_max)

    def _provider(self, pc: int):
        """(component, entry) of the longest match, component -1 for the
        base table; None if nothing matches. It computes `_index` and
        `_tag` with the pc's part of each taken once."""
        c = self.config
        index_mask, tag_bits = c.entries - 1, c.tag_bits
        index_base = pc ^ (pc >> self.idx_bits)
        tag_base = pc ^ (pc >> tag_bits)
        tag_mask = (1 << tag_bits) - 1
        tagged, idx_folds, tag_folds = self.tagged, self.idx_folds, self.tag_folds
        for comp in range(c.components - 2, -1, -1):
            entry = tagged[comp][(index_base ^ idx_folds[comp] ^ (comp + 1))
                                 & index_mask]
            if entry is not None and \
                    entry.tag == (tag_base ^ (tag_folds[comp] << 1)) & tag_mask:
                return comp, entry
        base = self.base[pc & index_mask]
        if base is not None:
            return -1, base
        return None

    def train(self, pc: int, actual: int, was_correct: bool | None = None) -> None:
        """Update on a committed load outcome. Correct predictions push
        confidence up probabilistically; a wrong one resets the provider and
        allocates an entry with longer history. The base table tracks the
        last value, so the most recent trainer wins on aliasing."""
        self.updates += 1
        actual &= MASK64
        comp, entry = self._provider(pc) or (None, None)
        if entry is not None and comp >= 0:
            correct = entry.value == actual if was_correct is None else \
                (was_correct and entry.value == actual)
            if correct:
                self._bump_conf(entry)
                entry.useful = True
            else:
                entry.conf = 0
                entry.value = actual
                self._allocate(pc, actual, longer_than=comp)
        index = pc & (self.config.entries - 1)
        base = self.base[index]
        if base is None:
            self.base[index] = _Entry(value=actual)
        elif base.value == actual:
            self._bump_conf(base)
        else:
            if comp == -1:
                self._allocate(pc, actual, longer_than=-1)
            base.conf = 0
            base.value = actual

    def _bump_conf(self, entry: _Entry) -> None:
        if entry.conf < self.config.conf_max and \
                self.rng.random() < self.config.conf_increment_prob:
            entry.conf += 1

    def _allocate(self, pc: int, value: int, longer_than: int) -> None:
        n = self.config.components - 2 - longer_than  # longer components
        if n <= 0:
            return
        comp = longer_than + 1 + self.rng.randrange(n)
        table, index = self.tagged[comp], self._index(pc, comp)
        entry = table[index]
        if entry is not None and entry.useful and self.rng.random() < 0.5:
            entry.useful = False  # age instead of replacing a useful entry
            return
        table[index] = _Entry(tag=self._tag(pc, comp), value=value)

    def notify_branch(self, outcome: bool) -> None:
        """Shifts the outcome into the history and every component's folds:
        bit p of a `length`-bit slice folds into bit p % bits, so a fold
        rotates left by one, `new` enters at bit 0 and `old`, the bit shifted
        out of the slice, leaves from bit `length % bits`."""
        new, ghist = int(outcome), self.ghist
        idx_folds, tag_folds = self.idx_folds, self.tag_folds
        idx_top, idx_mask = self.idx_bits - 1, (1 << self.idx_bits) - 1
        tag_bits = self.config.tag_bits
        tag_top, tag_mask = tag_bits - 1, (1 << tag_bits) - 1
        for comp, (oldest, idx_out, tag_out) in enumerate(self._fold_shifts):
            old = (ghist >> oldest) & 1  # leaves the slice
            f = idx_folds[comp]
            idx_folds[comp] = ((((f << 1) | (f >> idx_top)) & idx_mask)
                               ^ new ^ (old << idx_out))
            f = tag_folds[comp]
            tag_folds[comp] = ((((f << 1) | (f >> tag_top)) & tag_mask)
                               ^ new ^ (old << tag_out))
        max_len = self.hist_lengths[-1]
        self.ghist = ((ghist << 1) | new) & ((1 << max_len) - 1)
