"""TAGE conditional branch predictor.

Table II: "TAGE algorithm ... 6 TAGE tables with 2–64 bits history".
This is a standard TAGE: a bimodal base predictor plus N partially
tagged tables indexed by folded global history of geometrically
increasing length; prediction comes from the longest matching table,
with useful-counter-guided allocation on mispredictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


def _geometric_lengths(count: int, lo: int, hi: int) -> tuple[int, ...]:
    """Geometrically spaced history lengths from lo to hi inclusive."""
    if count < 2:
        raise ConfigError("TAGE needs at least two tagged tables")
    ratio = (hi / lo) ** (1.0 / (count - 1))
    lengths = []
    for i in range(count):
        length = int(round(lo * ratio**i))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
    return tuple(lengths)


@dataclass(frozen=True)
class TageParams:
    num_tables: int = 6
    min_history: int = 2
    max_history: int = 64
    table_bits: int = 9          # 512 entries per tagged table
    tag_bits: int = 9
    base_bits: int = 12          # 4096-entry bimodal base
    history_lengths: tuple[int, ...] = field(default_factory=tuple)

    def lengths(self) -> tuple[int, ...]:
        if self.history_lengths:
            return self.history_lengths
        return _geometric_lengths(
            self.num_tables, self.min_history, self.max_history)


class _TageEntry:
    __slots__ = ("tag", "ctr", "useful")

    def __init__(self) -> None:
        self.tag = -1
        self.ctr = 0     # 3-bit signed counter in [-4, 3]; >= 0 = taken
        self.useful = 0  # 2-bit useful counter


class TagePredictor:
    """TAGE with per-table folded-history indexing."""

    def __init__(self, params: TageParams | None = None):
        self.params = params or TageParams()
        self._lengths = self.params.lengths()
        size = 1 << self.params.table_bits
        self._tables = [
            [_TageEntry() for _ in range(size)]
            for _ in range(len(self._lengths))
        ]
        self._base = [1] * (1 << self.params.base_bits)  # 2-bit, 1 = weak NT
        self._history = 0  # global history as an int, newest bit at LSB
        self._history_masks = [(1 << length) - 1 for length in self._lengths]
        self._alloc_tick = 0
        # Index and tag of each table the last lookup probed: the
        # provider and every longer table (all tables when none hit),
        # which are the ones an update or allocation touches.
        self._probe_idx = [0] * len(self._lengths)
        self._probe_tag = [0] * len(self._lengths)
        self.stat_lookups = 0
        self.stat_mispredicts = 0

    # -- indexing ----------------------------------------------------------
    def _base_index(self, pc: int) -> int:
        return (pc >> 2) & ((1 << self.params.base_bits) - 1)

    def _lookup(self, pc: int) -> int:
        """Probe the tagged tables longest history first and return the
        provider (the longest table whose tag matches), or -1.

        Table ``t`` folds its ``lengths[t]`` newest history bits into
        ``table_bits`` bits for the index and ``tag_bits - 1`` bits for
        the tag, XOR-ing successive chunks.  Each probed table's index
        and tag stay in ``_probe_idx`` / ``_probe_tag`` for the update
        and allocation that follow."""
        params = self.params
        idx_bits = params.table_bits
        idx_mask = (1 << idx_bits) - 1
        tag_fold_bits = params.tag_bits - 1
        tag_fold_mask = (1 << tag_fold_bits) - 1
        tag_mask = (1 << params.tag_bits) - 1
        history = self._history
        history_masks = self._history_masks
        probe_idx = self._probe_idx
        probe_tag = self._probe_tag
        tables = self._tables
        pc_bits = pc >> 2
        for table in range(len(history_masks) - 1, -1, -1):
            h = history & history_masks[table]
            folded = 0
            while h:
                folded ^= h & idx_mask
                h >>= idx_bits
            idx = (pc_bits ^ folded ^ (table * 0x9E37)) & idx_mask
            h = history & history_masks[table]
            folded = 0
            while h:
                folded ^= h & tag_fold_mask
                h >>= tag_fold_bits
            tag = (pc_bits ^ (folded << 1) ^ table) & tag_mask
            probe_idx[table] = idx
            probe_tag[table] = tag
            if tables[table][idx].tag == tag:
                return table
        return -1

    def _predicted(self, pc: int, provider: int) -> bool:
        if provider >= 0:
            return self._tables[provider][self._probe_idx[provider]].ctr >= 0
        return self._base[self._base_index(pc)] >= 2

    # -- prediction --------------------------------------------------------
    def predict(self, pc: int) -> bool:
        """Predict taken/not-taken for the branch at ``pc``."""
        self.stat_lookups += 1
        return self._predicted(pc, self._lookup(pc))

    # -- update ------------------------------------------------------------
    def update(self, pc: int, taken: bool) -> None:
        """Train on the resolved outcome and shift global history."""
        provider = self._lookup(pc)
        self._train(pc, taken, provider, self._predicted(pc, provider))

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """``predict(pc)`` then ``update(pc, taken)`` from one table
        walk; returns the prediction."""
        self.stat_lookups += 1
        provider = self._lookup(pc)
        predicted = self._predicted(pc, provider)
        self._train(pc, taken, provider, predicted)
        return predicted

    def _train(self, pc: int, taken: bool, provider: int,
               predicted: bool) -> None:
        mispredicted = predicted != taken
        if mispredicted:
            self.stat_mispredicts += 1

        if provider >= 0:
            entry = self._tables[provider][self._probe_idx[provider]]
            entry.ctr = self._update_ctr(entry.ctr, taken, -4, 3)
            if not mispredicted:
                entry.useful = min(entry.useful + 1, 3)
        else:
            bidx = self._base_index(pc)
            ctr = self._base[bidx]
            self._base[bidx] = min(ctr + 1, 3) if taken else max(ctr - 1, 0)

        if mispredicted:
            self._allocate(taken, provider)

        self._history = ((self._history << 1) | (1 if taken else 0)) \
            & ((1 << self.params.max_history) - 1)

    @staticmethod
    def _update_ctr(ctr: int, taken: bool, lo: int, hi: int) -> int:
        return min(ctr + 1, hi) if taken else max(ctr - 1, lo)

    def _allocate(self, taken: bool, provider: int) -> None:
        """Allocate an entry in a longer-history table on mispredict."""
        start = provider + 1
        for table in range(start, len(self._lengths)):
            entry = self._tables[table][self._probe_idx[table]]
            if entry.useful == 0:
                entry.tag = self._probe_tag[table]
                entry.ctr = 0 if taken else -1
                return
        # No free entry: age useful counters (periodic decay).
        self._alloc_tick += 1
        if self._alloc_tick & 0xFF == 0:
            for table in range(start, len(self._lengths)):
                for entry in self._tables[table]:
                    if entry.useful:
                        entry.useful -= 1

    @property
    def mispredict_rate(self) -> float:
        if not self.stat_lookups:
            return 0.0
        return self.stat_mispredicts / self.stat_lookups
