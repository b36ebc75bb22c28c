"""Conditional branch predictors: bimodal and a TAGE-like tagged predictor.

The paper's baseline uses TAGE/ITTAGE.  The TAGE model here keeps the
essential structure - a bimodal base predictor plus several tagged tables
indexed with geometrically increasing global-history lengths, provider/altpred
selection, useful-bit based allocation - while staying small enough to run
fast in Python.  Unconditional jumps are always predicted correctly (their
targets are static in the synthetic ISA).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


#: Width of the global branch history register.
HISTORY_BITS = 128


def _fold(history: int, bits: int) -> int:
    """XOR of the consecutive ``bits``-wide chunks of ``history``.

    The reference the predictor's incremental folds are checked against.
    """
    folded = 0
    mask = (1 << bits) - 1
    while history:
        folded ^= history & mask
        history >>= bits
    return folded


class BimodalPredictor:
    """2-bit saturating-counter predictor indexed by PC."""

    def __init__(self, entries: int = 8192):
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.entries = entries
        self._counters = [2] * entries  # weakly taken

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def predict(self, pc: int) -> bool:
        """Taken when the 2-bit counter for ``pc`` is weakly/strongly taken."""
        return self._counters[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        """Saturating 2-bit counter update with the resolved direction."""
        index = self._index(pc)
        counter = self._counters[index]
        if taken:
            self._counters[index] = min(counter + 1, 3)
        else:
            self._counters[index] = max(counter - 1, 0)


@dataclass
class TageConfig:
    """Geometry of the TAGE-like predictor."""

    base_entries: int = 8192
    tagged_entries: int = 1024
    num_tables: int = 4
    min_history: int = 4
    max_history: int = 64
    tag_bits: int = 10
    counter_max: int = 3  # 3-bit signed counter range [-4, 3]


class _TaggedEntry:
    __slots__ = ("tag", "counter", "useful")

    def __init__(self, tag: int = 0, counter: int = 0, useful: int = 0):
        self.tag = tag
        self.counter = counter
        self.useful = useful


class TagePredictor:
    """TAGE-like predictor: bimodal base + tagged tables with geometric histories."""

    def __init__(self, config: Optional[TageConfig] = None):
        self.config = config or TageConfig()
        cfg = self.config
        self.base = BimodalPredictor(cfg.base_entries)
        self._tables: List[List[Optional[_TaggedEntry]]] = [
            [None] * cfg.tagged_entries for _ in range(cfg.num_tables)
        ]
        # Geometric history lengths between min_history and max_history.
        self.history_lengths = []
        ratio = (cfg.max_history / cfg.min_history) ** (1.0 / max(cfg.num_tables - 1, 1))
        length = float(cfg.min_history)
        for _ in range(cfg.num_tables):
            self.history_lengths.append(int(round(length)))
            length *= ratio
        self._global_history = 0
        # Index hash width, fixed by the table geometry.
        self._index_bits = cfg.tagged_entries.bit_length() - 1
        self._tag_mask = (1 << cfg.tag_bits) - 1
        self._tables_longest_first = tuple(reversed(range(cfg.num_tables)))
        # Per table, the history window folded to the index width and, when
        # it differs, to the tag width: ``_fold`` of the window, kept
        # incrementally by ``_push_history``.  A window longer than the
        # history register holds only the register's bits.
        self._fold_windows = tuple(min(length, HISTORY_BITS)
                                   for length in self.history_lengths)
        self._index_folds = [0] * cfg.num_tables
        self._tag_folds = ([0] * cfg.num_tables
                           if cfg.tag_bits != self._index_bits else None)
        # Per table, the history-dependent part of the index and tag hashes
        # (the folded history and the per-table constant).  Only ``_train``
        # changes the history, so it refreshes these once per update and every
        # index and tag computation until the next update reads them.
        self._index_mix = [table * 0x9E5 for table in range(cfg.num_tables)]
        self._tag_mix = list(range(cfg.num_tables))

    # ------------------------------------------------------------------ hashing

    def _push_history(self, taken: bool) -> None:
        """Shift ``taken`` into the global history and refresh the hash mixes.

        Shifting the history moves every bit of a table's window up one
        place, so the window's fold rotates left by one: the new outcome
        enters at bit 0, and the bit that leaves the window drops out of the
        place it rotated into.
        """
        history = self._global_history
        bit = 1 if taken else 0
        index_bits, tag_bits = self._index_bits, self.config.tag_bits
        index_mask, tag_mask = (1 << index_bits) - 1, self._tag_mask
        index_folds, tag_folds = self._index_folds, self._tag_folds
        index_mix, tag_mix = self._index_mix, self._tag_mix
        for table, window in enumerate(self._fold_windows):
            leaving = (history >> (window - 1)) & 1
            fold = index_folds[table]
            fold = ((((fold << 1) | (fold >> (index_bits - 1))) & index_mask)
                    ^ bit ^ (leaving << (window % index_bits)))
            index_folds[table] = fold
            index_mix[table] = fold ^ (table * 0x9E5)
            if tag_folds is not None:
                fold = tag_folds[table]
                fold = ((((fold << 1) | (fold >> (tag_bits - 1))) & tag_mask)
                        ^ bit ^ (leaving << (window % tag_bits)))
                tag_folds[table] = fold
            tag_mix[table] = (fold << 1) ^ table
        self._global_history = ((history << 1) | bit) & ((1 << HISTORY_BITS) - 1)

    def _index(self, pc: int, table: int) -> int:
        return ((pc >> 2) ^ self._index_mix[table]) % self.config.tagged_entries

    def _tag(self, pc: int, table: int) -> int:
        return ((pc >> 2) ^ self._tag_mix[table]) & self._tag_mask

    # --------------------------------------------------------------- prediction

    def _find_provider(self, pc: int) -> Tuple[Optional[int], Optional[_TaggedEntry]]:
        # Inlined _index/_tag: this runs for every predicted and resolved branch.
        pc_bits = pc >> 2
        tables = self._tables
        entries = self.config.tagged_entries
        index_mix, tag_mix = self._index_mix, self._tag_mix
        for table in self._tables_longest_first:
            entry = tables[table][(pc_bits ^ index_mix[table]) % entries]
            if entry is not None and entry.tag == (pc_bits ^ tag_mix[table]) & self._tag_mask:
                return table, entry
        return None, None

    def predict(self, pc: int) -> bool:
        """Predict the direction of the conditional branch at ``pc``."""
        _, entry = self._find_provider(pc)
        if entry is not None:
            return entry.counter >= 0
        return self.base.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        """Train the predictor with the resolved outcome."""
        provider_table, provider = self._find_provider(pc)
        self._train(pc, taken, provider_table, provider)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Fused predict + update sharing one provider search.

        ``predict`` mutates nothing, so running it and ``update`` back to
        back performs the identical provider search twice; this entry point
        does the search once and feeds both.  Returns the prediction, with the
        tables trained exactly as the two-call sequence would have.
        """
        provider_table, provider = self._find_provider(pc)
        predicted = (provider.counter >= 0) if provider is not None else self.base.predict(pc)
        self._train(pc, taken, provider_table, provider)
        return predicted

    def _train(self, pc: int, taken: bool,
               provider_table: Optional[int],
               provider: Optional[_TaggedEntry]) -> None:
        cfg = self.config
        predicted = (provider.counter >= 0) if provider is not None else self.base.predict(pc)
        if provider is not None:
            if taken:
                provider.counter = min(provider.counter + 1, cfg.counter_max)
            else:
                provider.counter = max(provider.counter - 1, -cfg.counter_max - 1)
            if predicted == taken:
                provider.useful = min(provider.useful + 1, 3)
            else:
                provider.useful = max(provider.useful - 1, 0)
        else:
            self.base.update(pc, taken)

        # Allocate a new entry in a longer-history table on a misprediction.
        if predicted != taken:
            start = (provider_table + 1) if provider_table is not None else 0
            for table in range(start, cfg.num_tables):
                index = self._index(pc, table)
                entry = self._tables[table][index]
                if entry is None or entry.useful == 0:
                    self._tables[table][index] = _TaggedEntry(
                        tag=self._tag(pc, table), counter=0 if taken else -1, useful=0)
                    break

        self._push_history(taken)


class BranchPredictor:
    """Front-end facade: direction prediction for branches, always-correct jumps."""

    def __init__(self, tage_config: Optional[TageConfig] = None):
        self.direction = TagePredictor(tage_config)

    def predict_taken(self, pc: int, is_conditional: bool) -> bool:
        """Predict whether the branch at ``pc`` is taken."""
        if not is_conditional:
            return True
        return self.direction.predict(pc)

    def resolve(self, pc: int, is_conditional: bool, predicted: bool, taken: bool) -> bool:
        """Train with the outcome; returns True if the branch was mispredicted."""
        if not is_conditional:
            return False
        self.direction.update(pc, taken)
        return predicted != taken

    def resolve_at_writeback(self, pc: int, is_conditional: bool, taken: bool) -> bool:
        """``predict_taken`` + ``resolve`` fused for the branch writeback path.

        Training is bit-identical to the two-call sequence; only the
        duplicated TAGE provider search is saved.
        """
        if not is_conditional:
            return False
        return self.direction.predict_and_update(pc, taken) != taken
