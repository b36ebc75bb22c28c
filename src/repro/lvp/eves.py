"""EVES-style load value predictor (Seznec, CVP-1 winner).

EVES combines two components:

* **E-Stride** - per-PC last value + stride with a high confidence bar; covers
  loads whose values follow an arithmetic progression (including constants,
  stride 0).
* **E-VTAGE** - tagged tables indexed by PC hashed with folded global branch
  history; covers context-dependent value repetition.

The model keeps the structure and the confidence-gated prediction policy; the
probabilistic confidence-increment details of the original are simplified to
deterministic saturating counters with high thresholds, which preserves the
"predict only when very sure" behaviour that matters for pipeline flushes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

_MASK64 = (1 << 64) - 1


@dataclass
class ValuePrediction:
    """Outcome of one prediction attempt."""

    predicted: bool
    value: int = 0
    component: str = ""


@dataclass
class EvesConfig:
    """Component sizes and confidence thresholds."""

    stride_entries: int = 4096
    stride_confidence_threshold: int = 14
    stride_confidence_max: int = 15
    vtage_tables: int = 4
    vtage_entries: int = 1024
    vtage_tag_bits: int = 12
    vtage_confidence_threshold: int = 14
    vtage_confidence_max: int = 15
    min_history: int = 2
    max_history: int = 32


class _StrideEntry:
    __slots__ = ("last_value", "stride", "confidence")

    def __init__(self, last_value: int):
        self.last_value = last_value
        self.stride = 0
        self.confidence = 0


class _VtageEntry:
    __slots__ = ("tag", "value", "confidence", "useful")

    def __init__(self, tag: int, value: int):
        self.tag = tag
        self.value = value
        self.confidence = 0
        self.useful = 0


class EvesPredictor:
    """E-Stride + E-VTAGE hybrid value predictor.

    The core consults it at rename for every load; a confident prediction
    breaks the load's data dependence.  The load still executes to verify
    the prediction, and a mismatch at writeback flushes the younger window,
    just like a branch misprediction (paper §2).
    """

    def __init__(self, config: Optional[EvesConfig] = None):
        self.attempts = 0
        self.predictions = 0
        self.correct = 0
        self.config = config or EvesConfig()
        cfg = self.config
        self._stride: Dict[int, _StrideEntry] = {}
        self._vtage: List[List[Optional[_VtageEntry]]] = [
            [None] * cfg.vtage_entries for _ in range(cfg.vtage_tables)
        ]
        ratio = (cfg.max_history / cfg.min_history) ** (1.0 / max(cfg.vtage_tables - 1, 1))
        self._history_lengths = []
        length = float(cfg.min_history)
        for _ in range(cfg.vtage_tables):
            self._history_lengths.append(int(round(length)))
            length *= ratio

    # ----------------------------------------------------------------- hashing

    @staticmethod
    def _fold(history: int, length: int, bits: int) -> int:
        history &= (1 << length) - 1
        folded = 0
        while history:
            folded ^= history & ((1 << bits) - 1)
            history >>= bits
        return folded

    def _vtage_index(self, pc: int, table: int, history: int) -> int:
        cfg = self.config
        bits = cfg.vtage_entries.bit_length() - 1
        fold = self._fold(history, self._history_lengths[table], bits)
        return ((pc >> 2) ^ fold ^ (table * 0x9E3)) % cfg.vtage_entries

    def _vtage_tag(self, pc: int, table: int, history: int) -> int:
        cfg = self.config
        fold = self._fold(history, self._history_lengths[table], cfg.vtage_tag_bits)
        return ((pc >> 2) ^ (fold << 1) ^ (table * 7)) & ((1 << cfg.vtage_tag_bits) - 1)

    def _vtage_lookup(self, pc: int, history: int) -> Optional[_VtageEntry]:
        for table in reversed(range(self.config.vtage_tables)):
            entry = self._vtage[table][self._vtage_index(pc, table, history)]
            if entry is not None and entry.tag == self._vtage_tag(pc, table, history):
                return entry
        return None

    # -------------------------------------------------------------- prediction

    def predict(self, pc: int, branch_history: int = 0) -> ValuePrediction:
        """VTAGE first, stride fallback: the EVES component hierarchy."""
        cfg = self.config
        vtage_entry = self._vtage_lookup(pc, branch_history)
        if vtage_entry is not None and vtage_entry.confidence >= cfg.vtage_confidence_threshold:
            return ValuePrediction(predicted=True, value=vtage_entry.value, component="vtage")
        stride_entry = self._stride.get(pc)
        if stride_entry is not None and stride_entry.confidence >= cfg.stride_confidence_threshold:
            value = (stride_entry.last_value + stride_entry.stride) & _MASK64
            return ValuePrediction(predicted=True, value=value, component="stride")
        return ValuePrediction(predicted=False)

    # ---------------------------------------------------------------- training

    def _train_stride(self, pc: int, actual_value: int) -> None:
        cfg = self.config
        entry = self._stride.get(pc)
        if entry is None:
            if len(self._stride) >= cfg.stride_entries:
                self._stride.pop(next(iter(self._stride)))
            self._stride[pc] = _StrideEntry(actual_value)
            return
        observed_stride = (actual_value - entry.last_value) & _MASK64
        if observed_stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, cfg.stride_confidence_max)
        else:
            entry.confidence = 0
            entry.stride = observed_stride
        entry.last_value = actual_value

    def _train_vtage(self, pc: int, actual_value: int, history: int) -> None:
        cfg = self.config
        entry = self._vtage_lookup(pc, history)
        if entry is not None:
            if entry.value == actual_value:
                entry.confidence = min(entry.confidence + 1, cfg.vtage_confidence_max)
                entry.useful = min(entry.useful + 1, 3)
            else:
                entry.confidence = 0
                entry.useful = max(entry.useful - 1, 0)
                if entry.useful == 0:
                    entry.value = actual_value
            return
        # Allocate in a random-ish table whose slot is not useful.
        for table in range(cfg.vtage_tables):
            index = self._vtage_index(pc, table, history)
            slot = self._vtage[table][index]
            if slot is None or slot.useful == 0:
                self._vtage[table][index] = _VtageEntry(
                    tag=self._vtage_tag(pc, table, history), value=actual_value)
                return

    def train(self, pc: int, actual_value: int, branch_history: int = 0) -> None:
        """Train both components with the committed value."""
        self._train_stride(pc, actual_value)
        self._train_vtage(pc, actual_value, branch_history)

    # ------------------------------------------------------------------- stats

    def record_outcome(self, prediction: ValuePrediction, actual_value: int) -> bool:
        """Account the verification outcome; returns True if the prediction was correct."""
        self.attempts += 1
        if not prediction.predicted:
            return True
        self.predictions += 1
        if prediction.value == actual_value:
            self.correct += 1
            return True
        return False
