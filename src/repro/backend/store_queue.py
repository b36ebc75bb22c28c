"""In-flight store tracking: store-to-load forwarding and ordering checks.

The store queue records every in-flight store's address (once generated) and
data readiness so that (1) younger loads can forward from it, and (2) when a
store's address resolves, younger loads that already obtained a value for an
overlapping address - including loads eliminated by Constable - can be caught
as memory-ordering violations (paper §6.5).
"""

from __future__ import annotations

from typing import List, Optional


class StoreRecord:
    """One in-flight store."""

    __slots__ = ("seq", "pc", "address", "line_address", "value",
                 "address_ready", "data_ready")

    def __init__(self, seq: int, pc: int):
        self.seq = seq
        self.pc = pc
        self.address: Optional[int] = None
        self.line_address: Optional[int] = None
        self.value: Optional[int] = None
        self.address_ready = False
        self.data_ready = False

    def overlaps(self, address: int) -> bool:
        """Word-granularity overlap check against a load address."""
        if not self.address_ready or self.address is None:
            return False
        return (self.address & ~0x7) == (address & ~0x7)


class StoreQueue:
    """Age-ordered list of in-flight stores."""

    def __init__(self):
        self._stores: List[StoreRecord] = []

    def __len__(self) -> int:
        return len(self._stores)

    def insert(self, seq: int, pc: int) -> StoreRecord:
        """Allocate a record for a renamed store (address/data still unknown)."""
        record = StoreRecord(seq, pc)
        self._stores.append(record)
        return record

    def remove(self, seq: int) -> None:
        """Remove the store with sequence number ``seq`` (at retirement).

        Stores retire in program order and the queue is age-ordered, so the
        common case is popping the head; the filter fallback keeps the method
        correct for arbitrary callers.
        """
        stores = self._stores
        if stores and stores[0].seq == seq:
            del stores[0]
            return
        self._stores = [s for s in stores if s.seq != seq]

    def squash_younger_than(self, seq: int) -> None:
        """Drop all stores younger than ``seq`` (pipeline flush)."""
        self._stores = [s for s in self._stores if s.seq <= seq]

    def records(self) -> List[StoreRecord]:
        """A snapshot copy of the buffered store records."""
        return list(self._stores)

    # ---------------------------------------------------------------- queries

    def forwarding_candidate(self, load_seq: int, address: int) -> Optional[StoreRecord]:
        """Youngest older store with a resolved, overlapping address.

        The queue is age-ordered, so scanning youngest-first returns the
        first (and therefore youngest) match; the overlap check is inlined
        from :meth:`StoreRecord.overlaps` (word granularity).
        """
        word = address & ~0x7
        for store in reversed(self._stores):
            if (store.seq < load_seq and store.address_ready
                    and store.address is not None
                    and (store.address & ~0x7) == word):
                return store
        return None

    def has_unresolved_older_store(self, load_seq: int) -> bool:
        """True if any older store has not generated its address yet."""
        for store in self._stores:
            if store.seq < load_seq and not store.address_ready:
                return True
        return False
