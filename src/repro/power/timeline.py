"""Columnar power timeline: structure-of-arrays segment storage.

The energy-accounting hot path fires on *every* core state change.  With
COUNTDOWN-style governors and fault injection a 512-rank run produces
hundreds of thousands of constant-power segments; allocating a frozen
:class:`PowerSegment` per change and re-walking the resulting object list
in Python dominates governed/DVFS-heavy cells now that the fabric kernel
is vectorized (DESIGN.md §12).

:class:`SegmentStore` keeps the timeline as four parallel numpy columns
(``core_id``/``start``/``end``/``power``) grown by amortized doubling.
Appends stage in a small Python list (tuple appends are ~4x cheaper than
four numpy scalar stores) and fold into the columns in batches; the fold
preserves append order exactly, so every array consumer sees segments in
the order they closed — that ordering is what makes the vectorized meter
byte-identical to the loop-meter oracle (DESIGN.md §13).

:class:`SegmentView` is the lazy compatibility facade: existing callers
that iterate ``accountant.segments`` still receive ``PowerSegment``
instances, materialized one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["PowerSegment", "SegmentStore", "SegmentView"]


@dataclass(frozen=True)
class PowerSegment:
    """A span of constant power on one core."""

    core_id: int
    start: float
    end: float
    power_w: float

    @property
    def energy_j(self) -> float:
        return self.power_w * (self.end - self.start)


class SegmentStore:
    """Growable structure-of-arrays segment log.

    Columns double in capacity when full (amortized O(1) append) and are
    exposed trimmed-to-length via :meth:`columns`.  ``len()`` and
    iteration account for both folded rows and the staging buffer, so the
    store is always observationally complete.
    """

    #: Staging-buffer size before folding into the numpy columns.
    FLUSH_BATCH = 1024
    #: Initial column capacity (rows).
    INITIAL_CAPACITY = 1024

    __slots__ = ("_n", "_cap", "_core_id", "_start", "_end", "_power",
                 "_buf", "_buf_append")

    def __init__(self) -> None:
        cap = self.INITIAL_CAPACITY
        self._cap = cap
        self._n = 0
        self._core_id = np.empty(cap, dtype=np.int64)
        self._start = np.empty(cap, dtype=np.float64)
        self._end = np.empty(cap, dtype=np.float64)
        self._power = np.empty(cap, dtype=np.float64)
        self._buf: List[Tuple[int, float, float, float]] = []
        # Pre-bound method: the accountant listener calls this per segment.
        self._buf_append = self._buf.append

    # -- writing -----------------------------------------------------------
    def append(self, core_id: int, start: float, end: float,
               power_w: float) -> None:
        """Record one constant-power segment (hot path)."""
        self._buf_append((core_id, start, end, power_w))
        if len(self._buf) >= self.FLUSH_BATCH:
            self._fold()

    def staging(self) -> Tuple[list, "callable", int]:
        """``(buffer, fold, threshold)`` — the raw append contract.

        The accountant listener stages ``(core_id, start, end, power_w)``
        tuples straight into ``buffer`` (stable object; :meth:`_fold`
        drains it with ``clear``) and calls ``fold()`` once it holds
        ``threshold`` rows, skipping the :meth:`append` frame on the
        hottest call site in governed runs.
        """
        return self._buf, self._fold, self.FLUSH_BATCH

    def _fold(self) -> None:
        """Fold the staging buffer into the columns, preserving order."""
        buf = self._buf
        if not buf:
            return
        k = len(buf)
        n = self._n
        need = n + k
        if need > self._cap:
            self._grow(need)
        cid, start, end, power = zip(*buf)
        self._core_id[n:need] = cid
        self._start[n:need] = start
        self._end[n:need] = end
        self._power[n:need] = power
        self._n = need
        buf.clear()

    def _grow(self, need: int) -> None:
        cap = self._cap
        while cap < need:
            cap *= 2
        n = self._n
        for name in ("_core_id", "_start", "_end", "_power"):
            old = getattr(self, name)
            fresh = np.empty(cap, dtype=old.dtype)
            fresh[:n] = old[:n]
            setattr(self, name, fresh)
        self._cap = cap

    # -- reading -----------------------------------------------------------
    def __len__(self) -> int:
        return self._n + len(self._buf)

    @property
    def capacity(self) -> int:
        return self._cap

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(core_id, start, end, power)`` trimmed array views.

        Folds any staged rows first.  The views alias the backing storage;
        treat them as read-only (they are invalidated by the next growth).
        """
        self._fold()
        n = self._n
        return (self._core_id[:n], self._start[:n],
                self._end[:n], self._power[:n])

    def __getitem__(self, index: int) -> PowerSegment:
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("segment index out of range")
        if index >= self._n:  # still in the staging buffer
            cid, start, end, power = self._buf[index - self._n]
            return PowerSegment(cid, start, end, power)
        return PowerSegment(
            int(self._core_id[index]),
            float(self._start[index]),
            float(self._end[index]),
            float(self._power[index]),
        )

    def __iter__(self) -> Iterator[PowerSegment]:
        cid, start, end, power = self.columns()
        for row in zip(cid.tolist(), start.tolist(),
                       end.tolist(), power.tolist()):
            yield PowerSegment(*row)


class SegmentView(Sequence):
    """Lazy compatibility view over a :class:`SegmentStore`.

    Behaves like the list of :class:`PowerSegment` objects the object-based
    accountant would have built — iteration, indexing, ``len`` and equality
    against real lists all work — without materializing anything until
    asked.  Vector consumers (the meter) bypass it via :meth:`columns`.
    """

    __slots__ = ("_store",)

    def __init__(self, store: SegmentStore) -> None:
        self._store = store

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self._store.columns()

    def __len__(self) -> int:
        return len(self._store)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._store[i] for i in range(*index.indices(len(self)))]
        return self._store[index]

    def __iter__(self) -> Iterator[PowerSegment]:
        return iter(self._store)

    def __eq__(self, other) -> bool:
        if isinstance(other, SegmentView):
            other = list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SegmentView({len(self)} segments)"
