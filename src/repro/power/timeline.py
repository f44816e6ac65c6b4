"""Columnar power timeline: structure-of-arrays segment storage.

The energy-accounting hot path fires on *every* core state change.  With
COUNTDOWN-style governors and fault injection a 512-rank run produces
hundreds of thousands of constant-power segments; allocating a frozen
:class:`PowerSegment` per change and re-walking the resulting object list
in Python dominates governed/DVFS-heavy cells now that the fabric kernel
is vectorized (DESIGN.md §12).

:class:`SegmentStore` keeps the timeline as four parallel numpy columns
(``core_id``/``start``/``end``/``power``) split into fixed-size blocks,
so a long run never copies or over-allocates its history.  Appends stage
in a small Python list (tuple appends are ~4x cheaper than four numpy
scalar stores) and fold into the blocks in batches; the fold preserves
append order exactly, so every block consumer sees segments in the order
they closed — that ordering is what makes the vectorized meter and the
per-core energy fold byte-identical to the oracles (DESIGN.md §13).

:class:`SegmentView` is the lazy compatibility facade: existing callers
that iterate ``accountant.segments`` still receive ``PowerSegment``
instances, materialized one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["PowerSegment", "SegmentStore", "SegmentView"]

#: Bytes of one row across the four columns (int64 + 3 x float64).
_ROW_BYTES = 32


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
    """Append-only structure-of-arrays segment log in fixed-size blocks.

    Rows fold into blocks of :attr:`BLOCK_ROWS` rows each; a full block
    starts a new one and is never copied again, so the columns hold at
    most one partly filled block of slack.  ``len()``, indexing and
    iteration account for both folded rows and the staging buffer, so
    the store is always observationally complete.
    """

    #: Staging-buffer size before folding into the blocks.
    FLUSH_BATCH = 1024
    #: Rows per column block.
    BLOCK_ROWS = 4096

    __slots__ = ("_n", "_size", "_blocks", "_buf", "_buf_append")

    def __init__(self) -> None:
        self._n = 0
        self._size = self.BLOCK_ROWS
        # One ``(core_id, start, end, power)`` tuple of arrays per block.
        self._blocks: List[Tuple[np.ndarray, ...]] = []
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
        """Fold the staging buffer into the blocks, preserving order."""
        buf = self._buf
        if not buf:
            return
        columns = tuple(zip(*buf))
        buf.clear()
        size = self._size
        n = self._n
        done, k = 0, len(columns[0])
        while done < k:
            offset = n % size
            if offset == 0:
                self._blocks.append((
                    np.empty(size, dtype=np.int64),
                    np.empty(size, dtype=np.float64),
                    np.empty(size, dtype=np.float64),
                    np.empty(size, dtype=np.float64),
                ))
            take = min(size - offset, k - done)
            for dest, column in zip(self._blocks[-1], columns):
                dest[offset:offset + take] = column[done:done + take]
            n += take
            done += take
        self._n = n

    # -- reading -----------------------------------------------------------
    def __len__(self) -> int:
        return self._n + len(self._buf)

    @property
    def nbytes(self) -> int:
        """Bytes held by the column blocks (the staging buffer excluded):
        every block is full-sized, 32 bytes a row."""
        return len(self._blocks) * self._size * _ROW_BYTES

    def blocks(self, first: int = 0) -> List[Tuple[np.ndarray, ...]]:
        """``(core_id, start, end, power)`` views of rows ``first`` onward,
        one tuple per block, in row order.

        Folds any staged rows first.  The views alias the backing storage;
        treat them as read-only.
        """
        self._fold()
        size = self._size
        n = self._n
        views = []
        index, offset = divmod(first, size)
        while index * size + offset < n:
            stop = min(size, n - index * size)
            views.append(tuple(column[offset:stop]
                               for column in self._blocks[index]))
            index += 1
            offset = 0
        return views

    def __getitem__(self, index: int) -> PowerSegment:
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("segment index out of range")
        if index >= self._n:  # still in the staging buffer
            cid, start, end, power = self._buf[index - self._n]
            return PowerSegment(cid, start, end, power)
        block, row = divmod(index, self._size)
        cid, start, end, power = self._blocks[block]
        return PowerSegment(
            int(cid[row]), float(start[row]), float(end[row]), float(power[row])
        )

    def __iter__(self) -> Iterator[PowerSegment]:
        for cid, start, end, power in self.blocks():
            for row in zip(cid.tolist(), start.tolist(),
                           end.tolist(), power.tolist()):
                yield PowerSegment(*row)


class SegmentView(Sequence):
    """Lazy compatibility view over a :class:`SegmentStore`.

    Behaves like the list of :class:`PowerSegment` objects the object-based
    accountant would have built — iteration, indexing, ``len`` and equality
    against real lists all work — without materializing anything until
    asked.  Vector consumers (the meter) bypass it via :meth:`blocks`.
    """

    __slots__ = ("_store",)

    def __init__(self, store: SegmentStore) -> None:
        self._store = store

    def blocks(self, first: int = 0) -> List[Tuple[np.ndarray, ...]]:
        return self._store.blocks(first)

    @property
    def nbytes(self) -> int:
        return self._store.nbytes

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
