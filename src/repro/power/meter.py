"""Sampled power meter, emulating the paper's MASTECH MS2205 clamp meter.

The physical meter reports one reading every 0.5 s; each reading is
(approximately) the average power over the sampling window.  We reproduce
that by distributing the energy of every recorded
:class:`~repro.power.accounting.PowerSegment` into fixed-width buckets and
dividing by the bucket width, then adding the constant node overhead.

:meth:`PowerMeter.from_segments` is vectorized and folds the timeline one
store block at a time (DESIGN.md §13): segment intervals are clipped
against the bucket grid and the overlap-weighted energy lands in
segment-major, bucket-minor order — the exact accumulation order of a
per-segment, per-bucket Python loop — so its working memory depends on
the block size, not on the length of the run.  That loop is kept as the
differential oracle in ``tests/oracles/energy.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .accounting import EnergyAccountant
from .timeline import PowerSegment, SegmentStore, SegmentView

#: Relative width below which a trailing fp-sliver bucket is merged into
#: its predecessor instead of minted as a near-zero-width bucket (whose
#: ``energy/width`` would spike toward inf).
_SLIVER_REL = 1e-9


@dataclass(frozen=True)
class PowerTrace:
    """A sampled power timeline."""

    times_s: np.ndarray  # bucket end times (like the meter's display ticks)
    power_w: np.ndarray  # average power over each bucket

    def __len__(self) -> int:
        return len(self.times_s)

    @property
    def power_kw(self) -> np.ndarray:
        return self.power_w / 1e3

    def mean_power_w(self) -> float:
        return float(np.mean(self.power_w)) if len(self.power_w) else 0.0

    def peak_power_w(self) -> float:
        return float(np.max(self.power_w)) if len(self.power_w) else 0.0

    def rows(self) -> List[tuple]:
        """(time, kW) pairs for report printing."""
        return list(zip(self.times_s.tolist(), self.power_kw.tolist()))


class PowerMeter:
    """Turns an accountant's segment log into a sampled power trace."""

    #: The paper's meter interval (§VII-A: "intervals of 0.5 s").
    DEFAULT_INTERVAL_S = 0.5
    #: Most (segment, bucket) pairs expanded at once; with the store's
    #: block size this bounds the fold's working memory.
    PAIR_BUDGET = 4096

    def __init__(self, interval_s: float = DEFAULT_INTERVAL_S):
        if not (math.isfinite(interval_s) and interval_s > 0):
            raise ValueError(
                "PowerMeter.interval_s must be a finite positive number "
                f"of seconds, got {interval_s!r}"
            )
        self.interval_s = interval_s

    def sample(
        self,
        accountant: EnergyAccountant,
        start: float | None = None,
        end: float | None = None,
    ) -> PowerTrace:
        """Sample the system power between ``start`` and ``end``.

        Requires the accountant to have been finalized (so all segments are
        closed) unless an explicit ``end`` within the recorded span is given.
        """
        if not accountant.keep_segments:
            raise ValueError(
                "accountant was created with keep_segments=False, so no "
                "power timeline was recorded and a sampled trace would "
                "show only node base power; re-run with keep_segments=True "
                "to sample a power trace"
            )
        if start is None:
            start = accountant.start_time
        if end is None:
            end = accountant.finalized_at
            if end is None:
                raise ValueError("accountant not finalized; pass end explicitly")
        if end <= start:
            return PowerTrace(np.empty(0), np.empty(0))
        return self.from_segments(
            accountant.segments,
            start,
            end,
            base_w=accountant.model.params.node_base_w * accountant.cluster.n_nodes,
        )

    # -- bucket grid -------------------------------------------------------
    def _grid(self, start: float, end: float
              ) -> Tuple[int, np.ndarray, np.ndarray]:
        """``(n_buckets, widths, times)`` for the span ``[start, end)``.

        When ``(end - start)`` is a near-exact multiple of the interval,
        floating-point ``ceil`` can mint a trailing bucket whose width is
        ~0 (or even negative); such a sliver is merged into the previous
        bucket instead of letting ``energy/width`` blow up.
        """
        interval = self.interval_s
        n_buckets = int(np.ceil((end - start) / interval))
        if n_buckets <= 0:
            return 0, np.empty(0), np.empty(0)
        last_width = end - (start + (n_buckets - 1) * interval)
        if n_buckets > 1 and last_width <= interval * _SLIVER_REL:
            n_buckets -= 1
            last_width = end - (start + (n_buckets - 1) * interval)
        widths = np.full(n_buckets, interval)
        widths[-1] = last_width
        times = start + interval * (np.arange(n_buckets) + 1)
        times[-1] = end
        return n_buckets, widths, times

    # -- chunked fold ------------------------------------------------------
    def from_segments(
        self,
        segments: "Sequence[PowerSegment] | SegmentStore | SegmentView",
        start: float,
        end: float,
        base_w: float = 0.0,
    ) -> PowerTrace:
        """Bucket segment energy into meter intervals; add ``base_w``."""
        n_buckets, widths, times = self._grid(start, end)
        if n_buckets == 0:
            return PowerTrace(np.empty(0), np.empty(0))
        if not isinstance(segments, (SegmentStore, SegmentView)):
            store = SegmentStore()
            for seg in segments:
                store.append(seg.core_id, seg.start, seg.end, seg.power_w)
            segments = store
        energy = np.zeros(n_buckets)
        for _, seg_start, seg_end, seg_power in segments.blocks():
            self._fold_block(energy, widths, start, end,
                             seg_start, seg_end, seg_power)
        power_w = energy / widths + base_w
        return PowerTrace(times_s=times, power_w=power_w)

    def _fold_block(
        self,
        energy: np.ndarray,
        widths: np.ndarray,
        start: float,
        end: float,
        seg_start: np.ndarray,
        seg_end: np.ndarray,
        seg_power: np.ndarray,
    ) -> None:
        """Add one block's overlap-weighted energy into ``energy``.

        The block's (segment, bucket) pairs are expanded segment-major /
        bucket-minor — the reference loop's accumulation order — at most
        :attr:`PAIR_BUDGET` at a time, so a segment spanning more buckets
        than that splits across windows in bucket order.  ``np.add.at``
        adds each pair into its bucket unbuffered, in index order, onto
        the running sums: the exact addition sequence of the reference
        loop, whatever the block or window size.
        """
        interval = self.interval_s
        n_buckets = len(energy)
        lo = np.maximum(seg_start, start)
        hi = np.minimum(seg_end, end)
        valid = hi > lo
        if not valid.all():
            lo = lo[valid]
            hi = hi[valid]
            seg_power = seg_power[valid]
        if not len(lo):
            return
        first = ((lo - start) / interval).astype(np.int64)
        np.minimum(first, n_buckets - 1, out=first)
        last = np.minimum(
            np.ceil((hi - start) / interval).astype(np.int64), n_buckets
        )
        counts = np.maximum(last - first, 0)
        # Row r owns pairs pair_start[r] <= p < pair_end[r]; a window of
        # pairs [p0, p1) covers rows r0..r1-1, its end rows in part.
        pair_end = np.cumsum(counts)
        pair_start = pair_end - counts
        total = int(pair_end[-1])
        budget = self.PAIR_BUDGET
        for p0 in range(0, total, budget):
            p1 = min(p0 + budget, total)
            r0 = int(np.searchsorted(pair_end, p0, side="right"))
            r1 = int(np.searchsorted(pair_end, p1 - 1, side="right")) + 1
            span = counts[r0:r1].copy()
            span[0] -= p0 - pair_start[r0]
            span[-1] -= pair_end[r1 - 1] - p1
            rows = np.repeat(np.arange(r0, r1), span)
            buckets = first[rows] + (np.arange(p0, p1) - pair_start[rows])
            b_lo = start + buckets * interval
            b_hi = b_lo + widths[buckets]
            overlap = (np.minimum(hi[rows], b_hi)
                       - np.maximum(lo[rows], b_lo))
            positive = overlap > 0
            np.add.at(energy, buckets[positive],
                      (seg_power[rows] * overlap)[positive])
