"""Reference power path: the object energy accountant and the loop meter.

:class:`ObjectAccountant` is the original per-segment accountant that
:class:`repro.power.accounting.EnergyAccountant` replaced: it evaluates
power on every state change, uncached, through
:meth:`~repro.power.model.PowerModel.core_power_for`, adds each segment's
energy eagerly, and keeps a plain list of
:class:`~repro.power.timeline.PowerSegment` objects.

:func:`meter_reference` is the per-segment, per-bucket Python loop that
:meth:`repro.power.meter.PowerMeter.from_segments` vectorizes; it uses the
same bucket grid and adds in the same (segment-major, bucket-minor)
order.

The production path must match both bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.cpu import Core
from repro.cluster.topology import Cluster
from repro.numeric import left_sum
from repro.power.meter import PowerMeter, PowerTrace
from repro.power.model import PowerModel
from repro.power.timeline import PowerSegment


class ObjectAccountant:
    """Per-segment object accountant with ``EnergyAccountant``'s query
    surface (``finalize``, ``core_energy_j``, ``total_energy_j``, ...)."""

    def __init__(
        self,
        cluster: Cluster,
        model: Optional[PowerModel] = None,
        start_time: float = 0.0,
        keep_segments: bool = True,
    ):
        self.cluster = cluster
        self.model = model or PowerModel()
        self.start_time = start_time
        self.keep_segments = keep_segments
        self._last_time: Dict[int, float] = {
            core.core_id: start_time for core in cluster.cores
        }
        self._core_energy: Dict[int, float] = {
            core.core_id: 0.0 for core in cluster.cores
        }
        self._finalized_at: Optional[float] = None
        self.segments: List[PowerSegment] = []
        cluster.add_listener(self._on_change)

    def _on_change(self, core: Core, now: float) -> None:
        last = self._last_time[core.core_id]
        if now < last:  # pragma: no cover - defensive
            raise ValueError(f"time went backwards for core {core.core_id}")
        if self._finalized_at is not None and now > last:
            raise RuntimeError(
                f"ObjectAccountant was finalized at t={self._finalized_at} "
                f"but core {core.core_id} changed state at t={now}"
            )
        if now > last:
            power = self.model.core_power_for(
                core.frequency_ghz, core.tstate, core.activity
            )
            self._core_energy[core.core_id] += power * (now - last)
            if self.keep_segments:
                self.segments.append(
                    PowerSegment(core.core_id, last, now, power)
                )
        self._last_time[core.core_id] = now

    def finalize(self, now: float) -> None:
        """Close all open segments at ``now`` (end of the run)."""
        for core in self.cluster.cores:
            self._on_change(core, now)
        self._finalized_at = now

    @property
    def finalized_at(self) -> Optional[float]:
        return self._finalized_at

    def core_energy_j(self, core_id: int) -> float:
        return self._core_energy[core_id]

    def cores_energy_j(self) -> float:
        return left_sum(self._core_energy.values())

    def node_base_energy_j(self, now: Optional[float] = None) -> float:
        end = now if now is not None else self._finalized_at
        if end is None:
            raise ValueError("pass `now` or call finalize() first")
        return (
            self.model.params.node_base_w
            * self.cluster.n_nodes
            * (end - self.start_time)
        )

    def total_energy_j(self, now: Optional[float] = None) -> float:
        return self.cores_energy_j() + self.node_base_energy_j(now)


def meter_reference(
    meter: PowerMeter,
    segments: Sequence[PowerSegment],
    start: float,
    end: float,
    base_w: float = 0.0,
) -> PowerTrace:
    """Bucket ``segments`` into ``meter``'s grid with a plain Python loop."""
    n_buckets, widths, times = meter._grid(start, end)
    if n_buckets == 0:
        return PowerTrace(np.empty(0), np.empty(0))
    energy = np.zeros(n_buckets)
    for seg in segments:
        lo = max(seg.start, start)
        hi = min(seg.end, end)
        if hi <= lo:
            continue
        first = min(int((lo - start) / meter.interval_s), n_buckets - 1)
        last = min(int(np.ceil((hi - start) / meter.interval_s)), n_buckets)
        for b in range(first, last):
            b_lo = start + b * meter.interval_s
            b_hi = b_lo + widths[b]
            overlap = min(hi, b_hi) - max(lo, b_lo)
            if overlap > 0:
                energy[b] += seg.power_w * overlap
    power = energy / widths + base_w
    return PowerTrace(times_s=times, power_w=power)
