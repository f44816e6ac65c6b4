"""Energy accounting: integrates per-core power over the state timeline.

The accountant registers itself as a state listener on every core.  Core
state is piecewise-constant between mutations, so each notification closes
one constant-power segment:

    E += p(core state during segment) · (now − segment start)

Segments append into a structure-of-arrays
:class:`~repro.power.timeline.SegmentStore` (DESIGN.md §13) so the sampled
:class:`repro.power.meter.PowerMeter` can reconstruct the kW-vs-time
series the paper plots; ``segments`` is a lazy
:class:`~repro.power.timeline.SegmentView` that still yields
:class:`PowerSegment` objects.  Per-core energy is folded out of the
store's blocks on demand, incrementally from a watermark, in row order.

The hypothesis differential suite and the ``benchmarks/bench_power_path.py``
gate hold this accountant byte-identical to the per-segment object
accountant in ``tests/oracles/energy.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..cluster.cpu import Core
from ..cluster.topology import Cluster
from ..numeric import left_sum
from .model import PowerModel
from .timeline import PowerSegment, SegmentStore, SegmentView

__all__ = ["EnergyAccountant", "PowerSegment"]


class EnergyAccountant:
    """Tracks per-core and whole-system energy for one simulation run."""

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
        self._core_energy: Dict[int, float] = {
            core.core_id: 0.0 for core in cluster.cores
        }
        self._finalized_at: Optional[float] = None
        self._detached = False
        self._store: Optional[SegmentStore] = (
            SegmentStore() if keep_segments else None
        )
        if keep_segments:
            (self._stage_buf, self._stage_fold,
             self._stage_limit) = self._store.staging()
        else:
            self._stage_buf = None
            self._stage_fold = None
            self._stage_limit = 0
        # List-indexed last-change times (core ids are small ints); two
        # list ops per event beat two dict probes.
        self._last_list = [start_time] * (
            max((c.core_id for c in cluster.cores), default=-1) + 1
        )
        # Hot-path bindings: the model's memo dict lets the listener
        # resolve a repeated state's power with one dict probe instead of
        # a method call; ``_core_power`` is the slow path that also fills
        # that memo.
        self._model_cache = self.model._cache
        self._core_power = self.model.core_power
        # With a store, per-core energy is folded out of the blocks on
        # demand (see _sync_core_energy) into one running array; this
        # watermark is the row count that array already holds.
        self._energy_rows = 0
        self._energy_sums = np.zeros(len(self._last_list))
        cluster.add_listener(self._on_change)

    @property
    def segments(self) -> Sequence[PowerSegment]:
        """The recorded timeline as a ``PowerSegment`` sequence (empty
        when built with ``keep_segments=False``)."""
        if self._store is not None:
            return SegmentView(self._store)
        return []

    # -- listener ----------------------------------------------------------
    def detach(self) -> None:
        """Stop observing the cluster (removes the core listeners).

        Idempotent.  Call this before reusing a cluster with a fresh
        accountant — a finalized-but-attached accountant raises on the
        next state change instead of silently extending its segments.
        """
        if self._detached:
            return
        self.cluster.remove_listener(self._on_change)
        self._detached = True

    @property
    def detached(self) -> bool:
        return self._detached

    def _on_change(self, core: Core, now: float) -> None:
        """Close the segment ending at ``now`` (core state is still the
        *old* state when this is invoked)."""
        cid = core.core_id
        last_list = self._last_list
        last = last_list[cid]
        if now > last:
            if self._finalized_at is not None:
                raise RuntimeError(
                    f"EnergyAccountant was finalized at "
                    f"t={self._finalized_at} but core {cid} changed state "
                    f"at t={now}; call detach() before reusing the cluster "
                    "(a finalized accountant must not silently extend its "
                    "segments)"
                )
            power = self._model_cache.get(
                (core.frequency_ghz, core.tstate, core.activity)
            )
            if power is None:
                power = self._core_power(core)
            buf = self._stage_buf
            if buf is not None:
                # Stage straight into the store's buffer (energy is folded
                # out of the columns lazily; no per-event arithmetic).
                buf.append((cid, last, now, power))
                if len(buf) >= self._stage_limit:
                    self._stage_fold()
            else:
                self._core_energy[cid] += power * (now - last)
        elif now < last:  # pragma: no cover - defensive
            raise ValueError(f"time went backwards for core {cid}")
        last_list[cid] = now

    # -- finalisation & queries ---------------------------------------------
    def finalize(self, now: float) -> None:
        """Close all open segments at ``now`` (end of the run)."""
        on_change = self._on_change
        for core in self.cluster.cores:
            on_change(core, now)
        self._finalized_at = now

    @property
    def finalized_at(self) -> Optional[float]:
        return self._finalized_at

    def _sync_core_energy(self) -> None:
        """Fold the rows past the watermark into the per-core energy.

        ``np.add.at`` adds each new row's ``power·(end−start)`` onto its
        core's running sum, unbuffered and in row (= time) order — the
        exact addition sequence of an eager per-segment sum, continued
        from where the previous query stopped.
        """
        store = self._store
        if store is None or len(store) == self._energy_rows:
            return
        sums = self._energy_sums
        for core_id, start, end, power in store.blocks(self._energy_rows):
            np.add.at(sums, core_id, power * (end - start))
        self._energy_rows = len(store)
        energies = sums.tolist()
        for cid in self._core_energy:
            self._core_energy[cid] = energies[cid]

    def core_energy_j(self, core_id: int) -> float:
        """Energy consumed by one core so far (J)."""
        self._sync_core_energy()
        return self._core_energy[core_id]

    def cores_energy_j(self) -> float:
        """Energy of all cores (J), excluding node base overhead."""
        self._sync_core_energy()
        return left_sum(self._core_energy.values())

    def node_base_energy_j(self, now: Optional[float] = None) -> float:
        """Node-overhead energy from the accounting start to ``now``."""
        end = now if now is not None else self._finalized_at
        if end is None:
            raise ValueError("pass `now` or call finalize() first")
        return (
            self.model.params.node_base_w
            * self.cluster.n_nodes
            * (end - self.start_time)
        )

    def total_energy_j(self, now: Optional[float] = None) -> float:
        """Whole-system energy (J): cores + node overheads.

        With ``now`` given, open segments are *not* included — call
        :meth:`finalize` first for exact totals at end of run.
        """
        return self.cores_energy_j() + self.node_base_energy_j(now)

    def total_energy_kj(self, now: Optional[float] = None) -> float:
        """Convenience: total energy in kJ (the unit of Tables I and II)."""
        return self.total_energy_j(now) / 1e3

    def attribute_energy_j(
        self, core_ids, n_nodes: int, now: Optional[float] = None
    ) -> float:
        """Energy attributable to one job: its cores + its nodes' base draw.

        ``core_ids`` are the cores the job's ranks were bound to and
        ``n_nodes`` the node count those cores span.  The node base
        overhead is charged for the whole accounting window (a
        co-scheduled job holds its nodes from t=0 even if its ranks
        finish early).  The sum over jobs of this quantity is *less*
        than :meth:`total_energy_j` whenever nodes sit unused — the
        difference is the cluster's idle residual, which
        :meth:`repro.sim.session.SimSession.run_jobs` reports
        explicitly so the parts always sum to the total.
        """
        self._sync_core_energy()
        core_j = left_sum(self._core_energy[c] for c in core_ids)
        end = now if now is not None else self._finalized_at
        if end is None:
            raise ValueError("pass `now` or call finalize() first")
        return core_j + (
            self.model.params.node_base_w * n_nodes * (end - self.start_time)
        )

    def average_power_w(self) -> float:
        """Mean system power over the finalized window (W)."""
        if self._finalized_at is None:
            raise ValueError("call finalize() first")
        duration = self._finalized_at - self.start_time
        if duration <= 0:
            return 0.0
        return self.total_energy_j() / duration
