"""Fitting model constants from measurements.

The paper treats ``Cnet`` as "any positive integer" chosen to make
equation (1) match measurements; these helpers perform that calibration
explicitly — from simulator output here, from real benchmark sweeps in
the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .params import ModelParams


@dataclass(frozen=True)
class HockneyFit:
    """Latency model t(M) = ts + M·tw fitted by least squares."""

    ts: float
    tw: float
    residual_rms: float

    def predict(self, nbytes: float) -> float:
        return self.ts + nbytes * self.tw

    @property
    def bandwidth(self) -> float:
        """Asymptotic bandwidth 1/tw (B/s)."""
        return 1.0 / self.tw if self.tw > 0 else float("inf")


def fit_hockney(sizes: Sequence[float], times: Sequence[float]) -> HockneyFit:
    """Fit (ts, tw) to a latency sweep."""
    if len(sizes) != len(times) or len(sizes) < 2:
        raise ValueError("need >= 2 matching (size, time) points")
    a = np.vstack([np.ones(len(sizes)), np.asarray(sizes, dtype=float)]).T
    y = np.asarray(times, dtype=float)
    (ts, tw), res, _, _ = np.linalg.lstsq(a, y, rcond=None)
    rms = float(np.sqrt(res[0] / len(y))) if len(res) else 0.0
    return HockneyFit(ts=float(ts), tw=float(tw), residual_rms=rms)


def fit_cnet(
    n_nodes: int,
    cores: int,
    sizes: Sequence[float],
    times: Sequence[float],
    params: ModelParams | None = None,
) -> float:
    """Least-squares ``Cnet`` for equation (1) on an alltoall sweep.

    eq (1): T = tw_inter · (P−c) · Cnet · M  ⇒  Cnet = Σ T·M / (k·Σ M²)
    with k = tw_inter · (P−c).
    """
    if len(sizes) != len(times) or not sizes:
        raise ValueError("need matching non-empty sweeps")
    params = params or ModelParams()
    p = n_nodes * cores
    k = params.tw_inter * (p - cores)
    m = np.asarray(sizes, dtype=float)
    t = np.asarray(times, dtype=float)
    cnet = float(np.dot(t, m) / (k * np.dot(m, m)))
    if cnet <= 0:
        raise ValueError("fitted Cnet must be positive")
    return cnet


def fit_cnet_from_simulation(
    n_ranks: int = 64,
    sizes: Tuple[int, ...] = (64 << 10, 256 << 10, 1 << 20),
) -> float:
    """Run the simulator's default alltoall over ``sizes`` and fit Cnet.

    For the paper testbed shape this lands near the ranks-per-HCA count
    (8 for 64 ranks) — confirming that the paper's abstract "contention
    factor" is, physically, HCA sharing.
    """
    from ..mpi.job import run_collective_once
    from ..sim.session import SimSession

    cores = 8
    n_nodes = n_ranks // cores
    times = [
        run_collective_once(
            "alltoall", m, n_ranks, session=SimSession(keep_segments=False)
        ).duration_s
        for m in sizes
    ]
    return fit_cnet(n_nodes, cores, sizes, times)
