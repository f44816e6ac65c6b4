"""Algorithm selection: message-size tuning and power-mode dispatch.

The three schemes of the paper's evaluation map onto :class:`PowerMode`:

* ``NONE``      — "Default (No-Power)": state-of-the-art algorithms, fmax.
* ``DVFS``      — "Freq-Scaling": the same algorithms wrapped in per-call
  DVFS (the prior-work baseline of [5], [6]).
* ``PROPOSED``  — the paper's contribution: DVFS + T-state choreography
  (power-aware alltoall §V-A, shared-memory collectives §V-B).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .alltoall import bruck_alltoall, pairwise_alltoall, pairwise_alltoallv
from .bcast import binomial_bcast, mc_bcast
from .power_alltoall import power_aware_alltoall, supports_power_alltoall
from .power_control import with_dvfs
from .power_shm import power_aware_mc_bcast, power_aware_mc_reduce
from .reduce import binomial_reduce, mc_reduce
from .smallcolls import (
    binomial_gather,
    binomial_scatter,
    dissemination_barrier,
    linear_scan,
    recursive_doubling_allreduce,
    reduce_scatter_pairwise,
    ring_allgather,
)
from .topo_aware import power_aware_topo_bcast, topo_bcast, topo_reduce


class PowerMode(enum.Enum):
    """The power-management schemes of the paper's evaluation (§VII)."""

    NONE = "none"
    DVFS = "dvfs"
    PROPOSED = "proposed"
    #: Extension beyond the paper: decide per call, from the analytical
    #: models (§VI), whether the predicted collective duration amortises
    #: the DVFS/throttle transitions; engage PROPOSED only then.
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class CollectiveConfig:
    """Tuning knobs for the dispatcher."""

    power_mode: PowerMode = PowerMode.NONE
    #: Below this size MPI_Alltoall uses Bruck; at/above, pairwise (§IV-A).
    alltoall_switch_bytes: int = 8192
    #: Use the multi-core-aware compositions on COMM_WORLD jobs that span
    #: multiple nodes (§II-D); flat algorithms otherwise.
    multicore_aware: bool = True
    #: Power machinery only engages at/above this message size: the
    #: 2·Odvfs + throttle cost would dominate small operations (the paper's
    #: power experiments all start at 16 KB).
    power_min_bytes: int = 8192
    #: ADAPTIVE mode: engage the power machinery when the model-predicted
    #: collective duration exceeds ``adaptive_gain`` x the transition
    #: overhead.  The default is the energy break-even: the proposed
    #: schemes cut system power by ~29 %, so engaging pays off once
    #: 0.29·T_est > overhead, i.e. T_est > ~3.5x overhead.
    adaptive_gain: float = 3.5

    def __post_init__(self) -> None:
        if self.alltoall_switch_bytes < 0:
            raise ValueError("alltoall_switch_bytes must be >= 0")
        if self.power_min_bytes < 0:
            raise ValueError("power_min_bytes must be >= 0")


class CollectiveEngine:
    """Per-job dispatcher from (operation, size, comm, mode) to algorithm."""

    def __init__(self, config: CollectiveConfig | None = None):
        self.config = config or CollectiveConfig()

    # -- helpers -------------------------------------------------------------
    def _mode(self, nbytes: int = None, ctx=None, op: str = "") -> PowerMode:
        """The effective power mode for an operation of ``nbytes`` (power
        machinery is bypassed below ``power_min_bytes``; ADAPTIVE resolves
        to PROPOSED or NONE from the duration estimate)."""
        if nbytes is not None and nbytes < self.config.power_min_bytes:
            return PowerMode.NONE
        mode = self.config.power_mode
        if mode is PowerMode.ADAPTIVE:
            if ctx is None or nbytes is None:
                return PowerMode.NONE
            return self._adaptive_decision(ctx, op, nbytes)
        return mode

    def _adaptive_decision(self, ctx, op: str, nbytes: int) -> PowerMode:
        """Engage PROPOSED when the §VI model predicts the collective lasts
        long enough to amortise the P-/T-state transitions."""
        aff = ctx.affinity
        spec = ctx.core.spec
        net = ctx.spec
        n = max(aff.n_nodes_used, 1)
        c = aff.cores_per_node
        p = aff.n_ranks
        tw = 1.0 / net.nic_bw
        if op == "alltoall":
            est = tw * (p - c) * c * nbytes  # eq (1), Cnet = ranks/HCA
            overhead = 2 * spec.dvfs_latency_s + n * spec.throttle_latency_s
        elif op in ("bcast", "reduce"):
            est = nbytes * (n - 1) * tw * (1 + 1 / n)  # eq (2)
            overhead = 2 * spec.dvfs_latency_s + 2 * spec.throttle_latency_s
        else:
            est = nbytes * max(p - 1, 1) * tw
            overhead = 2 * spec.dvfs_latency_s
        if est > self.config.adaptive_gain * overhead:
            return PowerMode.PROPOSED
        return PowerMode.NONE

    def _mc_eligible(self, ctx, comm) -> bool:
        return (
            self.config.multicore_aware
            and comm is ctx.world
            and ctx.affinity.n_nodes_used > 1
            and ctx.affinity.cores_per_node > 1
        )

    def _topo_eligible(self, ctx, comm, root: int) -> bool:
        """Use the rack-aware compositions on multi-rack jobs (§VIII)."""
        return (
            self._mc_eligible(ctx, comm)
            and ctx.job.cluster.spec.racks > 1
            and ctx.affinity.n_racks_used > 1
            and root == 0
        )

    # -- operations ------------------------------------------------------------
    # Each returns the chosen algorithm's generator (wrapped in per-call
    # DVFS for the Freq-Scaling scheme) rather than driving it itself, so
    # a rank's resume passes through no dispatcher frame.
    @staticmethod
    def _scheme(ctx, mode: PowerMode, inner):
        """``inner`` as is for NONE, else between a DVFS down/up pair (DVFS,
        or PROPOSED on a shape without a dedicated power-aware variant)."""
        return inner if mode is PowerMode.NONE else with_dvfs(ctx, inner)

    def alltoall(self, ctx, nbytes: int, comm):
        seq = ctx.next_seq(comm)
        mode = self._mode(nbytes, ctx, "alltoall")
        if mode is PowerMode.PROPOSED and supports_power_alltoall(ctx, comm):
            return power_aware_alltoall(ctx, nbytes, comm, seq)
        if nbytes < self.config.alltoall_switch_bytes:
            inner = bruck_alltoall(ctx, nbytes, comm, seq)
        else:
            inner = pairwise_alltoall(ctx, nbytes, comm, seq)
        return self._scheme(ctx, mode, inner)

    def alltoallv(self, ctx, send_counts, comm):
        seq = ctx.next_seq(comm)
        mode = self._mode(
            max(send_counts) if len(send_counts) else 0, ctx, "alltoall"
        )
        if mode is PowerMode.PROPOSED and supports_power_alltoall(ctx, comm):
            # §VII-D / [26]: the Alltoallv variant runs the same four-phase
            # schedule carrying the native per-peer counts.
            return power_aware_alltoall(
                ctx, 0, comm, seq, send_counts=list(send_counts)
            )
        return self._scheme(
            ctx, mode, pairwise_alltoallv(ctx, send_counts, comm, seq)
        )

    def bcast(self, ctx, nbytes: int, root: int, comm):
        seq = ctx.next_seq(comm)
        mode = self._mode(nbytes, ctx, "bcast")
        if self._topo_eligible(ctx, comm, root):
            if mode is PowerMode.PROPOSED:
                return power_aware_topo_bcast(ctx, nbytes, root, comm, seq)
            inner = topo_bcast(ctx, nbytes, root, comm, seq)
        elif self._mc_eligible(ctx, comm):
            if mode is PowerMode.PROPOSED:
                return power_aware_mc_bcast(ctx, nbytes, root, comm, seq)
            inner = mc_bcast(ctx, nbytes, root, comm, seq)
        else:
            inner = binomial_bcast(ctx, nbytes, root, comm, seq)
        return self._scheme(ctx, mode, inner)

    def reduce(self, ctx, nbytes: int, root: int, comm):
        seq = ctx.next_seq(comm)
        mode = self._mode(nbytes, ctx, "reduce")
        if self._topo_eligible(ctx, comm, root):
            # A dedicated throttled variant is future work here too;
            # per-call DVFS is the safe power scheme for topo-reduce.
            inner = topo_reduce(ctx, nbytes, root, comm, seq)
        elif self._mc_eligible(ctx, comm):
            if mode is PowerMode.PROPOSED:
                return power_aware_mc_reduce(ctx, nbytes, root, comm, seq)
            inner = mc_reduce(ctx, nbytes, root, comm, seq)
        else:
            inner = binomial_reduce(ctx, nbytes, root, comm, seq)
        return self._scheme(ctx, mode, inner)

    def allreduce(self, ctx, nbytes: int, comm):
        seq = ctx.next_seq(comm)
        return self._scheme(
            ctx, self._mode(nbytes, ctx, "other"),
            recursive_doubling_allreduce(ctx, nbytes, comm, seq),
        )

    def allgather(self, ctx, nbytes: int, comm):
        seq = ctx.next_seq(comm)
        return self._scheme(
            ctx, self._mode(nbytes, ctx, "other"),
            ring_allgather(ctx, nbytes, comm, seq),
        )

    def scatter(self, ctx, nbytes: int, root: int, comm):
        seq = ctx.next_seq(comm)
        return self._scheme(
            ctx, self._mode(nbytes),
            binomial_scatter(ctx, nbytes, root, comm, seq),
        )

    def gather(self, ctx, nbytes: int, root: int, comm):
        seq = ctx.next_seq(comm)
        return self._scheme(
            ctx, self._mode(nbytes),
            binomial_gather(ctx, nbytes, root, comm, seq),
        )

    def reduce_scatter(self, ctx, nbytes: int, comm):
        seq = ctx.next_seq(comm)
        return self._scheme(
            ctx, self._mode(nbytes),
            reduce_scatter_pairwise(ctx, nbytes, comm, seq),
        )

    def scan(self, ctx, nbytes: int, comm):
        seq = ctx.next_seq(comm)
        return self._scheme(
            ctx, self._mode(nbytes), linear_scan(ctx, nbytes, comm, seq)
        )

    def barrier(self, ctx, comm):
        return dissemination_barrier(ctx, comm, ctx.next_seq(comm))
