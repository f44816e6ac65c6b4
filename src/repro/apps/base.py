"""Profile-driven application skeletons.

The paper estimates application energy by *profiling* how long each code
spends in collective operations and combining that with microbenchmark
power measurements (§VII-A: "we have profiled the applications to learn
about how much time processes spend in various collective operations").
We take the same approach in executable form: an :class:`AppSpec` captures
the per-rank-count communication profile (iteration count, compute per
iteration, collective calls with sizes), and :func:`run_app` plays it
through the full simulator under any power mode.

To keep simulations fast, only ``sim_iterations`` of the ``iterations``
identical iterations are executed; times and energies are extrapolated
linearly (steady-state iteration structure makes this exact up to start-up
effects).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..cluster.specs import ClusterSpec
from ..collectives.registry import CollectiveConfig, CollectiveEngine, PowerMode
from ..mpi.job import JobResult, MpiJob
from ..sim.session import SimSession

#: Collective operations an app profile may invoke.
_COMM_OPS = ("alltoall", "alltoallv", "allreduce", "bcast", "reduce", "allgather")


@dataclass(frozen=True)
class CollectiveCall:
    """One collective invocation inside an iteration."""

    op: str
    nbytes: int
    count: int = 1
    #: Skew factor for alltoallv: peer d receives nbytes·(1 ± skew·w(d)).
    skew: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in _COMM_OPS:
            raise ValueError(f"unknown collective {self.op!r}")
        if self.nbytes < 0 or self.count < 1:
            raise ValueError("invalid call shape")
        if not 0.0 <= self.skew < 1.0:
            raise ValueError("skew must be in [0, 1)")


@dataclass(frozen=True)
class RankProfile:
    """Profile of one application at one rank count."""

    ranks: int
    #: Real iteration count of the full run.
    iterations: int
    #: Iterations actually simulated (results extrapolated).
    sim_iterations: int
    #: Per-rank computation per iteration at fmax (s).
    compute_per_iter_s: float
    calls_per_iter: Tuple[CollectiveCall, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.sim_iterations <= self.iterations:
            raise ValueError("need 1 <= sim_iterations <= iterations")
        if self.compute_per_iter_s < 0:
            raise ValueError("compute time must be >= 0")

    @property
    def scale(self) -> float:
        return self.iterations / self.sim_iterations


@dataclass(frozen=True)
class AppSpec:
    """An application with profiles for the rank counts it was run at."""

    name: str
    variants: Dict[int, RankProfile]

    def profile(self, n_ranks: int) -> RankProfile:
        try:
            return self.variants[n_ranks]
        except KeyError:
            raise ValueError(
                f"{self.name} has no profile for {n_ranks} ranks "
                f"(available: {sorted(self.variants)})"
            ) from None


@dataclass
class AppResult:
    """Extrapolated full-run results (the quantities in Figs 9/10 and
    Tables I/II)."""

    app: str
    ranks: int
    power_mode: PowerMode
    total_time_s: float
    alltoall_time_s: float
    energy_kj: float
    sim: JobResult

    @property
    def alltoall_fraction(self) -> float:
        return self.alltoall_time_s / self.total_time_s if self.total_time_s else 0.0


def _skewed_counts(nbytes: int, size: int, rank: int, skew: float):
    """Deterministic per-peer byte counts with mean ``nbytes``."""
    if skew == 0.0:
        return [nbytes] * size
    counts = []
    for d in range(size):
        w = ((rank * 31 + d * 17) % 7 - 3) / 3.0  # in [-1, 1]
        counts.append(max(0, int(nbytes * (1.0 + skew * w))))
    return counts


def build_program(profile: RankProfile, alltoall_seconds: Dict[int, float]):
    """Generator-factory for the rank program of ``profile``.

    Records per-rank time spent inside alltoall(v) calls into
    ``alltoall_seconds`` (the quantity Figs 9/10 plot next to the total).
    """

    def program(ctx):
        spent = 0.0
        for _ in range(profile.sim_iterations):
            yield from ctx.compute(profile.compute_per_iter_s)
            for call in profile.calls_per_iter:
                for _rep in range(call.count):
                    t0 = ctx.env.now
                    if call.op == "alltoall":
                        yield from ctx.alltoall(call.nbytes)
                    elif call.op == "alltoallv":
                        counts = _skewed_counts(
                            call.nbytes, ctx.size, ctx.rank, call.skew
                        )
                        yield from ctx.alltoallv(counts)
                    elif call.op == "allreduce":
                        yield from ctx.allreduce(call.nbytes)
                    elif call.op == "bcast":
                        yield from ctx.bcast(call.nbytes)
                    elif call.op == "reduce":
                        yield from ctx.reduce(call.nbytes)
                    elif call.op == "allgather":
                        yield from ctx.allgather(call.nbytes)
                    if call.op.startswith("alltoall"):
                        spent += ctx.env.now - t0
        alltoall_seconds[ctx.rank] = spent

    return program


def app_cluster_spec(n_ranks: int) -> ClusterSpec:
    """Fully-subscribed nodes, exactly as many as ``n_ranks`` needs (the
    paper's 32-rank runs occupy 4 of the 8 nodes; powering the idle
    half would distort the energy comparison)."""
    node = ClusterSpec().node
    return ClusterSpec(nodes=-(-n_ranks // node.cores_per_node), node=node)


def run_app(
    app: AppSpec,
    n_ranks: int,
    power_mode: PowerMode = PowerMode.NONE,
    session: Optional[SimSession] = None,
) -> AppResult:
    """Run ``app`` at ``n_ranks`` under ``power_mode``; extrapolate to the
    full iteration count.

    The run goes on ``session``, which sets the machine and any
    instruments: a fault plan perturbs the app's compute phases and its
    alltoalls, a governor or an arbiter drives its cores.  ``None`` is
    :func:`app_cluster_spec`'s cluster without a kept timeline.
    """
    profile = app.profile(n_ranks)
    if session is None:
        session = SimSession(
            cluster_spec=app_cluster_spec(n_ranks), keep_segments=False
        )
    engine = CollectiveEngine(CollectiveConfig(power_mode=power_mode))
    job = MpiJob(n_ranks, collectives=engine, session=session)
    tracer = job.session.tracer
    if tracer.enabled:
        tracer.mark(
            job.env.now, "app.start",
            app=app.name, ranks=n_ranks, mode=power_mode.value,
        )
    alltoall_seconds: Dict[int, float] = {}
    result = job.run(build_program(profile, alltoall_seconds))
    scale = profile.scale
    return AppResult(
        app=app.name,
        ranks=n_ranks,
        power_mode=power_mode,
        total_time_s=result.duration_s * scale,
        alltoall_time_s=max(alltoall_seconds.values(), default=0.0) * scale,
        energy_kj=result.energy_j * scale / 1e3,
        sim=result,
    )
