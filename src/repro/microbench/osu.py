"""OSU-style microbenchmarks (paper §VII-B uses the OSU MPI benchmarks).

Simulated equivalents of the classic suite: ping-pong latency, windowed
streaming bandwidth, bidirectional bandwidth, and the collective latency
loops.  Each returns ``(size, metric)`` rows like the original tools
print.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..collectives.registry import CollectiveConfig, CollectiveEngine, PowerMode
from ..mpi.job import MpiJob
from ..mpi.p2p import ProgressMode
from ..sim.session import SimSession

#: Default OSU size ladder (powers of two, 1 B .. 4 MB).
DEFAULT_SIZES: Tuple[int, ...] = tuple(1 << k for k in range(0, 23, 2))

#: OSU defaults: skip a few warm-up iterations, then time the rest.
DEFAULT_WARMUP = 2
DEFAULT_ITERATIONS = 10
#: osu_bw window size.
DEFAULT_WINDOW = 64


def _job(n_ranks: int, mode: PowerMode, progress: ProgressMode,
         session: Optional[SimSession]) -> MpiJob:
    return MpiJob(
        n_ranks,
        session=SimSession(keep_segments=False) if session is None else session,
        collectives=CollectiveEngine(CollectiveConfig(power_mode=mode)),
        progress=progress,
    )


def _pair_job(inter_node: bool, progress: ProgressMode,
              session: Optional[SimSession]) -> Tuple[MpiJob, int]:
    """A job for a two-rank benchmark and rank 0's peer in it.

    The job fills two nodes (2 x ``cores_per_node`` ranks of the
    session's cluster); the inter-node peer is the first rank of the
    second node, the intra-node one rank 1.
    """
    if session is None:
        session = SimSession(keep_segments=False)
    spec = session.cluster_spec
    if spec.nodes < 2:
        raise ValueError(
            "OSU point-to-point benchmarks need a cluster of at least two "
            f"nodes, got {spec.nodes}"
        )
    cores = spec.node.cores_per_node
    job = _job(2 * cores, PowerMode.NONE, progress, session)
    return job, cores if inter_node else 1


def osu_latency(
    nbytes: int,
    inter_node: bool = True,
    iterations: int = DEFAULT_ITERATIONS,
    warmup: int = DEFAULT_WARMUP,
    progress: ProgressMode = ProgressMode.POLLING,
    session: Optional[SimSession] = None,
) -> float:
    """One-way point-to-point latency in seconds (ping-pong / 2).

    ``inter_node`` picks a cross-node pair (rank 0 and the first rank of
    the second node); otherwise the two ranks share a node (shared-memory
    path).
    """
    job, peer = _pair_job(inter_node, progress, session)
    out = {}

    def program(ctx):
        if ctx.rank == 0:
            for i in range(warmup + iterations):
                if i == warmup:
                    t0 = ctx.env.now
                yield from ctx.send(dst=peer, nbytes=nbytes, tag=1)
                yield from ctx.recv(src=peer, tag=2)
            out["elapsed"] = ctx.env.now - t0
        elif ctx.rank == peer:
            for _ in range(warmup + iterations):
                yield from ctx.recv(src=0, tag=1)
                yield from ctx.send(dst=0, nbytes=nbytes, tag=2)

    job.run(program)
    return out["elapsed"] / iterations / 2.0


def osu_bw(
    nbytes: int,
    inter_node: bool = True,
    iterations: int = DEFAULT_ITERATIONS,
    warmup: int = DEFAULT_WARMUP,
    window: int = DEFAULT_WINDOW,
    session: Optional[SimSession] = None,
) -> float:
    """Unidirectional streaming bandwidth in B/s (windowed isends + ack)."""
    job, peer = _pair_job(inter_node, ProgressMode.POLLING, session)
    out = {}

    def program(ctx):
        if ctx.rank == 0:
            for i in range(warmup + iterations):
                if i == warmup:
                    t0 = ctx.env.now
                requests = []
                for _ in range(window):
                    req = yield from ctx.isend(dst=peer, nbytes=nbytes, tag=1)
                    requests.append(req)
                yield from ctx._wait(ctx.env.all_of(requests))
                yield from ctx.recv(src=peer, tag=2)  # ack
            out["elapsed"] = ctx.env.now - t0
        elif ctx.rank == peer:
            for _ in range(warmup + iterations):
                for _ in range(window):
                    yield from ctx.recv(src=0, tag=1)
                yield from ctx.send(dst=0, nbytes=0, tag=2)

    job.run(program)
    return nbytes * window * iterations / out["elapsed"]


def osu_bibw(
    nbytes: int,
    inter_node: bool = True,
    iterations: int = DEFAULT_ITERATIONS,
    warmup: int = DEFAULT_WARMUP,
    window: int = DEFAULT_WINDOW,
    session: Optional[SimSession] = None,
) -> float:
    """Bidirectional bandwidth in B/s (both sides stream simultaneously)."""
    job, peer = _pair_job(inter_node, ProgressMode.POLLING, session)
    out = {}

    def program(ctx):
        if ctx.rank in (0, peer):
            other = peer if ctx.rank == 0 else 0
            for i in range(warmup + iterations):
                if i == warmup and ctx.rank == 0:
                    out["t0"] = ctx.env.now
                requests = []
                for _ in range(window):
                    sreq = yield from ctx.isend(dst=other, nbytes=nbytes, tag=1)
                    rreq = yield from ctx.irecv(src=other, tag=1)
                    requests.extend((sreq, rreq))
                yield from ctx._wait(ctx.env.all_of(requests))
            if ctx.rank == 0:
                out["elapsed"] = ctx.env.now - out["t0"]

    job.run(program)
    return 2.0 * nbytes * window * iterations / out["elapsed"]


def osu_collective_latency(
    op: str,
    nbytes: int,
    n_ranks: int = 64,
    mode: PowerMode = PowerMode.NONE,
    iterations: int = DEFAULT_ITERATIONS,
    warmup: int = DEFAULT_WARMUP,
    progress: ProgressMode = ProgressMode.POLLING,
    session: Optional[SimSession] = None,
) -> float:
    """Average collective latency in seconds (barrier-separated timed loop,
    like osu_alltoall / osu_bcast / ...)."""
    job = _job(n_ranks, mode, progress, session)
    out = {}

    def program(ctx):
        for _ in range(warmup):
            yield from getattr(ctx, op)(nbytes)
        yield from ctx.barrier()
        t0 = ctx.env.now
        for _ in range(iterations):
            yield from getattr(ctx, op)(nbytes)
        if ctx.rank == 0:
            out["elapsed"] = ctx.env.now - t0

    job.run(program)
    return out["elapsed"] / iterations


def sweep(
    benchfn,
    sizes: Sequence[int] = DEFAULT_SIZES,
    **kwargs,
) -> List[Tuple[int, float]]:
    """Run ``benchfn`` over a size ladder, returning (size, value) rows."""
    return [(nbytes, benchfn(nbytes, **kwargs)) for nbytes in sizes]
