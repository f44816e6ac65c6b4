"""Correctness/behaviour tests for the default collective algorithms."""

import pytest

from repro.collectives import CollectiveConfig, CollectiveEngine
from repro.mpi import MpiJob
from repro.network import NetworkSpec
from repro.sim import SimSession

IDEAL_NET = NetworkSpec(flow_congestion=0.0)


def run_collective(op, nbytes, n_ranks=16, config=None):
    job = MpiJob(
        n_ranks, collectives=CollectiveEngine(config),
        session=SimSession(network_spec=IDEAL_NET),
    )

    def program(ctx):
        yield from getattr(ctx, op)(nbytes)

    return job.run(program)


# ------------------------------------------------------------------- alltoall
def test_alltoall_message_count_pairwise():
    """Pairwise exchange: every rank sends P−1 messages."""
    n = 16
    result = run_collective("alltoall", 1 << 16, n)
    assert result.job.engine.messages_sent == n * (n - 1)


def test_alltoall_small_uses_bruck():
    """Bruck: log2(P) sendrecvs per rank instead of P−1."""
    n = 16
    result = run_collective("alltoall", 64, n)
    assert result.job.engine.messages_sent == n * 4  # log2(16) rounds


def test_alltoall_switch_threshold_respected():
    cfg = CollectiveConfig(alltoall_switch_bytes=1 << 30)
    result = run_collective("alltoall", 1 << 16, 16, config=cfg)
    assert result.job.engine.messages_sent == 16 * 4  # still Bruck


def test_alltoall_completes_on_non_power_of_two_nodes():
    # 24 ranks = 3 nodes of 8: ring-shifted pairwise.
    result = run_collective("alltoall", 1 << 14, 24)
    assert result.job.engine.messages_sent == 24 * 23
    assert result.duration_s > 0


def test_alltoall_scales_with_message_size():
    t1 = run_collective("alltoall", 1 << 16, 16).duration_s
    t2 = run_collective("alltoall", 1 << 18, 16).duration_s
    assert 3.0 < t2 / t1 < 4.5  # near-linear in M for large messages


def test_alltoallv_uniform_matches_alltoall_shape():
    n = 16
    job = MpiJob(n, session=SimSession(network_spec=IDEAL_NET))

    def program(ctx):
        yield from ctx.alltoallv([1 << 14] * n)

    r = job.run(program)
    assert r.job.engine.messages_sent == n * (n - 1)


def test_alltoallv_validates_counts():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))

    def program(ctx):
        yield from ctx.alltoallv([1, 2, 3])  # wrong length

    with pytest.raises(ValueError):
        job.run(program)


def test_alltoallv_skewed_finishes():
    n = 16
    job = MpiJob(n, session=SimSession(network_spec=IDEAL_NET))

    def program(ctx):
        counts = [((ctx.rank + d) % n) * 512 for d in range(n)]
        yield from ctx.alltoallv(counts)

    r = job.run(program)
    assert r.duration_s > 0


# ------------------------------------------------------------------- bcast
def test_bcast_completes_all_roots():
    for root in (0, 5, 15):
        job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))

        def program(ctx, root=root):
            yield from ctx.bcast(1 << 16, root=root)

        r = job.run(program)
        assert r.duration_s > 0
        assert job.engine.quiescent()


def test_mc_bcast_network_phase_recorded():
    r = run_collective("bcast", 1 << 18, 16)
    assert "bcast.network" in r.job.stats.phase_times
    assert 0 < r.job.stats.phase_times["bcast.network"] <= r.duration_s


def test_bcast_network_phase_dominates_total():
    """Fig 2(b): the network phase accounts for most of the bcast time."""
    r = run_collective("bcast", 1 << 20, 64)
    net = r.job.stats.phase_times["bcast.network"]
    assert net / r.duration_s > 0.5


def test_bcast_single_node_skips_network():
    r = run_collective("bcast", 1 << 16, 8)  # one node
    assert "bcast.network" not in r.job.stats.phase_times


def test_bcast_larger_messages_slower():
    t1 = run_collective("bcast", 1 << 16, 16).duration_s
    t2 = run_collective("bcast", 1 << 20, 16).duration_s
    assert t2 > t1


# ------------------------------------------------------------------- reduce
def test_reduce_completes_and_records_phase():
    r = run_collective("reduce", 1 << 12, 16)
    assert "reduce.network" in r.job.stats.phase_times


def test_reduce_non_leader_root():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))

    def program(ctx):
        yield from ctx.reduce(4096, root=5)

    job.run(program)
    assert job.engine.quiescent()


# -------------------------------------------------------------- other colls
def test_allgather_completes():
    r = run_collective("allgather", 1 << 12, 16)
    # Ring: P−1 messages per rank.
    assert r.job.engine.messages_sent == 16 * 15


def test_allreduce_power_of_two():
    r = run_collective("allreduce", 1 << 12, 16)
    assert r.job.engine.messages_sent == 16 * 4  # recursive doubling


def test_allreduce_non_power_of_two_falls_back():
    r = run_collective("allreduce", 1 << 12, 24)
    assert r.duration_s > 0


def test_scatter_and_gather_complete():
    for op in ("scatter", "gather"):
        r = run_collective(op, 1 << 12, 16)
        assert r.duration_s > 0
        assert r.job.engine.quiescent()


def test_barrier_synchronises():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    after = {}

    def program(ctx):
        if ctx.rank == 3:
            yield from ctx.compute(1e-3)  # straggler
        yield from ctx.barrier()
        after[ctx.rank] = ctx.env.now

    job.run(program)
    assert min(after.values()) >= 1e-3  # nobody leaves before the straggler


def test_successive_collectives_do_not_cross_match():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))

    def program(ctx):
        yield from ctx.alltoall(1 << 14)
        yield from ctx.alltoall(1 << 15)
        yield from ctx.bcast(1 << 14)
        yield from ctx.reduce(1 << 14)
        yield from ctx.barrier()

    job.run(program)
    assert job.engine.quiescent()


def test_collective_on_subcommunicator():
    """Flat algorithms run on an arbitrary communicator (here: leaders)."""
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))

    def program(ctx):
        if ctx.is_node_leader():
            yield from ctx.bcast(1 << 14, root=0, comm=ctx.leader_comm)

    job.run(program)
    assert job.engine.quiescent()


def test_zero_byte_collectives():
    for op in ("alltoall", "bcast", "reduce", "allgather"):
        r = run_collective(op, 0, 16)
        assert r.duration_s >= 0
