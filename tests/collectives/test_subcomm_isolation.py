"""Regression tests: composed collectives draw sequence numbers from each
sub-communicator's own counter, so their internal messages can never
cross-match with user-level collectives issued directly on the same
sub-communicator."""

from repro.mpi import MpiJob
from repro.network import NetworkSpec
from repro.sim import SimSession

IDEAL_NET = NetworkSpec(flow_congestion=0.0)


def test_world_bcast_interleaved_with_leader_comm_bcast():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))

    def program(ctx):
        # mc_bcast internally runs a scatter-allgather on the leader comm.
        yield from ctx.bcast(64 << 10)
        # Direct user collective on the same leader comm right after.
        if ctx.is_node_leader():
            yield from ctx.bcast(32 << 10, root=0, comm=ctx.leader_comm)
        # And another composed one.
        yield from ctx.bcast(64 << 10)

    job.run(program)
    assert job.engine.quiescent()


def test_world_reduce_interleaved_with_shared_comm_traffic():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))

    def program(ctx):
        yield from ctx.reduce(16 << 10)
        # User messages on the shared-memory communicator.
        shared = ctx.shared_comm
        me = shared.rank_of(ctx.rank)
        partner = me ^ 1
        yield from ctx.sendrecv(
            dst=partner, nbytes=4096, tag=500, comm=shared
        )
        yield from ctx.reduce(16 << 10)

    job.run(program)
    assert job.engine.quiescent()


def test_unbalanced_leader_comm_usage_stays_consistent():
    """Leaders advance the leader-comm counter inside composed collectives;
    repeated composed + direct usage must stay aligned."""
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))

    def program(ctx):
        for _ in range(3):
            yield from ctx.bcast(32 << 10)
            if ctx.is_node_leader():
                yield from ctx.allgather(8 << 10, comm=ctx.leader_comm)

    job.run(program)
    assert job.engine.quiescent()
