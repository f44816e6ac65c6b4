"""Tests for MPI_Comm_split and request-wait helpers."""

import pytest

from repro.mpi import MpiJob
from repro.network import NetworkSpec
from repro.sim import SimSession

IDEAL_NET = NetworkSpec(flow_congestion=0.0)


def test_split_by_parity():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    results = {}

    def program(ctx):
        new_comm = yield from ctx.comm_split(color=ctx.rank % 2)
        results[ctx.rank] = (new_comm.size, new_comm.rank_of(ctx.rank))

    job.run(program)
    for rank, (size, local) in results.items():
        assert size == 8
        assert local == rank // 2


def test_split_key_reorders():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    results = {}

    def program(ctx):
        # Reverse ordering within one group.
        new_comm = yield from ctx.comm_split(color=0, key=-ctx.rank)
        results[ctx.rank] = new_comm.rank_of(ctx.rank)

    job.run(program)
    # Rank 15 gets local rank 0, rank 0 gets local rank 15.
    assert results[15] == 0
    assert results[0] == 15


def test_split_undefined_color_returns_none():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    results = {}

    def program(ctx):
        color = None if ctx.rank < 4 else 1
        new_comm = yield from ctx.comm_split(color=color)
        results[ctx.rank] = new_comm

    job.run(program)
    assert all(results[r] is None for r in range(4))
    assert all(results[r] is not None and results[r].size == 12 for r in range(4, 16))


def test_split_communicator_is_usable_for_collectives():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    done = {}

    def program(ctx):
        new_comm = yield from ctx.comm_split(color=ctx.node_id)
        yield from ctx.bcast(8 << 10, root=0, comm=new_comm)
        done[ctx.rank] = True

    job.run(program)
    assert len(done) == 16
    assert job.engine.quiescent()


def test_repeated_splits_get_distinct_comms():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    ids = {}

    def program(ctx):
        a = yield from ctx.comm_split(color=0)
        b = yield from ctx.comm_split(color=0)
        ids[ctx.rank] = (a.comm_id, b.comm_id)

    job.run(program)
    for a, b in ids.values():
        assert a != b
    # All ranks agree on the communicator identities.
    assert len({pair for pair in ids.values()}) == 1


def test_split_synchronises_ranks():
    """comm_split cannot complete before the slowest member arrives."""
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    times = {}

    def program(ctx):
        if ctx.rank == 7:
            yield from ctx.compute(1e-3)
        yield from ctx.comm_split(color=0)
        times[ctx.rank] = ctx.env.now

    job.run(program)
    assert min(times.values()) >= 1e-3


# ------------------------------------------------------------ wait helpers
def test_waitall_returns_values():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    got = {}

    def program(ctx):
        if ctx.rank == 0:
            reqs = []
            for src in (1, 2, 3):
                req = yield from ctx.irecv(src=src, tag=src)
                reqs.append(req)
            got["values"] = yield from ctx.waitall(reqs)
        elif ctx.rank in (1, 2, 3):
            yield from ctx.compute(ctx.rank * 1e-4)
            yield from ctx.send(dst=0, nbytes=ctx.rank * 100, tag=ctx.rank)

    job.run(program)
    assert [v[2] for v in got["values"]] == [100, 200, 300]


def test_waitany_returns_first():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    got = {}

    def program(ctx):
        if ctx.rank == 0:
            fast = yield from ctx.irecv(src=1, tag=1)
            slow = yield from ctx.irecv(src=2, tag=2)
            idx, value = yield from ctx.waitany([slow, fast])
            got["idx"] = idx
            yield from ctx._wait(slow)
        elif ctx.rank == 1:
            yield from ctx.send(dst=0, nbytes=64, tag=1)
        elif ctx.rank == 2:
            yield from ctx.compute(1e-3)
            yield from ctx.send(dst=0, nbytes=64, tag=2)

    job.run(program)
    assert got["idx"] == 1  # `fast` finished first


def test_waitany_empty_rejected():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.waitany([])

    with pytest.raises(ValueError):
        job.run(program)
