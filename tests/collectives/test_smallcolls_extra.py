"""Tests for reduce_scatter and scan."""

import pytest

from repro.mpi import MpiJob
from repro.network import NetworkSpec
from repro.sim import SimSession

IDEAL_NET = NetworkSpec(flow_congestion=0.0)


def run_op(op, nbytes, n=16):
    job = MpiJob(n, session=SimSession(network_spec=IDEAL_NET))

    def program(ctx):
        yield from getattr(ctx, op)(nbytes)

    return job.run(program)


def test_reduce_scatter_message_count():
    r = run_op("reduce_scatter", 1 << 12)
    # Pairwise: P−1 sends per rank.
    assert r.job.engine.messages_sent == 16 * 15
    assert r.job.engine.quiescent()


def test_reduce_scatter_includes_combine_cost():
    fast = run_op("reduce_scatter", 1 << 10).duration_s
    slow = run_op("reduce_scatter", 1 << 16).duration_s
    assert slow > fast


def test_scan_chain_latency_proportional_to_ranks():
    t16 = run_op("scan", 4096, 16).duration_s
    t32 = run_op("scan", 4096, 32).duration_s
    # The chain serialises: doubling ranks roughly doubles the time.
    assert 1.6 < t32 / t16 < 2.6


def test_scan_single_rank_noop():
    r = run_op("scan", 4096, 8)  # one node, comm world of 8 → still chain
    assert r.duration_s > 0


def test_reduce_scatter_with_dvfs_mode():
    from repro.collectives import CollectiveConfig, CollectiveEngine, PowerMode

    job = MpiJob(
        16,
        collectives=CollectiveEngine(CollectiveConfig(power_mode=PowerMode.DVFS)),
        session=SimSession(network_spec=IDEAL_NET),
    )

    def program(ctx):
        yield from ctx.reduce_scatter(1 << 16)

    r = job.run(program)
    assert r.stats.dvfs_transitions == 32
    for core in job.cluster.cores[:16]:
        assert core.frequency_ghz == pytest.approx(2.4)
