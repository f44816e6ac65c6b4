"""Tests for the NUMA (cross-socket QPI) shared-memory model."""

import pytest

from repro.mpi import MpiJob
from repro.network import NetworkSpec
from repro.sim import SimSession

IDEAL_NET = NetworkSpec(flow_congestion=0.0)


def hop_time(src, dst):
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    out = {}

    def program(ctx):
        if ctx.rank == src:
            yield from ctx.send(dst=dst, nbytes=4 << 20)
        elif ctx.rank == dst:
            yield from ctx.recv(src=src)
            out["t"] = ctx.env.now

    job.run(program)
    return out["t"]


def test_same_socket_faster_than_cross_socket():
    # Ranks 0,1 share socket A; rank 4 sits on socket B (bunch affinity).
    same = hop_time(0, 1)
    cross = hop_time(0, 4)
    assert cross > same


def test_cross_socket_ratio_matches_qpi_model():
    spec = NetworkSpec()
    same = hop_time(0, 1)
    cross = hop_time(0, 4)
    expected = spec.shm_bw / spec.shm_bw_cross_socket
    # Latency terms shrink the measured ratio slightly.
    assert cross / same == pytest.approx(expected, rel=0.05)


def test_cross_socket_still_faster_than_network():
    cross_socket = hop_time(0, 4)
    cross_node = hop_time(0, 8)
    assert cross_socket < cross_node
