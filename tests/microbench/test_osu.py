"""Tests for the simulated OSU microbenchmarks."""

import pytest

from repro.cluster import ClusterSpec, NodeSpec
from repro.microbench import (
    osu_bibw,
    osu_bw,
    osu_collective_latency,
    osu_latency,
    sweep,
)
from repro.mpi import ProgressMode
from repro.sim import SimSession


def test_latency_small_message_near_wire_latency():
    t = osu_latency(8, iterations=4)
    # Eager path: ~o_send + wire latency + o_recv.
    assert 1e-6 < t < 6e-6


def test_latency_grows_with_size():
    t_small = osu_latency(1 << 10, iterations=4)
    t_large = osu_latency(1 << 20, iterations=4)
    assert t_large > 10 * t_small


def test_intra_node_latency_lower():
    inter = osu_latency(4 << 10, inter_node=True, iterations=4)
    intra = osu_latency(4 << 10, inter_node=False, iterations=4)
    assert intra < inter


def test_blocking_latency_higher():
    polling = osu_latency(64 << 10, iterations=4)
    blocking = osu_latency(64 << 10, iterations=4, progress=ProgressMode.BLOCKING)
    assert blocking > polling


@pytest.mark.parametrize("bench", [osu_latency, osu_bw, osu_bibw])
def test_inter_node_pair_spans_two_nodes_on_wider_nodes(bench):
    """On 16-core nodes ranks 0 and 8 share node 0; the inter-node pair
    is ranks 0 and 16, which reads what the testbed's ranks 0 and 8 do."""
    wide = SimSession(
        cluster_spec=ClusterSpec(nodes=2, node=NodeSpec(sockets=4)),
        keep_segments=False,
    )
    assert bench(1 << 20, iterations=2, session=wide) == bench(1 << 20, iterations=2)


def test_point_to_point_needs_two_nodes():
    one_node = SimSession(cluster_spec=ClusterSpec(nodes=1))
    with pytest.raises(ValueError, match="at least two nodes, got 1"):
        osu_latency(8, session=one_node)


def test_bw_approaches_line_rate():
    bw = osu_bw(1 << 20, iterations=3)
    # QDR effective payload bandwidth is 3 GB/s in the model.
    assert 2.5e9 < bw <= 3.0e9


def test_bw_small_messages_below_line_rate():
    small = osu_bw(1 << 10, iterations=3)
    large = osu_bw(1 << 20, iterations=3)
    assert small < large  # per-message overheads bite at 1 KB
    assert small < 2.9e9


def test_bibw_exceeds_unidirectional():
    uni = osu_bw(1 << 20, iterations=2)
    bi = osu_bibw(1 << 20, iterations=2)
    # Separate up/down links: bidirectional approaches 2x (minus the
    # window's congestion overhead on each direction).
    assert bi > 1.35 * uni


def test_collective_latency_matches_single_run_scale():
    t = osu_collective_latency("alltoall", 64 << 10, n_ranks=32,
                               iterations=2, warmup=1)
    assert 1e-3 < t < 50e-3


def test_collective_latency_power_mode():
    from repro.collectives import PowerMode
    t_none = osu_collective_latency("bcast", 1 << 20, n_ranks=32,
                                    iterations=2, warmup=1)
    t_prop = osu_collective_latency("bcast", 1 << 20, n_ranks=32,
                                    iterations=2, warmup=1,
                                    mode=PowerMode.PROPOSED)
    assert t_none < t_prop < t_none * 1.5


def test_sweep_returns_rows():
    rows = sweep(osu_latency, sizes=(64, 4096), iterations=2)
    assert [r[0] for r in rows] == [64, 4096]
    assert rows[0][1] < rows[1][1]
