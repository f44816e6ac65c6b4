"""Tests for rank→core affinity policies (paper §V-C)."""

import pytest

from repro.cluster import (
    AffinityMap,
    AffinityPolicy,
    Cluster,
    ClusterSpec,
)


@pytest.fixture
def cluster():
    return Cluster(ClusterSpec.paper_testbed())


@pytest.fixture
def amap(cluster):
    return AffinityMap(cluster, 64)


def test_bunch_mapping_matches_paper(amap):
    """MVAPICH2 binds local ranks 0-3 to socket A, 4-7 to socket B (§V-C)."""
    for rank in range(8):  # node 0
        expected_socket = 0 if rank < 4 else 1
        assert amap.socket_group(rank) == expected_socket
    # Local ranks 0..3 must land on OS cores 0,2,4,6 in order.
    assert [amap.core_of(r).os_id for r in range(4)] == [0, 2, 4, 6]
    assert [amap.core_of(r).os_id for r in range(4, 8)] == [1, 3, 5, 7]


def test_block_distribution_across_nodes(amap):
    for rank in range(64):
        assert amap.node_of(rank) == rank // 8
        assert amap.local_rank(rank) == rank % 8


def test_scatter_policy_alternates_sockets(cluster):
    amap = AffinityMap(cluster, 64, policy=AffinityPolicy.SCATTER)
    groups = [amap.socket_group(r) for r in range(8)]
    assert groups == [0, 1, 0, 1, 0, 1, 0, 1]


def test_sequential_policy_follows_os_ids(cluster):
    amap = AffinityMap(cluster, 64, policy=AffinityPolicy.SEQUENTIAL)
    assert [amap.core_of(r).os_id for r in range(8)] == list(range(8))
    # On Nehalem numbering sequential OS ids alternate sockets.
    assert [amap.socket_group(r) for r in range(8)] == [0, 1, 0, 1, 0, 1, 0, 1]


def test_rank_core_bijection(amap):
    seen = set()
    for rank in range(64):
        core = amap.core_of(rank)
        assert core.core_id not in seen
        seen.add(core.core_id)
        assert amap.rank_of_core(core) == rank


def test_leaders(amap):
    assert [amap.node_leader(n) for n in range(8)] == [0, 8, 16, 24, 32, 40, 48, 56]
    assert amap.is_leader(0)
    assert amap.is_leader(8)
    assert not amap.is_leader(1)


def test_group_a_b_partition(amap):
    for node_id in range(8):
        a = amap.group_a_ranks(node_id)
        b = amap.group_b_ranks(node_id)
        assert sorted(a + b) == amap.ranks_on_node(node_id)
        assert len(a) == len(b) == 4
    assert amap.group_a_ranks(0) == [0, 1, 2, 3]
    assert amap.group_b_ranks(0) == [4, 5, 6, 7]


def test_socket_peers_and_leader(amap):
    assert amap.socket_peers(2) == [0, 1, 2, 3]
    assert amap.socket_peers(13) == [12, 13, 14, 15]
    assert amap.socket_leader(6) == 4
    assert amap.socket_leader(0) == 0


def test_socket_lookups_match_the_cluster_and_copy_groups(amap, cluster):
    """Sockets are resolved once per job; the answers are the cluster's,
    and every caller gets its own group list."""
    for rank in range(amap.n_ranks):
        socket = cluster.socket_of_core(amap.core_of(rank))
        assert amap.socket_of(rank) is socket
        assert amap.socket_group(rank) == socket.local_index
    group = amap.group_a_ranks(1)
    group.append(99)
    assert amap.group_a_ranks(1) == [8, 9, 10, 11]
    assert amap.group_b_ranks(1) == [12, 13, 14, 15]


def test_same_node(amap):
    assert amap.same_node(0, 7)
    assert not amap.same_node(7, 8)


def test_partial_cluster_use(cluster):
    amap = AffinityMap(cluster, 32)
    assert amap.n_nodes_used == 4
    assert amap.node_of(31) == 3


def test_node_offset_places_job_on_upper_nodes(cluster):
    """Co-scheduled jobs occupy disjoint node windows: a 32-rank map at
    node_offset=4 mirrors the offset-0 map shifted by four nodes."""
    lower = AffinityMap(cluster, 32)
    upper = AffinityMap(cluster, 32, node_offset=4)
    assert upper.n_nodes_used == 4
    for rank in range(32):
        assert upper.node_of(rank) == lower.node_of(rank) + 4
        assert upper.local_rank(rank) == lower.local_rank(rank)
        assert upper.socket_group(rank) == lower.socket_group(rank)
        assert upper.core_of(rank).os_id == lower.core_of(rank).os_id
    # Leaders/rank lists are node-id keyed, so they follow the window.
    assert upper.node_leader(4) == 0
    assert upper.ranks_on_node(4) == list(range(8))
    assert upper.group_a_ranks(4) == [0, 1, 2, 3]
    # The two maps claim disjoint physical cores.
    lower_cores = {lower.core_of(r).core_id for r in range(32)}
    upper_cores = {upper.core_of(r).core_id for r in range(32)}
    assert not (lower_cores & upper_cores)


def test_validation(cluster):
    with pytest.raises(ValueError):
        AffinityMap(cluster, 0)
    with pytest.raises(ValueError):
        AffinityMap(cluster, 65)
    with pytest.raises(ValueError):
        AffinityMap(cluster, 12)  # not a multiple of cores/node
    with pytest.raises(ValueError):
        AffinityMap(cluster, 8, node_offset=-1)
    with pytest.raises(ValueError):
        AffinityMap(cluster, 32, node_offset=5)  # falls off the cluster


def test_4way_8way_shapes():
    """The Fig 2(a) configurations: 32 ranks as 8x4 and 4x8."""
    c4 = Cluster(ClusterSpec.with_shape(nodes=8, sockets=2, cores_per_socket=2))
    m4 = AffinityMap(c4, 32)
    assert m4.cores_per_node == 4
    assert m4.n_nodes_used == 8

    c8 = Cluster(ClusterSpec.with_shape(nodes=4, sockets=2, cores_per_socket=4))
    m8 = AffinityMap(c8, 32)
    assert m8.cores_per_node == 8
    assert m8.n_nodes_used == 4
