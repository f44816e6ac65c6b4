"""Tests for the rack/topology-aware collectives (paper §VIII extension)."""

import pytest

from repro.cluster import ClusterSpec
from repro.collectives import (
    CollectiveConfig,
    CollectiveEngine,
    PowerMode,
    topo_gather,
    topo_scatter,
)
from repro.mpi import MpiJob
from repro.sim import SimSession

#: 4 racks x 4 nodes x 8 cores = 128 ranks.
RACKED = ClusterSpec(nodes=16, racks=4)


def rack_job(mode=PowerMode.NONE, n_ranks=128, **kw):
    return MpiJob(
        n_ranks,
        collectives=CollectiveEngine(CollectiveConfig(power_mode=mode)),
        session=SimSession(cluster_spec=RACKED),
        **kw,
    )


def test_cluster_spec_rack_validation():
    with pytest.raises(ValueError):
        ClusterSpec(nodes=8, racks=3)  # not divisible
    with pytest.raises(ValueError):
        ClusterSpec(nodes=8, racks=0)
    spec = ClusterSpec(nodes=16, racks=4)
    assert spec.nodes_per_rack == 4
    assert spec.rack_of_node(0) == 0
    assert spec.rack_of_node(15) == 3
    with pytest.raises(ValueError):
        spec.rack_of_node(16)


def test_affinity_rack_lookups():
    job = rack_job()
    aff = job.affinity
    assert aff.n_racks_used == 4
    assert aff.rack_of(0) == 0
    assert aff.rack_of(127) == 3
    assert aff.rack_leader(0) == 0
    assert aff.rack_leader(1) == 32  # node 4's leader
    assert aff.is_rack_leader(32)
    assert not aff.is_rack_leader(33)
    assert aff.nodes_in_rack(2) == [8, 9, 10, 11]


def test_layout_has_rack_communicators():
    job = rack_job()
    layout = job.layout
    assert layout.rack_leaders.group == (0, 32, 64, 96)
    assert len(layout.rack_node_leaders) == 4
    assert layout.rack_node_leaders[0].group == (0, 8, 16, 24)


def test_single_rack_layout_is_trivial():
    job = MpiJob(64)
    assert job.layout.rack_leaders.group == (0,)
    assert job.layout.rack_node_leaders[0].group == job.layout.leaders.group


def test_cross_rack_path_traverses_uplinks():
    job = rack_job()
    path = [lk.name for lk in job.net.inter_node_path(0, 5)]
    assert path == ["nic_up:0", "rack_up:0", "rack_dn:1", "nic_dn:5"]
    # Same-rack stays on the leaf switch.
    path2 = [lk.name for lk in job.net.inter_node_path(0, 3)]
    assert path2 == ["nic_up:0", "nic_dn:3"]


def test_rack_uplink_capacity():
    job = rack_job()
    assert job.net.rack_up(0).capacity == pytest.approx(
        job.net.spec.nic_bw * job.net.spec.rack_uplink_factor
    )


def test_topo_bcast_completes_and_records_phase():
    job = rack_job()

    def program(ctx):
        yield from ctx.bcast(1 << 18)

    r = job.run(program)
    assert job.engine.quiescent()
    assert "topo_bcast.inter_rack" in r.stats.phase_times


def test_topo_bcast_starts_fewer_flows_on_uplinks_at_similar_cost():
    """The rack hierarchy crosses the spine with one stream per rack pair
    instead of per node pair (fewer, larger flows — a non-blocking ring
    moves the same bytes, so latency stays comparable), and only rack
    leaders touch the uplinks."""

    def run(rack_aware: bool):
        job = MpiJob(
            128,
            collectives=CollectiveEngine(),
            session=SimSession(cluster_spec=RACKED),
        )

        def program(ctx):
            if rack_aware:
                yield from ctx.bcast(1 << 20)
            else:
                from repro.collectives import mc_bcast
                yield from mc_bcast(ctx, 1 << 20, 0, ctx.world, 0)

        result = job.run(program)
        uplink_flows = sum(
            n for name, n in job.net.fabric.link_flows.items()
            if name.startswith("rack_up")
        )
        return result.duration_s, uplink_flows

    t_topo, flows_topo = run(True)
    t_flat, flows_flat = run(False)
    assert flows_topo < flows_flat
    assert t_topo < t_flat * 1.5  # same byte volume over the spine


def test_power_topo_bcast_saves_power():
    results = {}
    for mode in PowerMode:
        job = rack_job(mode)

        def program(ctx):
            yield from ctx.bcast(1 << 20)

        results[mode] = job.run(program)
    assert (
        results[PowerMode.PROPOSED].average_power_w
        < results[PowerMode.DVFS].average_power_w
        < results[PowerMode.NONE].average_power_w
    )
    # Overhead bounded.
    assert (
        results[PowerMode.PROPOSED].duration_s
        < results[PowerMode.NONE].duration_s * 1.4
    )


def test_power_topo_bcast_restores_state():
    job = rack_job(PowerMode.PROPOSED)

    def program(ctx):
        yield from ctx.bcast(1 << 20)

    job.run(program)
    for core in job.cluster.cores:
        assert core.tstate == 0
        assert core.frequency_ghz == pytest.approx(2.4)


def test_topo_reduce_through_registry():
    for mode in PowerMode:
        job = rack_job(mode)

        def program(ctx):
            yield from ctx.reduce(1 << 18)

        job.run(program)
        assert job.engine.quiescent()


def test_topo_scatter_gather_roundtrip():
    job = rack_job()

    def program(ctx):
        seq = ctx.next_seq(ctx.world)
        yield from topo_scatter(ctx, 4096, 0, ctx.world, seq)
        seq = ctx.next_seq(ctx.world)
        yield from topo_gather(ctx, 4096, 0, ctx.world, seq)

    job.run(program)
    assert job.engine.quiescent()


def test_topo_requires_root_zero():
    job = rack_job()

    def program(ctx):
        seq = ctx.next_seq(ctx.world)
        yield from topo_scatter(ctx, 4096, 5, ctx.world, seq)

    with pytest.raises(ValueError):
        job.run(program)


def test_registry_falls_back_for_nonzero_root_on_racks():
    """bcast(root=5) on a racked cluster uses the mc path, still correct."""
    job = rack_job()

    def program(ctx):
        yield from ctx.bcast(1 << 16, root=5)

    job.run(program)
    assert job.engine.quiescent()
