"""Tests for SimSession construction, wiring, and spec validation."""

import math

import pytest

from repro.cluster import ClusterSpec
from repro.network import NetworkSpec
from repro.sim import (
    NullTracer,
    RecordingTracer,
    SessionConfigError,
    SimSession,
    check_session_specs,
)


def test_default_session_builds_full_stack():
    session = SimSession()
    assert session.env.now == 0.0
    assert session.now == 0.0
    assert session.cluster.spec == ClusterSpec.paper_testbed()
    assert session.net.fabric.env is session.env
    assert session.accountant.cluster is session.cluster
    assert session.power_model is not None


def test_session_tracer_reaches_every_layer():
    tracer = RecordingTracer()
    session = SimSession(tracer=tracer)
    assert session.env.tracer is tracer
    assert all(core.tracer is tracer for core in session.cluster.cores)


def test_session_defaults_to_ambient_tracer():
    """No ambient tracer is left: a session built without one reports to
    the null tracer."""
    assert isinstance(SimSession().tracer, NullTracer)


def test_session_context_manager_closes_tracer():
    class Closeable(RecordingTracer):
        closed = False

        def close(self):
            self.closed = True

    tracer = Closeable()
    with SimSession(tracer=tracer) as session:
        assert session.tracer is tracer
    assert tracer.closed


def test_check_session_specs_accepts_defaults():
    assert check_session_specs(ClusterSpec(), NetworkSpec()) == []


def test_racked_cluster_with_flat_switch_rejected():
    cluster = ClusterSpec(nodes=8, racks=2)
    network = NetworkSpec(switch_oversubscription=4.0)
    problems = check_session_specs(cluster, network)
    assert any("switch_oversubscription" in p for p in problems)
    with pytest.raises(SessionConfigError) as excinfo:
        SimSession(cluster_spec=cluster, network_spec=network)
    assert "racks" in str(excinfo.value)


def test_racked_cluster_without_uplink_capacity_rejected():
    cluster = ClusterSpec(nodes=8, racks=2)
    network = NetworkSpec(rack_uplink_factor=0.0)
    problems = check_session_specs(cluster, network)
    assert any("rack_uplink_factor" in p for p in problems)


def test_memory_bandwidth_below_copy_bandwidth_rejected():
    network = NetworkSpec(mem_bw_node=1e9, shm_bw=4.5e9)
    problems = check_session_specs(ClusterSpec(), network)
    assert any("memory bandwidth" in p for p in problems)
    with pytest.raises(SessionConfigError):
        SimSession(network_spec=network)


def test_racked_cluster_with_infinite_switch_accepted():
    cluster = ClusterSpec(nodes=8, racks=2)
    network = NetworkSpec()
    assert math.isinf(network.switch_oversubscription)
    session = SimSession(cluster_spec=cluster, network_spec=network)
    assert session.cluster_spec.racks == 2


def test_session_runs_a_job():
    """A session threads through MpiJob and the whole stack simulates."""
    from repro.mpi import MpiJob

    session = SimSession()
    job = MpiJob(8, session=session)

    def program(ctx):
        yield from ctx.alltoall(4096)

    result = job.run(program)
    assert result.duration_s > 0
    assert session.now == pytest.approx(result.duration_s)
    assert job.env is session.env
    assert job.cluster is session.cluster
