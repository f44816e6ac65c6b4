"""Tests for the job runner and rank context."""

import pytest

from repro.cluster import Activity, AffinityPolicy, ClusterSpec, ThrottleGranularity
from repro.faults import FaultPlan, Straggler
from repro.mpi import MpiJob
from repro.network import NetworkSpec
from repro.power import PowerModelParams
from repro.runtime import ArbiterConfig, Governor, GovernorConfig, PowerArbiter
from repro.sim import SimSession

IDEAL_NET = NetworkSpec(flow_congestion=0.0)


def test_run_returns_results_per_rank():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))

    def program(ctx):
        yield from ctx.compute(1e-4)
        return ctx.rank * 2

    result = job.run(program)
    assert result.returns == [r * 2 for r in range(16)]
    assert result.duration_s == pytest.approx(1e-4)
    assert len(result.rank_finish_times) == 16


def test_job_runs_once_only():
    job = MpiJob(16)

    def program(ctx):
        yield from ctx.compute(1e-6)

    job.run(program)
    with pytest.raises(RuntimeError):
        job.run(program)


def test_compute_scales_with_frequency():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    times = {}

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.compute(1.2e-3)
            times["fmax"] = ctx.env.now
            yield from ctx.scale_frequency(1.6)
            t0 = ctx.env.now
            yield from ctx.compute(1.2e-3)
            times["fmin"] = ctx.env.now - t0

    job.run(program)
    assert times["fmax"] == pytest.approx(1.2e-3)
    assert times["fmin"] == pytest.approx(1.2e-3 * 2.4 / 1.6)


def test_compute_scales_with_throttle():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    times = {}

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.throttle(7)
            t0 = ctx.env.now
            yield from ctx.compute(1e-4)
            times["t7"] = ctx.env.now - t0

    job.run(program)
    assert times["t7"] == pytest.approx(1e-4 / 0.12)


def test_scale_frequency_charges_odvfs():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    times = {}

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.scale_frequency(1.6)
            times["t"] = ctx.env.now

    result = job.run(program)
    assert times["t"] == pytest.approx(12e-6)
    assert result.stats.dvfs_transitions == 1


def test_throttle_socket_granularity_affects_peers():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    states = {}

    def program(ctx):
        if ctx.rank == 0:  # socket leader of socket A on node 0
            yield from ctx.throttle(7)
        yield from ctx.compute(1e-4)
        if ctx.rank == 2:  # same socket as rank 0
            states["peer_tstate"] = ctx.core.tstate
        if ctx.rank == 4:  # socket B
            states["other_socket"] = ctx.core.tstate

    job.run(program)
    assert states["peer_tstate"] == 7
    assert states["other_socket"] == 0


def test_throttle_core_granularity_isolated():
    spec = ClusterSpec.with_shape(nodes=2, granularity=ThrottleGranularity.CORE)
    job = MpiJob(16, session=SimSession(cluster_spec=spec, network_spec=IDEAL_NET))
    states = {}

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.throttle(7)
        yield from ctx.compute(1e-4)
        if ctx.rank == 2:
            states["peer_tstate"] = ctx.core.tstate

    job.run(program)
    assert states["peer_tstate"] == 0


def test_throttle_noop_costs_nothing():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    times = {}

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.throttle(0)  # already T0
            times["t"] = ctx.env.now

    result = job.run(program)
    assert times["t"] == 0.0
    assert result.stats.throttle_transitions == 0


def test_node_flags_coordinate_ranks():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    times = {}

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.compute(1e-3)
            ctx.notify("go")
        elif ctx.rank == 1:
            yield ctx.flag("go")
            times["woke"] = ctx.env.now

    job.run(program)
    assert times["woke"] == pytest.approx(1e-3)


def test_node_flags_are_node_local():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    fired = {}

    def program(ctx):
        if ctx.rank == 0:  # node 0
            ctx.notify("go")
            yield from ctx.compute(1e-6)
        elif ctx.rank == 8:  # node 1: flag with same name, different node
            fired["node1"] = ctx.flag("go").triggered
            yield from ctx.compute(1e-6)

    job.run(program)
    assert fired["node1"] is False


def test_arrive_counting_flag():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))
    times = {}

    def program(ctx):
        if ctx.rank in (0, 1, 2):
            yield from ctx.compute(1e-4 * (ctx.rank + 1))
            ctx.arrive("trio", expected=3)
        elif ctx.rank == 3:
            yield ctx.flag("trio")
            times["t"] = ctx.env.now

    job.run(program)
    assert times["t"] == pytest.approx(3e-4)  # waits for the slowest


def test_energy_accounting_integrated_with_run():
    job = MpiJob(64)

    def program(ctx):
        yield from ctx.compute(1e-3)

    result = job.run(program)
    # All 64 cores computing at fmax ⇒ ≈2.3 kW for 1 ms.
    assert result.average_power_w == pytest.approx(2300.0, rel=0.01)
    assert result.energy_j == pytest.approx(2.3, rel=0.01)


def test_activity_restored_after_run():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))

    def program(ctx):
        yield from ctx.compute(1e-4)

    job.run(program)
    for rank in range(16):
        assert job.affinity.core_of(rank).activity is Activity.IDLE


def test_affinity_policy_respected():
    job = MpiJob(
        16, affinity=AffinityPolicy.SCATTER,
        session=SimSession(network_spec=IDEAL_NET),
    )
    assert job.affinity.socket_group(0) == 0
    assert job.affinity.socket_group(1) == 1


def test_idle_context_op():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.idle(1e-3)

    result = job.run(program)
    assert result.duration_s == pytest.approx(1e-3)


def test_compute_negative_rejected():
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET))

    def program(ctx):
        yield from ctx.compute(-1.0)

    with pytest.raises(ValueError):
        job.run(program)


def test_power_trace_from_result():
    job = MpiJob(64)

    def program(ctx):
        yield from ctx.compute(1.0)

    result = job.run(program)
    trace = result.power_trace()
    assert len(trace) == 2
    assert trace.power_w[0] == pytest.approx(2300.0, rel=0.01)


def test_job_with_a_stuck_rank_fails_naming_it():
    """A rank parked on an event that never fires used to pass as a rank
    that finished at t = 0, silently shortening ``duration_s``."""
    job = MpiJob(8, session=SimSession(network_spec=IDEAL_NET))
    never = job.env.event()

    def program(ctx):
        yield from ctx.compute(1e-3 * (ctx.rank + 1))
        if ctx.rank == 3:
            yield never

    with pytest.raises(RuntimeError, match=r"1 of 8 ranks unfinished: ranks 3\b"):
        job.run(program)


def test_rank_finishing_at_time_zero_is_not_stuck():
    job = MpiJob(8, session=SimSession(network_spec=IDEAL_NET))

    def program(ctx):
        return ctx.rank
        yield  # a generator that finishes without advancing time

    result = job.run(program)
    assert result.duration_s == 0.0
    assert result.returns == list(range(8))


#: What a job once took next to its session: the machine (four specs)
#: and the instruments (three), all of which the session now owns.
SESSION_KEYWORDS = {
    "cluster_spec": ClusterSpec(nodes=2),
    "network_spec": NetworkSpec(shm_bw=1.0),
    "power_params": PowerModelParams(),
    "keep_segments": False,
    "governor": Governor(GovernorConfig()),
    "faults": FaultPlan(seed=5, injectors=(Straggler(),)),
    "arbiter": PowerArbiter(ArbiterConfig(power_cap_w=1000.0)),
}


@pytest.mark.parametrize("keyword", list(SESSION_KEYWORDS))
def test_job_describes_its_machine_only_through_its_session(keyword):
    """A spec passed next to a session used to be dropped without a word
    (the job ran on the session's machine), and an instrument refused
    with a ValueError; neither is a job argument any more."""
    with pytest.raises(TypeError, match=keyword):
        MpiJob(8, session=SimSession(), **{keyword: SESSION_KEYWORDS[keyword]})
