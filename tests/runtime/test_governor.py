"""Governor policy tests: determinism guard, countdown drops/restores,
predictive pre-scaling, traffic restores, horizon interaction and report
merging."""

import pytest

from repro.cluster.specs import ClusterSpec, ThrottleGranularity
from repro.collectives.power_control import T_FULL
from repro.mpi.job import MpiJob
from repro.mpi.p2p import ProgressMode
from repro.runtime import (
    Governor,
    GovernorConfig,
    GovernorPolicy,
    merge_reports,
)
from repro.sim.session import SimSession

RANKS = 16
SPEC = ClusterSpec.with_shape(nodes=2, sockets=2, cores_per_socket=4)


def _mixed_program(ctx):
    yield from ctx.compute(200e-6)
    yield from ctx.alltoall(64 << 10)
    yield from ctx.bcast(16 << 10)
    yield from ctx.barrier()
    if ctx.rank == 0:
        yield from ctx.send(1, 64 << 10)
    elif ctx.rank == 1:
        yield from ctx.recv(0)
    yield from ctx.allreduce(32 << 10)


def _run(governor=None, progress=ProgressMode.POLLING, spec=SPEC, program=None):
    job = MpiJob(
        RANKS,
        progress=progress,
        session=SimSession(cluster_spec=spec, keep_segments=True, governor=governor),
    )
    result = job.run(program or _mixed_program)
    return job, result


def _fingerprint(job, result):
    """Everything that must be bit-identical for the determinism guard."""
    return (
        result.duration_s,
        result.energy_j,
        tuple(result.rank_finish_times),
        job.env.events_processed,
        job.engine.messages_sent,
        tuple(
            (s.core_id, s.start, s.end, s.power_w)
            for s in result.accountant.segments
        ),
    )


# -- determinism guard (ISSUE satellite 1) ---------------------------------
@pytest.mark.parametrize("progress", [ProgressMode.POLLING, ProgressMode.BLOCKING])
def test_none_policy_is_bit_identical_to_no_governor(progress):
    """Policy `none` (tracing off) must not perturb the timeline at all:
    same event count, same energy, same per-core power segments."""
    baseline = _fingerprint(*_run(None, progress=progress))
    governed = _fingerprint(
        *_run(Governor(GovernorConfig(policy=GovernorPolicy.NONE)), progress=progress)
    )
    assert governed == baseline


def test_none_policy_still_observes_slack():
    gov = Governor(GovernorConfig(policy=GovernorPolicy.NONE))
    _run(gov)
    report = gov.finish_run()
    assert report.policy == "none"
    assert report.waits_observed > 0
    assert report.calls_observed > 0
    assert report.total_wait_s > 0
    # ...but never acts.
    assert report.drops == 0
    assert report.timers_armed == 0
    assert report.estimated_saving_j == 0.0


# -- countdown ---------------------------------------------------------------
def test_countdown_drops_and_restores_everything():
    gov = Governor(GovernorConfig(policy=GovernorPolicy.COUNTDOWN, theta_s=50e-6))
    job, _ = _run(gov)
    report = gov.report()
    assert report.timers_armed > 0
    assert report.drops > 0
    assert report.drops == report.restores
    assert report.estimated_saving_j > 0
    # Every core ends clean: unthrottled, at fmax.
    for core in job.cluster.cores:
        assert core.tstate == T_FULL
        assert core.frequency_ghz == core.spec.fmax


def test_countdown_saves_energy_at_bounded_latency_cost():
    _, base = _run(None)
    gov = Governor(GovernorConfig(policy=GovernorPolicy.COUNTDOWN))
    _, governed = _run(gov)
    assert governed.energy_j < base.energy_j
    assert governed.duration_s <= base.duration_s * 1.02


def test_countdown_theta_gates_the_drop():
    """A θ far above every wait length must never fire."""
    gov = Governor(GovernorConfig(policy=GovernorPolicy.COUNTDOWN, theta_s=10.0))
    _, _ = _run(gov)
    report = gov.report()
    assert report.timers_armed > 0
    assert report.drops == 0
    assert report.timers_cancelled == report.timers_armed


def test_countdown_socket_granularity_throttles_whole_sockets_only():
    gov = Governor(GovernorConfig(policy=GovernorPolicy.COUNTDOWN, theta_s=50e-6))
    job, _ = _run(gov)
    report = gov.report()
    # The paper's Nehalem throttles per socket; the governor must wait for
    # every core of a socket to be past θ, so socket throttles are rarer
    # than drops but do happen on this collective-heavy program.
    assert job.cluster.spec.node.cpu.throttle_granularity is ThrottleGranularity.SOCKET
    assert 0 < report.socket_throttles <= report.drops


def test_countdown_core_granularity_throttles_individually():
    spec = ClusterSpec.with_shape(
        nodes=2, sockets=2, cores_per_socket=4,
        granularity=ThrottleGranularity.CORE,
    )
    gov = Governor(GovernorConfig(policy=GovernorPolicy.COUNTDOWN, theta_s=50e-6))
    job, _ = _run(gov, spec=spec)
    report = gov.report()
    assert report.drops > 0
    assert report.socket_throttles == 0
    for core in job.cluster.cores:
        assert core.tstate == T_FULL


def test_countdown_drop_to_fmin_variant_restores_frequency():
    gov = Governor(
        GovernorConfig(policy=GovernorPolicy.COUNTDOWN, theta_s=50e-6, drop_to_fmin=True)
    )
    job, _ = _run(gov)
    assert gov.report().drops > 0
    for core in job.cluster.cores:
        assert core.frequency_ghz == core.spec.fmax


def test_traffic_restore_wakes_dropped_receiver():
    """A receiver that waits long past θ gets dropped; the governor must
    restore it the moment the (rendezvous) transfer starts so the flow's
    cpu_cap is not sampled against a throttled core."""

    def program(ctx):
        if ctx.rank == 0:
            # Receiver posts early and waits >> θ.
            yield from ctx.recv(1)
        elif ctx.rank == 1:
            yield from ctx.compute(5e-3)  # arrive late
            yield from ctx.send(0, 1 << 20)
        else:
            yield from ctx.compute(6e-3)  # keep socket-mates busy past it

    gov = Governor(GovernorConfig(policy=GovernorPolicy.COUNTDOWN, theta_s=100e-6))
    spec = ClusterSpec.with_shape(
        nodes=2, sockets=2, cores_per_socket=4,
        granularity=ThrottleGranularity.CORE,
    )
    job, _ = _run(gov, spec=spec, program=program)
    report = gov.report()
    assert report.traffic_restores >= 1
    # The wake is paid for: the transfer absorbed a transition penalty.
    assert report.penalty_s > 0
    for core in job.cluster.cores:
        assert core.tstate == T_FULL


# -- predictive --------------------------------------------------------------
def test_predictive_prescales_large_collectives():
    gov = Governor(GovernorConfig(policy=GovernorPolicy.PREDICTIVE))
    job, _ = _run(gov)
    report = gov.report()
    assert report.prescales > 0
    # First-sight calls decide from the analytic model.
    assert report.cold_decisions > 0
    for core in job.cluster.cores:
        assert core.frequency_ghz == core.spec.fmax
        assert core.tstate == T_FULL


def test_predictive_skips_small_collectives():
    def program(ctx):
        for _ in range(4):
            yield from ctx.bcast(256)  # far below min_bytes

    gov = Governor(GovernorConfig(policy=GovernorPolicy.PREDICTIVE))
    _run(gov, program=program)
    assert gov.report().prescales == 0


def test_predictive_warm_history_drives_the_decision():
    """After warm-up the decision comes from measured durations, not the
    analytic fallback: cold_decisions stops growing."""

    def program(ctx):
        for _ in range(5):
            yield from ctx.alltoall(64 << 10)

    gov = Governor(GovernorConfig(policy=GovernorPolicy.PREDICTIVE))
    _run(gov, program=program)
    report = gov.report()
    assert report.prescales == 5 * RANKS  # every rank, every iteration
    # Only the warm-up window decided analytically; once the shared
    # history has warm_calls=2 samples the measured EWMA takes over.
    assert 0 < report.cold_decisions < report.prescales
    (key,) = report.monitor["call_history"]
    assert key.startswith("alltoall/2^")
    assert report.monitor["call_history"][key]["samples"] == 5 * RANKS


def test_predictive_beats_no_power_energy():
    _, base = _run(None)
    gov = Governor(GovernorConfig(policy=GovernorPolicy.PREDICTIVE))
    _, governed = _run(gov)
    assert governed.energy_j < base.energy_j


# -- session/job wiring ------------------------------------------------------
def test_session_owns_governor_and_binds_it():
    gov = Governor(GovernorConfig(policy=GovernorPolicy.COUNTDOWN))
    session = SimSession(cluster_spec=SPEC)
    assert session.governor is None
    session2 = SimSession(cluster_spec=SPEC, governor=gov)
    assert session2.governor is gov
    assert gov.session is session2


def test_governor_cannot_bind_twice():
    gov = Governor(GovernorConfig(policy=GovernorPolicy.COUNTDOWN))
    SimSession(cluster_spec=SPEC, governor=gov)
    with pytest.raises(ValueError):
        SimSession(cluster_spec=SPEC, governor=gov)


def test_merge_reports_sums_explicit_governor_runs():
    config = GovernorConfig(policy=GovernorPolicy.COUNTDOWN, theta_s=50e-6)
    reports = []
    for _ in range(2):
        gov = Governor(config)
        _run(gov)
        reports.append(gov.report())
    assert all(r.policy == "countdown" for r in reports)
    merged = merge_reports(reports)
    assert merged.drops == sum(r.drops for r in reports)
    assert merged.drops > 0


# -- run(until) interaction (ISSUE satellite 2) ------------------------------
def test_cancelled_theta_timer_does_not_extend_bounded_run():
    """A governor θ timer armed at a wait and cancelled when the wait ends
    early must not keep a bounded run alive past the horizon, and must
    leave no pending work behind."""
    gov = Governor(GovernorConfig(policy=GovernorPolicy.COUNTDOWN, theta_s=10.0))
    job = MpiJob(
        RANKS,
        session=SimSession(cluster_spec=SPEC, keep_segments=False, governor=gov),
    )

    def program(ctx):
        yield from ctx.alltoall(64 << 10)

    finish = []

    def wrapper(ctx):
        yield from program(ctx)
        finish.append(ctx.env.now)

    for ctx in job.contexts:
        job.env.process(wrapper(ctx))
    job.env.run()
    # Every θ timer was cancelled (waits all ended below θ=10s): nothing
    # pending, and the clock sits at the last *real* event, not at
    # now+θ of some long-dead countdown.
    assert gov.report().timers_armed > 0
    assert gov.report().drops == 0
    assert job.env.peek() == float("inf")
    assert job.env.now == max(finish)


# -- finish_run penalty accounting (ISSUE regression) ------------------------
def _run_parked(gov, spec, parked_ranks):
    """Run a program where ``parked_ranks`` wait on a recv that never
    arrives while everyone else computes past θ, then drain the engine:
    the parked cores are still dropped when the run is sealed."""
    job = MpiJob(
        RANKS,
        session=SimSession(cluster_spec=spec, keep_segments=False, governor=gov),
    )

    def program(ctx):
        if ctx.rank in parked_ranks:
            yield from ctx.recv((ctx.rank + 1) % RANKS)  # never matched
        else:
            yield from ctx.compute(5e-3)

    for ctx in job.contexts:
        job.env.process(program(ctx))
    job.env.run()
    return job


def test_finish_run_charges_restore_penalty_core_granularity():
    """A program ending mid-drop must charge the same Odvfs/Othrottle an
    in-run restore pays — finish_run used to restore silently, so traces
    ending inside a wait under-reported penalty seconds."""
    spec = ClusterSpec.with_shape(
        nodes=2, sockets=2, cores_per_socket=4,
        granularity=ThrottleGranularity.CORE,
    )
    gov = Governor(GovernorConfig(
        policy=GovernorPolicy.COUNTDOWN, theta_s=100e-6, drop_to_fmin=True,
    ))
    job = _run_parked(gov, spec, parked_ranks={0})
    assert gov.drops == 1 and gov.restores == 0
    assert gov.penalty_s == 0.0

    core = job.affinity.core_of(0)
    report = gov.finish_run()
    assert report.restores == report.drops == 1
    # Exactly one throttle-up plus one DVFS ramp, nothing double-charged.
    assert report.penalty_s == pytest.approx(
        core.spec.throttle_latency_s + core.spec.dvfs_latency_s
    )
    # And the cluster ends clean despite the torn program.
    assert core.tstate == T_FULL
    assert core.frequency_ghz == core.spec.fmax


def test_finish_run_charges_throttled_socket_once():
    """Socket granularity: the force-restore claims each still-throttled
    socket exactly once (one Othrottle for the 4 dropped cores), the way
    wait_end does."""
    gov = Governor(GovernorConfig(policy=GovernorPolicy.COUNTDOWN, theta_s=100e-6))
    job = _run_parked(gov, SPEC, parked_ranks={0, 1, 2, 3})
    report_before = gov.report()
    assert report_before.drops == 4
    assert report_before.socket_throttles == 1

    core = job.affinity.core_of(0)
    report = gov.finish_run()
    assert report.restores == report.drops == 4
    assert report.penalty_s == pytest.approx(core.spec.throttle_latency_s)
    for rank in range(4):
        assert job.affinity.core_of(rank).tstate == T_FULL


def test_finished_governed_cell_leaves_no_timer_cycles():
    """θ-countdown slots and their timer groups free themselves by
    reference counting once they fire or die: with gc off during a
    governed cell, a full collection afterwards finds none of them."""
    import gc

    from repro.runner import SweepCell, execute_cell
    from repro.sim.engine import _CoalescedSlot, _TimerGroup

    cell = SweepCell("gc-test", "collective", {
        "op": "alltoall", "nbytes": 64 << 10, "n_ranks": RANKS,
        "cluster": SPEC.to_dict(),
        "governor": GovernorConfig(policy=GovernorPolicy.COUNTDOWN).to_dict(),
    })
    gc.collect()
    gc.disable()
    try:
        result = execute_cell(cell)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = [type(o) for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert result.governor["drops"] > 0
    assert _CoalescedSlot not in garbage
    assert _TimerGroup not in garbage


def test_merge_reports_empty_is_none():
    assert merge_reports([]) is None


def test_config_validation():
    with pytest.raises(ValueError):
        GovernorConfig(theta_s=0.0)
    with pytest.raises(ValueError):
        GovernorConfig(predictive_gain=-1.0)
