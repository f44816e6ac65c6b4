"""End-to-end fault injection: victim determinism, injector effects,
bit-identical reruns, and zero impact when disabled."""

import pytest

from repro import (
    FaultPlan,
    LinkDegrade,
    LinkFlap,
    MpiJob,
    OsNoise,
    SimSession,
    Straggler,
    TransitionJitter,
)
from repro.mpi.job import run_collective_once
from repro.sim import RecordingTracer


def _compute_program(seconds):
    def program(ctx):
        yield from ctx.compute(seconds)

    return program


class TestComputePerturbation:
    def test_straggler_scales_compute_exactly(self):
        plan = FaultPlan(seed=1, injectors=(
            Straggler(multiplier=2.0, fraction=1.0),
        ))
        job = MpiJob(8, session=SimSession(faults=plan))
        result = job.run(_compute_program(1e-3))
        assert result.duration_s == pytest.approx(2e-3)
        assert job.faults.report().straggler_cores == len(job.cluster.cores)

    def test_noise_accrues_one_pulse_per_period(self):
        plan = FaultPlan(seed=1, injectors=(
            OsNoise(period_s=100e-6, pulse_s=10e-6, core_fraction=1.0),
        ))
        job = MpiJob(8, session=SimSession(faults=plan))
        result = job.run(_compute_program(1e-3))
        pulses_per_rank = job.faults.report().noise_pulses // 8
        assert pulses_per_rank == 10
        assert result.duration_s == pytest.approx(1e-3 + pulses_per_rank * 10e-6)

    def test_noise_credit_carries_across_fragments(self):
        plan = FaultPlan(seed=1, injectors=(
            OsNoise(period_s=100e-6, pulse_s=10e-6, core_fraction=1.0),
        ))
        job = MpiJob(8, session=SimSession(faults=plan))

        def program(ctx):
            for _ in range(4):  # 4 x 50us accrues 2 pulses per rank, not 0
                yield from ctx.compute(50e-6)

        job.run(program)
        assert job.faults.report().noise_pulses == 2 * 8

    def test_node_scope_straggles_whole_nodes(self):
        plan = FaultPlan(seed=3, injectors=(
            Straggler(multiplier=1.5, fraction=0.25, scope="node"),
        ))
        session = SimSession(faults=plan)
        victims = set(plan.rng("straggler", 0).sample(
            [n.node_id for n in session.cluster.nodes], 2))
        expected = {c.core_id for c in session.cluster.cores
                    if c.node_id in victims}
        assert set(session.faults.compute_scale) == expected


class TestLinkFaults:
    def test_degraded_links_slow_collectives(self):
        quiet = run_collective_once("alltoall", 256 << 10, n_ranks=64)
        plan = FaultPlan(seed=2, injectors=(
            LinkDegrade(factor=0.5, node_fraction=1.0),
        ))
        degraded = run_collective_once(
            "alltoall", 256 << 10, n_ranks=64, session=SimSession(faults=plan)
        )
        assert degraded.duration_s > quiet.duration_s * 1.3

    def test_flap_windows_restore_exactly(self):
        plan = FaultPlan(seed=2, injectors=(
            LinkFlap(factor=0.1, period_s=1e-3, down_s=200e-6,
                     duration_s=20e-3, node_fraction=1.0),
        ))
        job = MpiJob(64, session=SimSession(faults=plan))
        job.run(_compute_program(1e-3))
        # env.run() drains every flap boundary; factors must stack back
        # to exactly 1.0 (no float drift) on every link.
        for link in job.net.fabric._links.values():
            assert link.fault_factor == 1.0
        assert job.faults.report().link_events > 0

    def test_degrade_without_end_keeps_factor(self):
        plan = FaultPlan(seed=2, injectors=(
            LinkDegrade(factor=0.25, node_fraction=1.0),
        ))
        job = MpiJob(8, session=SimSession(faults=plan))
        job.run(_compute_program(1e-4))
        assert job.net.fabric.link("nic_up:0").fault_factor == 0.25


class TestTransitionJitter:
    def test_jitter_scales_charged_transitions(self):
        def transitions(ctx):
            yield from ctx.scale_frequency(1.6)
            yield from ctx.scale_frequency(2.4)

        quiet = MpiJob(8).run(transitions).duration_s
        plan = FaultPlan(seed=4, injectors=(TransitionJitter(lo=2.0, hi=2.0),))
        job = MpiJob(8, session=SimSession(faults=plan))
        jittered = job.run(transitions).duration_s
        assert jittered == pytest.approx(2.0 * quiet)
        assert job.faults.report().jittered_transitions == 2 * 8

    def test_governor_actuation_is_jittered(self):
        from repro.runtime import Governor, GovernorConfig, GovernorPolicy

        plan = FaultPlan(seed=4, injectors=(TransitionJitter(lo=1.5, hi=1.5),))
        gov = Governor(GovernorConfig(policy=GovernorPolicy.COUNTDOWN))
        job = MpiJob(64, session=SimSession(governor=gov, faults=plan))

        def program(ctx):
            yield from ctx.alltoall(256 << 10)

        job.run(program)
        assert gov.drops > 0
        assert job.faults.report().jittered_transitions > 0


class TestDeterminismAndIsolation:
    def _traced_run(self, plan):
        tracer = RecordingTracer()
        session = SimSession(tracer=tracer, faults=plan)
        from repro.runtime import Governor, GovernorConfig, GovernorPolicy

        gov = Governor(GovernorConfig(policy=GovernorPolicy.COUNTDOWN))
        gov.bind(session)
        session.governor = gov
        job = MpiJob(64, session=session)

        def program(ctx):
            yield from ctx.compute(200e-6)
            yield from ctx.alltoall(128 << 10)

        result = job.run(program)
        return tracer.records, result.duration_s, result.energy_j

    def _plan(self):
        return FaultPlan(seed=13, injectors=(
            LinkDegrade(factor=0.6, node_fraction=0.5),
            Straggler(multiplier=1.2, fraction=0.25),
            OsNoise(period_s=100e-6, pulse_s=10e-6, core_fraction=0.5),
            TransitionJitter(lo=0.5, hi=2.0),
        ))

    def test_same_seed_bit_identical(self):
        a = self._traced_run(self._plan())
        b = self._traced_run(self._plan())
        assert a == b  # every trace record, the duration, and the energy

    def test_different_seed_diverges(self):
        base = self._plan()
        _, dur_a, _ = self._traced_run(base)
        _, dur_b, _ = self._traced_run(
            FaultPlan(seed=14, injectors=base.injectors)
        )
        assert dur_a != dur_b

    def test_no_faults_means_no_state(self):
        session = SimSession()
        assert session.faults is None
        assert session.net.fabric.link("nic_up:0").fault_factor == 1.0

    def test_fault_trace_records_emitted(self):
        tracer = RecordingTracer()
        plan = FaultPlan(seed=6, injectors=(
            LinkDegrade(factor=0.5, duration_s=1e-3, node_fraction=1.0),
            OsNoise(period_s=50e-6, pulse_s=5e-6, core_fraction=1.0),
        ))
        session = SimSession(tracer=tracer, faults=plan)
        job = MpiJob(8, session=session)
        job.run(_compute_program(1e-3))
        assert len(tracer.of_type("fault.plan")) == 1
        assert tracer.of_type("fault.link")  # begin + end events
        assert tracer.of_type("fault.noise")
