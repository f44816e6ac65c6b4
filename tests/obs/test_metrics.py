"""MetricsRegistry / SeriesStats / MetricsTracer behaviour."""

import json

import pytest

from repro.mpi.job import MpiJob
from repro.obs.metrics import MetricsRegistry, MetricsTracer, SeriesStats
from repro.sim.session import SimSession
from repro.sim.trace import NULL_TRACER, TeeTracer


def _program(ctx):
    yield from ctx.alltoall(16 << 10)


def _run_once(tracer=None):
    session = SimSession(tracer=tracer)
    job = MpiJob(8, session=session)
    job.run(_program)
    return session


class TestSeriesStats:
    def test_empty(self):
        s = SeriesStats()
        assert s.n == 0
        assert s.mean == 0.0
        assert s.time_weighted == 0.0

    def test_single_sample(self):
        s = SeriesStats()
        s.observe(1.0, 5.0)
        assert s.n == 1
        assert s.vmin == s.vmax == 5.0
        assert s.mean == 5.0
        # No span covered yet: twa falls back to the last value.
        assert s.time_weighted == 5.0

    def test_time_weighted_average(self):
        s = SeriesStats()
        # value 2 for 1s, then value 4 for 3s => twa = (2*1 + 4*3)/4 = 3.5
        s.observe(0.0, 2.0)
        s.observe(1.0, 4.0)
        s.observe(4.0, 0.0)
        assert s.span == pytest.approx(4.0)
        assert s.time_weighted == pytest.approx(3.5)
        assert s.mean == pytest.approx(2.0)

    def test_merge_equals_concatenation(self):
        samples = [(0.0, 1.0), (1.0, 3.0), (2.0, 2.0), (3.5, 5.0), (4.0, 0.5)]
        whole = SeriesStats()
        for t, v in samples:
            whole.observe(t, v)

        first, second = SeriesStats(), SeriesStats()
        for t, v in samples[:2]:
            first.observe(t, v)
        for t, v in samples[2:]:
            second.observe(t, v)
        # Merging loses the inter-chunk rectangle (each cell is its own
        # clock segment), so compare the merge-stable accumulators.
        first.merge(second.to_dict())
        assert first.n == whole.n
        assert first.vmin == whole.vmin
        assert first.vmax == whole.vmax
        assert first.vsum == pytest.approx(whole.vsum)
        assert first.last_v == whole.last_v
        assert first.last_t == whole.last_t

    def test_merge_is_exact_for_serialized_chunks(self):
        # The runner contract: fold(snapshots) must not depend on how the
        # stream was chunked, only on chunk order.
        chunks = [[(0.0, 1.0), (0.5, 2.0)], [(0.0, 4.0)], [(0.0, 3.0), (2.0, 1.0)]]
        one = SeriesStats()
        for chunk in chunks:
            part = SeriesStats()
            for t, v in chunk:
                part.observe(t, v)
            one.merge(part.to_dict())

        two = SeriesStats()
        for chunk in chunks:
            part = SeriesStats()
            for t, v in chunk:
                part.observe(t, v)
            two.merge(part.to_dict())
        assert one.to_dict() == two.to_dict()

    def test_new_segment_on_clock_reset(self):
        s = SeriesStats()
        s.observe(0.0, 1.0)
        s.observe(2.0, 1.0)  # 2s span at value 1
        s.observe(0.5, 7.0)  # fresh simulation clock: no negative rectangle
        assert s.span == pytest.approx(2.0)
        assert s.integral == pytest.approx(2.0)
        assert s.vmax == 7.0


class TestRegistry:
    def test_counters_gauges_series(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2.5)
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 3.0)
        reg.observe("s", 0.0, 1.0)
        snap = reg.snapshot()
        assert snap["counters"]["a"] == 3.5
        assert snap["gauges"]["g"] == 3.0
        assert snap["series"]["s"]["n"] == 1

    def test_snapshot_is_json_able_and_sorted(self):
        reg = MetricsRegistry()
        reg.inc("z")
        reg.inc("a")
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert list(snap["counters"]) == ["a", "z"]

    def test_merge_snapshot(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1)
        b.inc("c", 2)
        b.set_gauge("g", 9.0)
        b.observe("s", 0.0, 4.0)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 9.0
        assert snap["series"]["s"]["mean"] == 4.0


class TestMetricsTracer:
    def test_flow_accounting(self):
        reg = MetricsRegistry()
        tr = MetricsTracer(reg)
        tr.flow_start(0.0, "f", 100.0, ["l"], seq=1)
        tr.flow_finish(2.0, "f", 100.0, 0.0, ["l"], seq=1)
        snap = reg.snapshot()
        assert snap["counters"]["net.flows_started"] == 1
        assert snap["counters"]["net.flows_finished"] == 1
        assert snap["counters"]["net.bytes_delivered"] == 100.0
        assert snap["series"]["net.active_flows"]["max"] == 1
        assert snap["series"]["net.flow_duration_s"]["mean"] == 2.0

    def test_power_state_tracking(self):
        reg = MetricsRegistry()
        tr = MetricsTracer(reg)
        tr.power_state(0.0, 0, 0, "frequency", 2.4, 0.8)
        tr.power_state(0.1, 1, 0, "frequency", 2.4, 2.4)
        tr.power_state(0.2, 0, 0, "tstate", 0, 7)
        tr.power_state(0.3, 0, 0, "tstate", 7, 0)
        snap = reg.snapshot()
        assert snap["counters"]["power.dvfs_transitions"] == 2
        assert snap["counters"]["power.tstate_transitions"] == 2
        assert snap["series"]["power.mean_frequency_ghz"]["last"] == 1.6
        assert snap["series"]["power.throttled_cores"]["max"] == 1
        assert snap["series"]["power.throttled_cores"]["last"] == 0

    def test_governor_slack_mark(self):
        reg = MetricsRegistry()
        tr = MetricsTracer(reg)
        tr.mark(1.0, "governor.slack", core=0, wait_s=1e-4, ewma_s=2e-4)
        tr.mark(1.0, "unrelated")
        snap = reg.snapshot()
        assert snap["series"]["governor.slack_ewma_s"]["last"] == 2e-4


class TestAmbientScope:
    """No ambient scope is left: a session meters into a registry only
    through the tracer it is given."""

    def test_session_tees_into_registry(self):
        reg = MetricsRegistry()
        _run_once(MetricsTracer(reg))
        snap = reg.snapshot()
        assert snap["counters"]["net.flows_started"] > 0
        assert snap["counters"]["records.process.resume"] > 0
        assert snap["gauges"]["sim.last_t"] > 0

    def test_no_scope_no_tee(self):
        session = SimSession()
        assert session.tracer is NULL_TRACER
        assert not isinstance(session.tracer, TeeTracer)

    def test_metrics_do_not_perturb_timeline(self):
        session = _run_once()
        bare_t = session.now
        reg = MetricsRegistry()
        session2 = _run_once(MetricsTracer(reg))
        assert session2.now == bare_t

    def test_snapshot_contains_no_wall_clock(self):
        # Two separate runs of the same workload must snapshot
        # identically: everything derives from the simulated clock.
        snaps = []
        for _ in range(2):
            reg = MetricsRegistry()
            _run_once(MetricsTracer(reg))
            snaps.append(json.dumps(reg.snapshot(), sort_keys=True))
        assert snaps[0] == snaps[1]
