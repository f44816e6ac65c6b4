"""Per-cell capture: hermeticity, serializability, fidelity."""

import contextlib
import json

from repro.mpi.job import JOB_OBSERVERS, MpiJob
from repro.obs.capture import CaptureConfig, CellMetrics, capture_cell
from repro.obs.metrics import MetricsRegistry, ambient_metrics_registry, use_metrics
from repro.sim.session import SimSession
from repro.sim.trace import RecordingTracer, default_tracer, use_tracer


def _run_once():
    def program(ctx):
        yield from ctx.alltoall(16 << 10)

    MpiJob(8, session=SimSession()).run(program)


@contextlib.contextmanager
def _outer_observer():
    """An observer registered outside the capture; yields its samples."""
    seen = []

    def observer(job, result):
        seen.append(job.n_ranks)

    JOB_OBSERVERS.append(observer)
    try:
        yield seen
    finally:
        JOB_OBSERVERS.remove(observer)


class TestCaptureConfig:
    def test_falsy_when_everything_off(self):
        assert not CaptureConfig()
        assert CaptureConfig(trace=True)
        assert CaptureConfig(metrics=True)
        assert CaptureConfig(profile=True)

    def test_round_trip(self):
        cfg = CaptureConfig(trace=True, profile=True)
        assert CaptureConfig.from_dict(cfg.to_dict()) == cfg


class TestCaptureCell:
    def test_captures_records_and_metrics(self):
        cfg = CaptureConfig(trace=True, metrics=True)
        with capture_cell(cfg) as cap:
            _run_once()
        payload = cap.seal()
        assert payload["records"], "trace records must be captured"
        assert all({"t", "type"} <= set(r) for r in payload["records"])
        assert payload["metrics"]["counters"]["net.flows_started"] > 0
        assert payload["profile"] is None
        json.dumps(payload)  # plain data end to end

    def test_captures_profile_samples(self):
        with capture_cell(CaptureConfig(profile=True)) as cap:
            _run_once()
        payload = cap.seal()
        assert payload["records"] is None
        samples = payload["profile"]
        assert len(samples) == 1
        assert samples[0]["n_ranks"] == 8
        assert samples[0]["events_processed"] > 0

    def test_shadows_ambient_scopes(self):
        # An outer tracer/observer must see NOTHING from inside the
        # capture: a cell's telemetry leaves only through its payload.
        outer_tracer = RecordingTracer()
        with use_tracer(outer_tracer), _outer_observer() as outer_samples:
            with capture_cell(CaptureConfig(trace=True, profile=True)) as cap:
                _run_once()
        assert len(outer_tracer.records) == 0
        assert outer_samples == []
        assert cap.seal()["records"]

    def test_no_capture_shadows_everything(self):
        outer_tracer = RecordingTracer()
        outer_registry = MetricsRegistry()
        with use_tracer(outer_tracer), use_metrics(outer_registry), \
                _outer_observer() as outer_samples:
            with capture_cell(None) as cap:
                _run_once()
        assert len(outer_tracer.records) == 0
        assert outer_registry.snapshot()["counters"] == {}
        assert outer_samples == []
        assert cap.seal() == {"records": None, "metrics": None, "profile": None}

    def test_restores_ambient_state(self):
        tracer = RecordingTracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_metrics(registry), _outer_observer():
            observers_before = JOB_OBSERVERS[:]
            with capture_cell(CaptureConfig(trace=True)):
                assert default_tracer() is not tracer
                assert ambient_metrics_registry() is None
                assert JOB_OBSERVERS == []
            assert default_tracer() is tracer
            assert ambient_metrics_registry() is registry
            assert JOB_OBSERVERS == observers_before

    def test_cell_metrics_round_trip(self):
        cm = CellMetrics(records=[{"t": 0.0, "type": "mark", "name": "x"}],
                         metrics={"counters": {"a": 1}},
                         profile=None)
        assert CellMetrics.from_dict(cm.to_dict()) == cm

    def test_capture_equals_direct_observation(self):
        # The whole point: the captured records are exactly what a
        # direct run under a tracer records.
        direct = RecordingTracer()
        with use_tracer(direct):
            _run_once()

        with capture_cell(CaptureConfig(trace=True)) as cap:
            _run_once()
        captured = cap.seal()["records"]

        assert len(direct.records) == len(captured)
        assert [(r.t, r.type, r.data) for r in direct.records] == [
            (rec["t"], rec["type"],
             {k: v for k, v in rec.items() if k not in ("t", "type")})
            for rec in captured
        ]
