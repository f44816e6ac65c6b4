"""Per-cell capture: sinks built from a config, serializability, fidelity."""

import json

from repro.mpi.job import MpiJob
from repro.obs.capture import CaptureConfig, CellCapture
from repro.obs.metrics import MetricsTracer
from repro.sim.session import SimSession
from repro.sim.trace import NULL_TRACER, RecordingTracer, TeeTracer


def _run_once(session):
    def program(ctx):
        yield from ctx.alltoall(16 << 10)

    MpiJob(8, session=session).run(program)


def _captured(config):
    """The payload of one run on a session holding ``config``'s sinks."""
    cap = CellCapture(config)
    _run_once(SimSession(tracer=cap.tracer, profile=cap.profile))
    return cap.seal()


class TestCaptureConfig:
    def test_falsy_when_everything_off(self):
        assert not CaptureConfig()
        assert CaptureConfig(trace=True)
        assert CaptureConfig(metrics=True)
        assert CaptureConfig(profile=True)


class TestCaptureCell:
    def test_sinks_follow_config(self):
        off = CellCapture(None)
        assert off.tracer is NULL_TRACER and off.profile is None
        assert off.seal() == {"records": None, "metrics": None, "profile": None}
        assert CellCapture(CaptureConfig(trace=True)).tracer.enabled
        metered = CellCapture(CaptureConfig(metrics=True))
        assert isinstance(metered.tracer, MetricsTracer)
        both = CellCapture(CaptureConfig(trace=True, metrics=True))
        assert isinstance(both.tracer, TeeTracer)
        assert both.tracer.children[0] is both.recorder
        assert isinstance(both.tracer.children[1], MetricsTracer)

    def test_captures_records_and_metrics(self):
        payload = _captured(CaptureConfig(trace=True, metrics=True))
        assert payload["records"], "trace records must be captured"
        assert all({"t", "type"} <= set(r) for r in payload["records"])
        assert payload["metrics"]["counters"]["net.flows_started"] > 0
        assert payload["profile"] is None
        json.dumps(payload)  # plain data end to end

    def test_captures_profile_samples(self):
        payload = _captured(CaptureConfig(profile=True))
        assert payload["records"] is None
        samples = payload["profile"]
        assert len(samples) == 1
        assert samples[0]["n_ranks"] == 8
        assert samples[0]["events_processed"] > 0

    def test_capture_equals_direct_observation(self):
        # The whole point: the captured records are exactly what a
        # direct run under a tracer records.
        direct = RecordingTracer()
        _run_once(SimSession(tracer=direct))

        captured = _captured(CaptureConfig(trace=True))["records"]

        assert len(direct.records) == len(captured)
        assert [(r.t, r.type, r.data) for r in direct.records] == [
            (rec["t"], rec["type"],
             {k: v for k, v in rec.items() if k not in ("t", "type")})
            for rec in captured
        ]
