"""Tests for the Tracer hook bus (repro.sim.trace)."""

import io
import json

import pytest

from repro.sim import Environment, NullTracer, RecordingTracer
from repro.sim.trace import (
    NULL_TRACER,
    JsonlTracer,
    TraceRecord,
)


def test_null_tracer_is_disabled():
    assert NullTracer().enabled is False
    assert NULL_TRACER.enabled is False
    NULL_TRACER.close()  # no-op, must not raise


def test_environment_defaults_to_null_tracer():
    env = Environment()
    assert env.tracer is NULL_TRACER


def test_recording_tracer_captures_process_events():
    tracer = RecordingTracer()
    env = Environment(tracer=tracer)

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(2.0)

    env.process(proc(env))
    env.run()
    resumes = tracer.of_type("process.resume")
    suspends = tracer.of_type("process.suspend")
    assert len(resumes) >= 2  # one per timeout firing
    assert len(suspends) >= 2  # one per park
    assert all(r.data["process"] for r in resumes)
    assert suspends[0].data["target"] == "Timeout"
    # Timestamps are on the simulation clock, not wall-clock.
    assert resumes[-1].t == 3.0


def test_trace_record_json_round_trip():
    rec = TraceRecord(1.5, "mark", {"name": "x", "extra": 3})
    parsed = json.loads(rec.to_json())
    assert parsed == {"t": 1.5, "type": "mark", "name": "x", "extra": 3}


def test_typed_helpers_build_schema_records():
    tracer = RecordingTracer()
    tracer.core_activity(1.0, 3, 0, "idle", "compute")
    tracer.power_state(2.0, 3, 0, "frequency", 2.4, 1.6)
    tracer.power_state(3.0, 3, 0, "tstate", 0, 7)
    tracer.flow_start(4.0, "f0", 1e6, ["a", "b"], seq=17)
    tracer.flow_finish(5.0, "f0", 1e6, 4.0, ["a", "b"], seq=17)
    tracer.fault(6.0, "link", links=["a"], factor=0.5)
    tracer.mark(7.0, "checkpoint", phase=2)
    types = [r.type for r in tracer.records]
    assert types == [
        "core.activity",
        "core.frequency",
        "core.tstate",
        "flow.start",
        "flow.finish",
        "fault.link",
        "mark",
    ]
    finish = tracer.of_type("flow.finish")[0]
    assert finish.data["start"] == 4.0
    assert finish.data["seq"] == 17
    assert finish.data["delivered"] == 1e6  # defaults to nbytes
    assert finish.data["duration"] == 1.0
    assert tracer.of_type("flow.start")[0].data["seq"] == 17
    assert tracer.of_type("fault.link")[0].data["factor"] == 0.5
    assert len(tracer) == 7


def test_flow_finish_explicit_delivered():
    tracer = RecordingTracer()
    tracer.flow_finish(5.0, "f0", 1e6, 4.5, ["a"], seq=2, delivered=5e5)
    assert tracer.of_type("flow.finish")[0].data["delivered"] == 5e5


def test_flow_records_pair_one_to_one():
    """Every flow.start in a real run has exactly one flow.finish with a
    matching admission seq, full delivery, and a consistent duration."""
    from repro.mpi import MpiJob
    from repro.sim import SimSession

    tracer = RecordingTracer()
    session = SimSession(tracer=tracer)
    job = MpiJob(64, session=session)

    def program(ctx):
        yield from ctx.alltoall(64 << 10)
        yield from ctx.bcast(16 << 10)

    job.run(program)
    starts = {r.data["seq"]: r for r in tracer.of_type("flow.start")}
    finishes = tracer.of_type("flow.finish")
    assert starts and len(finishes) == len(starts)
    for fin in finishes:
        start = starts.pop(fin.data["seq"])  # KeyError = orphan/duplicate
        assert fin.data["delivered"] == start.data["bytes"]
        assert fin.data["start"] == start.t
        assert fin.data["duration"] == pytest.approx(fin.t - start.t)
        assert fin.data["duration"] > 0
    assert not starts  # no flow started without finishing


def test_jsonl_tracer_writes_one_record_per_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    with JsonlTracer(str(path)) as tracer:
        tracer.mark(0.0, "a")
        tracer.mark(1.0, "b", detail="x")
    assert tracer.records_written == 2
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1]) == {
        "t": 1.0, "type": "mark", "name": "b", "detail": "x",
    }


def test_jsonl_tracer_borrowed_file_left_open():
    buf = io.StringIO()
    tracer = JsonlTracer(buf)
    tracer.mark(0.0, "a")
    tracer.close()
    assert not buf.closed  # borrowed, not owned
    assert json.loads(buf.getvalue()) == {"t": 0.0, "type": "mark", "name": "a"}


def test_core_transitions_emit_power_state_events():
    """End-to-end: a session-built cluster reports DVFS/T-state/activity
    transitions through the injected tracer."""
    from repro.sim import SimSession

    tracer = RecordingTracer()
    session = SimSession(tracer=tracer)
    core = session.cluster.cores[0]
    core.set_frequency(1.6, now=0.0)
    core.set_tstate(7, now=0.0)
    freq = tracer.of_type("core.frequency")
    tst = tracer.of_type("core.tstate")
    assert freq and freq[0].data["new"] == 1.6
    assert tst and tst[0].data["new"] == 7
    assert freq[0].data["core"] == core.core_id


# -- JsonlTracer lifecycle (flush cadence, close semantics) ------------------
def test_jsonl_flushes_every_n_records(tmp_path):
    path = tmp_path / "flush.jsonl"
    tracer = JsonlTracer(str(path), flush_every=2)
    tracer.mark(0.0, "a")
    tracer.mark(1.0, "b")  # hits the flush boundary
    tracer.mark(2.0, "c")  # buffered again
    # Without closing, the flushed prefix must already be on disk.
    on_disk = path.read_text().splitlines()
    assert len(on_disk) >= 2
    assert json.loads(on_disk[0])["name"] == "a"
    tracer.close()
    assert len(path.read_text().splitlines()) == 3


def test_jsonl_flush_every_validated():
    with pytest.raises(ValueError, match="flush_every"):
        JsonlTracer(io.StringIO(), flush_every=0)


def test_jsonl_close_is_idempotent_and_emit_after_close_raises(tmp_path):
    path = tmp_path / "closed.jsonl"
    tracer = JsonlTracer(str(path))
    tracer.mark(0.0, "a")
    tracer.close()
    tracer.close()  # second close: no-op, no error
    with pytest.raises(ValueError, match="closed"):
        tracer.mark(1.0, "late")
    # The record emitted before close survived; the late one never wrote.
    assert len(path.read_text().splitlines()) == 1


def test_jsonl_borrowed_sink_left_open():
    buf = io.StringIO()
    tracer = JsonlTracer(buf)
    tracer.mark(0.0, "a")
    tracer.close()
    assert not buf.closed  # borrowed, not owned
    assert json.loads(buf.getvalue())["name"] == "a"


# -- TeeTracer ---------------------------------------------------------------
def test_tee_fans_out_to_enabled_children():
    from repro.sim.trace import TeeTracer

    a, b = RecordingTracer(), RecordingTracer()
    disabled = NullTracer()
    tee = TeeTracer([a, None, disabled, b])
    tee.mark(0.5, "x")
    assert len(a.records) == len(b.records) == 1
    assert a.records[0].data == {"name": "x"}


def test_tee_close_closes_children():
    from repro.sim.trace import TeeTracer

    buf = io.StringIO()
    child = JsonlTracer(buf)
    tee = TeeTracer([child])
    tee.mark(0.0, "x")
    tee.close()
    with pytest.raises(ValueError):
        child.mark(1.0, "late")
