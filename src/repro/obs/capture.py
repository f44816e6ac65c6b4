"""Per-cell observability capture: the one way telemetry leaves a cell.

A sweep cell may run inline, in a pool worker or not at all (served
from the memo or the result cache), so nothing it observes can go to a
process-global sink.  Capture is explicit and serializable instead:

1. the caller names the channels it wants in a :class:`CaptureConfig`
   (``--trace`` / ``--metrics`` / ``--profile``) and passes it to
   :func:`repro.runner.run_cells` or :func:`repro.bench.run_plan`; the
   config joins the cell's cache key;
2. :func:`repro.runner.cells.execute_cell` runs every cell inside
   :func:`capture_cell`, which stands process-local collectors in for
   the ambient tracer, metrics registry and job observers, and seals a
   plain-data :class:`CellMetrics` into the cell's result;
3. the caller reads the payloads back from the results —
   :func:`repro.bench.run_plan` returns those of its unique cells in
   input order — and writes them to its own sinks.

Because the capture path is identical inline and in a worker, ``--jobs
N`` reproduces the ``--jobs 1`` record stream exactly, and a payload
served from the result cache reads back the same way a fresh one does.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from ..sim.trace import RecordingTracer, use_tracer
from .metrics import MetricsRegistry, use_metrics

__all__ = ["CaptureConfig", "CellMetrics", "capture_cell"]


@dataclass(frozen=True)
class CaptureConfig:
    """Which observability channels a cell run must collect.

    Plain data (picklable, JSON-able) so it crosses the process boundary
    with the cell and participates in the cache key — a captured result
    and an uncaptured one are different cache entries.
    """

    #: Collect the full trace-record stream (``--trace``).
    trace: bool = False
    #: Collect a per-cell :class:`~repro.obs.metrics.MetricsRegistry`
    #: snapshot (``--metrics``).
    metrics: bool = False
    #: Collect per-job simulator self-profile samples (``--profile``).
    profile: bool = False

    def __bool__(self) -> bool:
        return self.trace or self.metrics or self.profile

    def to_dict(self) -> Dict[str, bool]:
        return {"trace": self.trace, "metrics": self.metrics,
                "profile": self.profile}

    @classmethod
    def from_dict(cls, data: Dict[str, bool]) -> "CaptureConfig":
        return cls(trace=bool(data.get("trace")),
                   metrics=bool(data.get("metrics")),
                   profile=bool(data.get("profile")))


@dataclass
class CellMetrics:
    """Serializable observability payload of one executed cell."""

    #: Trace records as plain dicts (``{"t", "type", ...fields}``).
    records: Optional[List[Dict[str, Any]]] = None
    #: Per-cell metrics snapshot (:meth:`MetricsRegistry.snapshot`).
    metrics: Optional[Dict[str, Any]] = None
    #: Per-job self-profile samples (:class:`repro.bench.profile.JobSample`
    #: fields; ``wall_time_s`` reflects the *original* execution when the
    #: payload is served from the cache).
    profile: Optional[List[Dict[str, Any]]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"records": self.records, "metrics": self.metrics,
                "profile": self.profile}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellMetrics":
        return cls(records=data.get("records"), metrics=data.get("metrics"),
                   profile=data.get("profile"))


class _CellCapture:
    """Live collectors for one cell run (sealed into :class:`CellMetrics`)."""

    def __init__(
        self,
        config: CaptureConfig,
        recorder: Optional[RecordingTracer],
        registry: Optional[MetricsRegistry],
        samples: Optional[List[Dict[str, Any]]],
    ):
        self.config = config
        self.recorder = recorder
        self.registry = registry
        self.samples = samples

    def seal(self) -> Dict[str, Any]:
        records = None
        if self.recorder is not None:
            records = [
                {"t": r.t, "type": r.type, **r.data}
                for r in self.recorder.records
            ]
        return CellMetrics(
            records=records,
            metrics=self.registry.snapshot() if self.registry is not None else None,
            profile=self.samples,
        ).to_dict()


@contextlib.contextmanager
def capture_cell(config: Optional[CaptureConfig]) -> Iterator[_CellCapture]:
    """Run a cell body under process-local collectors.

    The ambient tracer, metrics registry and job-observer list are
    replaced for the duration — by a recorder, a fresh registry and one
    sample-collecting observer for the channels ``config`` turns on, by
    nothing for the rest — so capture is hermetic: the same cell
    captures the same payload inline, in a worker, or nested under any
    outer instrumentation, and the outer sinks see none of it.
    """
    from ..mpi.job import JOB_OBSERVERS  # lazy: keep worker imports cheap

    config = config or CaptureConfig()
    recorder = RecordingTracer() if config.trace else None
    registry = MetricsRegistry() if config.metrics else None
    samples: Optional[List[Dict[str, Any]]] = [] if config.profile else None

    def observe(job, result) -> None:
        samples.append({
            "n_ranks": job.n_ranks,
            "sim_time_s": result.duration_s,
            "wall_time_s": result.stats.wall_time_s,
            "events_processed": result.stats.events_processed,
            "rerate_calls": result.stats.rerate_calls,
            "flows_rerated": result.stats.flows_rerated,
        })

    saved_observers = JOB_OBSERVERS[:]
    JOB_OBSERVERS[:] = [observe] if samples is not None else []
    try:
        with use_tracer(recorder), use_metrics(registry):
            yield _CellCapture(config, recorder, registry, samples)
    finally:
        JOB_OBSERVERS[:] = saved_observers
