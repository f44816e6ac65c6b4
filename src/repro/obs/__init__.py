"""repro.obs — the unified observability layer.

The paper's evaluation lives and dies by fine-grained timelines: which
cores sit in which P/T-state when, where slack accrues, where network
contention bites (PAPER.md §V–VI).  Before this package the
instrumentation was three disconnected fragments (trace bus, governor
telemetry, bench self-profile) whose ambient scopes silently failed
under the parallel sweep runner.  ``repro.obs`` consolidates them:

:mod:`~repro.obs.metrics`
    :class:`MetricsRegistry` — counters, gauges and sim-clock-sampled
    time-series aggregates, fed from the existing SimSession trace-hook
    bus by a :class:`MetricsTracer` passed as the session's tracer.
    Zero overhead when a session has none.
:mod:`~repro.obs.chrome`
    A Chrome trace-event (``chrome://tracing`` / Perfetto) exporter that
    turns flow/core/power/fault trace records into per-rank duration
    slices and counter tracks (CLI: ``repro trace-export``).
:mod:`~repro.obs.capture`
    Per-cell capture for the sweep runner: :func:`execute_cell` hands
    each cell's session the sinks of a :class:`CellCapture` and seals
    their plain-data payload into the result, and the caller reads the
    payloads back in input order, so ``--jobs N`` observability output
    is byte-identical to ``--jobs 1`` — and survives the result cache.

Use::

    from repro import SimSession, run_collective_once
    from repro.obs import MetricsRegistry, MetricsTracer

    registry = MetricsRegistry()
    run_collective_once(
        "alltoall", 1 << 20,
        session=SimSession(tracer=MetricsTracer(registry)),
    )
    print(registry.snapshot()["counters"]["net.flows_started"])
"""

from .capture import CaptureConfig, CellCapture
from .chrome import chrome_trace, export_chrome_trace, read_jsonl_records
from .metrics import MetricsRegistry, MetricsTracer, SeriesStats

__all__ = [
    "CaptureConfig",
    "CellCapture",
    "MetricsRegistry",
    "MetricsTracer",
    "SeriesStats",
    "chrome_trace",
    "export_chrome_trace",
    "read_jsonl_records",
]
