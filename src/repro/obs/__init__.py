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
    bus by a :class:`MetricsTracer` tee.  Zero overhead when no
    :func:`use_metrics` scope is active.
:mod:`~repro.obs.chrome`
    A Chrome trace-event (``chrome://tracing`` / Perfetto) exporter that
    turns flow/core/power/fault trace records into per-rank duration
    slices and counter tracks (CLI: ``repro trace-export``).
:mod:`~repro.obs.capture`
    Per-cell capture for the sweep runner: :func:`execute_cell` seals a
    serializable :class:`CellMetrics` into each result, and the caller
    reads the payloads back in input order, so ``--jobs N``
    observability output is byte-identical to ``--jobs 1`` — and
    survives the result cache.

Use::

    from repro.obs import MetricsRegistry, use_metrics

    registry = MetricsRegistry()
    with use_metrics(registry):
        run_collective_once("alltoall", 1 << 20)
    print(registry.snapshot()["counters"]["net.flows_started"])
"""

from .capture import CaptureConfig, CellMetrics, capture_cell
from .chrome import chrome_trace, export_chrome_trace, read_jsonl_records
from .metrics import (
    MetricsRegistry,
    MetricsTracer,
    SeriesStats,
    ambient_metrics_registry,
    use_metrics,
)

__all__ = [
    "CaptureConfig",
    "CellMetrics",
    "MetricsRegistry",
    "MetricsTracer",
    "SeriesStats",
    "ambient_metrics_registry",
    "capture_cell",
    "chrome_trace",
    "export_chrome_trace",
    "read_jsonl_records",
    "use_metrics",
]
