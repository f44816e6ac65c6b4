"""Per-cell observability capture: the one way telemetry leaves a cell.

A sweep cell may run inline, in a pool worker or not at all (served
from the memo or the result cache), so nothing it observes can go to a
process-global sink.  Capture is explicit and serializable instead:

1. the caller names the channels it wants in a :class:`CaptureConfig`
   (``--trace`` / ``--metrics`` / ``--profile``) and passes it to
   :func:`repro.runner.run_cells` or :func:`repro.bench.run_plan`; the
   config joins the cell's cache key;
2. :func:`repro.runner.cells.execute_cell` builds the cell's
   :class:`CellCapture` from it, whose tracer and profile list go into
   the cell's session as arguments, and seals the collected payload
   into the cell's result as plain data;
3. the caller reads the payloads back from the results —
   :func:`repro.bench.run_plan` returns those of its unique cells in
   input order — and writes them to its own sinks.

Because the capture path is identical inline and in a worker, ``--jobs
N`` reproduces the ``--jobs 1`` record stream exactly, and a payload
served from the result cache reads back the same way a fresh one does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..sim.trace import NULL_TRACER, RecordingTracer, TeeTracer, Tracer
from .metrics import MetricsRegistry, MetricsTracer

__all__ = ["CaptureConfig", "CellCapture"]


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
    #: Collect per-run simulator self-profile samples (``--profile``).
    profile: bool = False

    def __bool__(self) -> bool:
        return self.trace or self.metrics or self.profile

    def to_dict(self) -> Dict[str, bool]:
        return {"trace": self.trace, "metrics": self.metrics,
                "profile": self.profile}


class CellCapture:
    """The sinks of one cell run, built from its :class:`CaptureConfig`.

    ``tracer`` and ``profile`` are what the cell's session takes as its
    ``tracer=`` and ``profile=`` arguments: a recorder, a metrics tracer
    on a fresh registry, their tee or the null tracer, and a sample list
    or None, for the channels the config turns on.  :meth:`seal` returns
    what they collected as the cell's plain-data payload.
    """

    def __init__(self, config: Optional[CaptureConfig]):
        config = config or CaptureConfig()
        self.recorder = RecordingTracer() if config.trace else None
        self.registry = MetricsRegistry() if config.metrics else None
        #: Self-profile samples, one per session run (``--profile``).
        self.profile: Optional[List[Dict[str, Any]]] = (
            [] if config.profile else None
        )
        sinks: List[Tracer] = []
        if self.recorder is not None:
            sinks.append(self.recorder)
        if self.registry is not None:
            sinks.append(MetricsTracer(self.registry))
        self.tracer: Tracer = (
            NULL_TRACER if not sinks
            else sinks[0] if len(sinks) == 1
            else TeeTracer(sinks)
        )

    def seal(self) -> Dict[str, Any]:
        """The collected payload: records as ``{"t", "type", ...fields}``
        dicts, the metrics snapshot and the profile samples, each None
        when its channel was off."""
        records = None
        if self.recorder is not None:
            records = [
                {"t": r.t, "type": r.type, **r.data}
                for r in self.recorder.records
            ]
        return {
            "records": records,
            "metrics": (
                self.registry.snapshot() if self.registry is not None else None
            ),
            "profile": self.profile,
        }
