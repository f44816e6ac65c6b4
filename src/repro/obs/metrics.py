"""Metric collection: counters, gauges and sim-clock time-series.

A :class:`MetricsRegistry` is the numeric complement of the record
stream in :mod:`repro.sim.trace`: instead of one JSONL line per event it
keeps bounded aggregates —

* **counters** — monotonically accumulated totals (flows started, DVFS
  transitions, bytes delivered),
* **gauges** — last-written values (most recent simulated end time),
* **series** — time-stamped observations on the *simulation* clock,
  folded into :class:`SeriesStats` (count / min / max / mean /
  time-weighted average / last) so a million samples cost a few floats.

The registry is fed from the existing trace-hook bus: a
:class:`MetricsTracer` subscribes like any tracer and converts typed
records into metric updates (core frequency, T-state duty, link
utilisation, governor slack EWMA, event-loop rate).  A session feeds a
registry only when it is given the registry's tracer (or a tee holding
it) as its ``tracer``; without one the simulator pays nothing, since
every emission site guards on ``tracer.enabled``.

Everything in a snapshot is derived from *simulated* quantities, never
the host clock, so snapshots are byte-identical across reruns, across
``--jobs 1`` vs ``--jobs N``, and across warm-cache reruns.
"""

from __future__ import annotations

from typing import Any, Dict, Set

from ..numeric import left_sum
from ..sim.trace import Tracer

__all__ = [
    "MetricsRegistry",
    "MetricsTracer",
    "SeriesStats",
]


class SeriesStats:
    """Streaming aggregate of one ``(t, value)`` time-series.

    Keeps exact accumulators (count, min, max, sum, rectangle-rule
    integral over the covered span) so two instances can be merged
    without loss: merging the stats of two record streams equals the
    stats of their concatenation.  A sample with ``t`` earlier than the
    previous one starts a new *segment* (a fresh simulation clock); the
    integral and span accumulate across segments.
    """

    __slots__ = ("n", "vmin", "vmax", "vsum", "last_t", "last_v",
                 "integral", "span")

    def __init__(self) -> None:
        self.n = 0
        self.vmin = 0.0
        self.vmax = 0.0
        self.vsum = 0.0
        self.last_t = 0.0
        self.last_v = 0.0
        self.integral = 0.0  # ∫ value dt over the covered span
        self.span = 0.0      # total seconds covered by observations

    def observe(self, t: float, value: float) -> None:
        value = float(value)
        if self.n == 0:
            self.vmin = self.vmax = value
        else:
            self.vmin = min(self.vmin, value)
            self.vmax = max(self.vmax, value)
            if t >= self.last_t:  # same segment: close the rectangle
                self.integral += self.last_v * (t - self.last_t)
                self.span += t - self.last_t
        self.n += 1
        self.vsum += value
        self.last_t = float(t)
        self.last_v = value

    @property
    def mean(self) -> float:
        """Per-sample mean (each observation weighted equally)."""
        return self.vsum / self.n if self.n else 0.0

    @property
    def time_weighted(self) -> float:
        """Time-weighted average over the covered span (duty cycles)."""
        return self.integral / self.span if self.span > 0 else self.last_v

    def to_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "min": self.vmin,
            "max": self.vmax,
            "sum": self.vsum,
            "mean": self.mean,
            "twa": self.time_weighted,
            "last": self.last_v,
            "last_t": self.last_t,
            "integral": self.integral,
            "span": self.span,
        }

    def merge(self, other: Dict[str, float]) -> None:
        """Fold a serialized :meth:`to_dict` into this aggregate.

        Order matters only for ``last``/``last_t`` (the merged-in stream
        is treated as *later*), which is exactly the submit-order
        contract of the sweep runner.
        """
        if not other.get("n"):
            return
        if self.n == 0:
            self.vmin = float(other["min"])
            self.vmax = float(other["max"])
        else:
            self.vmin = min(self.vmin, float(other["min"]))
            self.vmax = max(self.vmax, float(other["max"]))
        self.n += int(other["n"])
        self.vsum += float(other["sum"])
        self.integral += float(other["integral"])
        self.span += float(other["span"])
        self.last_t = float(other["last_t"])
        self.last_v = float(other["last"])


class MetricsRegistry:
    """Named counters / gauges / series with deterministic snapshots."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.series: Dict[str, SeriesStats] = {}

    # -- feeding ------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Record the most recent value of gauge ``name``."""
        self.gauges[name] = float(value)

    def observe(self, name: str, t: float, value: float) -> None:
        """Fold one ``(t, value)`` sample into series ``name``."""
        stats = self.series.get(name)
        if stats is None:
            stats = self.series[name] = SeriesStats()
        stats.observe(t, value)

    # -- output -------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-data view (JSON-able, deterministically ordered)."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "series": {k: self.series[k].to_dict() for k in sorted(self.series)},
        }

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` in: counters add, gauges last-win,
        series merge exactly (see :meth:`SeriesStats.merge`)."""
        for name, value in (snap.get("counters") or {}).items():
            self.inc(name, value)
        for name, value in (snap.get("gauges") or {}).items():
            self.set_gauge(name, value)
        for name, stats in (snap.get("series") or {}).items():
            mine = self.series.get(name)
            if mine is None:
                mine = self.series[name] = SeriesStats()
            mine.merge(stats)


class MetricsTracer(Tracer):
    """Adapts the trace-hook bus onto a :class:`MetricsRegistry`.

    One instance observes one simulation session (its per-run state —
    per-core frequency, throttled set, in-flight flows — assumes a
    single monotone clock); many instances may feed one shared registry.
    Observes only, never steers: timelines are identical with or without
    it.
    """

    #: Emit one event-loop-rate sample per this many process resumes.
    RATE_SAMPLE_EVERY = 256

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._freq: Dict[int, float] = {}
        self._throttled: Set[int] = set()
        self._active_flows = 0
        self._resumes = 0
        self._rate_t0 = 0.0

    def emit(self, t: float, type: str, **data: Any) -> None:
        reg = self.registry
        reg.inc(f"records.{type}")
        reg.set_gauge("sim.last_t", t)
        if type == "flow.start":
            self._active_flows += 1
            reg.inc("net.flows_started")
            reg.observe("net.active_flows", t, self._active_flows)
        elif type == "flow.finish":
            self._active_flows -= 1
            reg.inc("net.flows_finished")
            reg.inc("net.bytes_delivered", data.get("delivered", 0.0))
            reg.observe("net.active_flows", t, self._active_flows)
            duration = data.get("duration", 0.0)
            reg.observe("net.flow_duration_s", t, duration)
            if duration > 0:
                reg.observe("net.delivery_gbps", t,
                            data.get("delivered", 0.0) / duration / 1e9)
        elif type == "core.frequency":
            reg.inc("power.dvfs_transitions")
            self._freq[data["core"]] = data["new"]
            reg.observe("power.mean_frequency_ghz", t,
                        left_sum(self._freq.values()) / len(self._freq))
        elif type == "core.tstate":
            reg.inc("power.tstate_transitions")
            if data["new"]:
                self._throttled.add(data["core"])
            else:
                self._throttled.discard(data["core"])
            reg.observe("power.throttled_cores", t, len(self._throttled))
        elif type == "core.activity":
            reg.inc("cores.activity_changes")
        elif type == "process.resume":
            self._resumes += 1
            if self._resumes % self.RATE_SAMPLE_EVERY == 0:
                dt = t - self._rate_t0
                if dt > 0:
                    reg.observe("engine.resumes_per_sim_s", t,
                                self.RATE_SAMPLE_EVERY / dt)
                self._rate_t0 = t
        elif type.startswith("fault."):
            reg.inc("faults.events")
        elif type == "mark" and data.get("name") == "governor.slack":
            ewma = data.get("ewma_s")
            if ewma is not None:
                reg.observe("governor.slack_ewma_s", t, ewma)

