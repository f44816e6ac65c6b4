"""Wall-clock self-profile of the simulator.

The ROADMAP's bar is "as fast as the hardware allows", so the bench layer
needs to see how fast the *simulator itself* runs, not just the simulated
timings it reports.  A cell captured with ``CaptureConfig(profile=True)``
records one sample dict per completed job (see
:func:`repro.obs.capture.capture_cell`) with the :class:`JobSample`
fields:

* host wall-clock seconds spent inside ``MpiJob.run``,
* kernel events processed (and the derived events/second rate),
* fabric re-rating effort (water-filling calls × flows covered — the
  number the incremental re-rater shrinks).

:class:`SelfProfile` folds those samples into a summary::

    prof = SelfProfile([JobSample(**s) for s in samples])
    print(prof.report())

The CLI exposes it as ``python -m repro experiment <name> --profile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class JobSample:
    """Self-profile of one completed job."""

    n_ranks: int
    sim_time_s: float
    wall_time_s: float
    events_processed: int
    rerate_calls: int
    flows_rerated: int

    @property
    def events_per_s(self) -> float:
        return self.events_processed / self.wall_time_s if self.wall_time_s > 0 else 0.0


@dataclass
class SelfProfile:
    """The :class:`JobSample` s of a run's jobs, and their summary."""

    samples: List[JobSample] = field(default_factory=list)

    def add_sample(self, sample: JobSample) -> None:
        """Record one job sample."""
        self.samples.append(sample)

    # -- aggregates --------------------------------------------------------
    @property
    def total_wall_s(self) -> float:
        return sum(s.wall_time_s for s in self.samples)

    @property
    def total_events(self) -> int:
        return sum(s.events_processed for s in self.samples)

    @property
    def total_flows_rerated(self) -> int:
        return sum(s.flows_rerated for s in self.samples)

    def report(self) -> str:
        """Human-readable summary block."""
        if not self.samples:
            return "self-profile: no jobs ran"
        wall = self.total_wall_s
        events = self.total_events
        rate = events / wall if wall > 0 else 0.0
        lines = [
            "self-profile:",
            f"  jobs run            : {len(self.samples)}",
            f"  simulator wall time : {wall:.3f} s",
            f"  kernel events       : {events:,} ({rate:,.0f} events/s)",
            f"  rerate calls        : {sum(s.rerate_calls for s in self.samples):,}",
            f"  flows re-rated      : {self.total_flows_rerated:,}",
        ]
        slowest = max(self.samples, key=lambda s: s.wall_time_s)
        lines.append(
            f"  slowest job         : {slowest.n_ranks} ranks, "
            f"{slowest.wall_time_s:.3f} s wall for {slowest.sim_time_s:.4f} s "
            "simulated"
        )
        return "\n".join(lines)
