"""Wall-clock self-profile of the simulator.

The ROADMAP's bar is "as fast as the hardware allows", so the bench layer
needs to see how fast the *simulator itself* runs, not just the simulated
timings it reports.  A cell captured with ``CaptureConfig(profile=True)``
records one sample dict per session run (see
:meth:`repro.sim.session.SimSession.run_jobs`):

* ``jobs`` and ``n_ranks``: the jobs that shared the run and their ranks,
* ``sim_time_s``: the simulated end of the run,
* ``wall_time_s``: host wall-clock seconds the run took,
* ``events_processed``: kernel events (and the derived events/second
  rate),
* ``rerate_calls`` and ``flows_rerated``: fabric re-rating effort
  (water-filling calls × flows covered — the number the incremental
  re-rater shrinks).

:func:`profile_report` folds those samples into the summary the CLI
prints for ``python -m repro experiment <name> --profile``.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..numeric import left_sum


def profile_report(samples: Sequence[Mapping[str, Any]]) -> str:
    """The ``--profile`` summary block of a run's self-profile samples."""
    if not samples:
        return "self-profile: no jobs ran"
    wall = left_sum(s["wall_time_s"] for s in samples)
    events = sum(s["events_processed"] for s in samples)
    rate = events / wall if wall > 0 else 0.0
    slowest = max(samples, key=lambda s: s["wall_time_s"])
    # A cached sample from before samples counted their jobs is one job.
    jobs = sum(s.get("jobs", 1) for s in samples)
    return "\n".join([
        "self-profile:",
        f"  jobs run            : {jobs}",
        f"  simulator wall time : {wall:.3f} s",
        f"  kernel events       : {events:,} ({rate:,.0f} events/s)",
        f"  rerate calls        : {sum(s['rerate_calls'] for s in samples):,}",
        f"  flows re-rated      : {sum(s['flows_rerated'] for s in samples):,}",
        f"  slowest job         : {slowest['n_ranks']} ranks, "
        f"{slowest['wall_time_s']:.3f} s wall for "
        f"{slowest['sim_time_s']:.4f} s simulated",
    ])
