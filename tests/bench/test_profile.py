"""profile_report folds per-run samples into the --profile summary."""

from repro.bench import CELL_PLANS
from repro.bench.profile import profile_report
from repro.obs import CaptureConfig
from repro.runner import execute_cell


def _sample(**over):
    base = dict(n_ranks=4, sim_time_s=1.0, wall_time_s=0.5,
                events_processed=100, rerate_calls=2, flows_rerated=8)
    base.update(over)
    return base


def test_add_sample_feeds_aggregates():
    report = profile_report([_sample(wall_time_s=1.0, events_processed=10),
                             _sample(wall_time_s=3.0, events_processed=30)])
    lines = report.splitlines()
    assert "  simulator wall time : 4.000 s" in lines
    assert "  kernel events       : 40 (10 events/s)" in lines
    assert "  jobs run            : 2" in lines
    assert "  slowest job         : 4 ranks, 3.000 s wall for 1.0000 s " \
        "simulated" in lines


def test_report_without_samples():
    assert "no jobs" in profile_report([])


def test_shared_session_counted_once():
    """Two jobs sharing one session count its events, re-rates and wall
    time once, in one sample, and still count as two jobs."""
    (cell,) = [c for c in CELL_PLANS["ext-arbiter"]().cells
               if c.label == "multijob/no-cap"]
    samples = execute_cell(cell, CaptureConfig(profile=True)).metrics["profile"]
    assert [(s["jobs"], s["n_ranks"], s["events_processed"],
             s["rerate_calls"], s["flows_rerated"]) for s in samples] == [
        (2, 128, 75616, 1152, 9216),
    ]
    lines = profile_report(samples).splitlines()
    assert "  jobs run            : 2" in lines
    assert "  rerate calls        : 1,152" in lines
    assert "  flows re-rated      : 9,216" in lines
    assert any(ln.startswith("  kernel events       : 75,616 (") for ln in lines)
