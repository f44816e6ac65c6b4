"""SelfProfile folds per-job samples into the --profile summary."""

import pytest

from repro.bench.profile import JobSample, SelfProfile


def _sample(**over):
    base = dict(n_ranks=4, sim_time_s=1.0, wall_time_s=0.5,
                events_processed=100, rerate_calls=2, flows_rerated=8)
    base.update(over)
    return JobSample(**base)


def test_add_sample_feeds_aggregates():
    prof = SelfProfile()
    prof.add_sample(_sample(wall_time_s=1.0, events_processed=10))
    prof.add_sample(_sample(wall_time_s=3.0, events_processed=30))
    assert prof.total_wall_s == pytest.approx(4.0)
    assert prof.total_events == 40
    assert "jobs run            : 2" in prof.report()


def test_report_without_samples():
    assert "no jobs" in SelfProfile().report()
