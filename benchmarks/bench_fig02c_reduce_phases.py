"""Figure 2(c): Reduce overall time vs network-phase time, 64 processes."""

from repro.bench.experiments import plan_fig2c


def test_fig02c_reduce_phases(report):
    headers, rows = report(
        "fig02c_reduce_phases",
        "Fig 2(c) - Reduce overall vs network phase (64 procs)",
        plan_fig2c(),
    )
    # Network phase is a substantial share across the 4B-4K sweep.
    for row in rows:
        assert row[2] > 0  # network phase observed
        assert row[3] > 0.3
