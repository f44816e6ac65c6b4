"""Figure 2(b): Bcast overall time vs network-phase time, 64 processes."""

from repro.bench.experiments import plan_fig2b


def test_fig02b_bcast_phases(report):
    headers, rows = report(
        "fig02b_bcast_phases",
        "Fig 2(b) - Bcast overall vs network phase (64 procs)",
        plan_fig2b(),
    )
    # The network phase dominates at large sizes (the paper's observation).
    for row in rows[-2:]:
        assert row[3] > 0.5
