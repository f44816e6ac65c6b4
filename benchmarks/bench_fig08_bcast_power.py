"""Figure 8: MPI_Bcast under No-Power / Freq-Scaling / Proposed,
64 processes — (a) latency sweep, (b) sampled power timeline."""

from repro.bench.experiments import plan_fig8a, plan_fig8b


def test_fig08a_latency(report):
    headers, rows = report(
        "fig08a_bcast_latency",
        "Fig 8(a) - Bcast 64 procs: latency under the three schemes",
        plan_fig8a(),
        chart=dict(
            y_columns=[1, 2, 3],
            labels=["No-Power", "Freq-Scaling", "Proposed"],
            logx=True, logy=True,
            title="latency (us) vs message size",
        ),
    )
    large = rows[-1]
    # Paper: ~15% overhead at 1MB, power variants nearly identical.
    assert large[4] < 0.20
    assert abs(large[3] - large[2]) / large[2] < 0.10


def test_fig08b_power(report):
    headers, rows = report(
        "fig08b_bcast_power",
        "Fig 8(b) - Bcast 64 procs: power under the three schemes",
        plan_fig8b(),
    )
    mid = rows[len(rows) // 2]
    assert mid[1] > mid[2] > mid[3]
    assert 2.2 < mid[1] < 2.4
