"""Figure 7: MPI_Alltoall under No-Power / Freq-Scaling / Proposed,
64 processes — (a) latency sweep, (b) sampled power timeline."""

from repro.bench.experiments import plan_fig7a, plan_fig7b


def test_fig07a_latency(report):
    headers, rows = report(
        "fig07a_alltoall_latency",
        "Fig 7(a) - Alltoall 64 procs: latency under the three schemes",
        plan_fig7a(),
        chart=dict(
            y_columns=[1, 2, 3],
            labels=["No-Power", "Freq-Scaling", "Proposed"],
            logx=True, logy=True,
            title="latency (us) vs message size",
        ),
    )
    large = rows[-1]
    # Power-aware overhead stays bounded (paper: ~10%).
    assert large[4] < 0.20
    # Proposed tracks Freq-Scaling closely ("very little difference").
    assert abs(large[3] - large[2]) / large[2] < 0.10


def test_fig07b_power(report):
    headers, rows = report(
        "fig07b_alltoall_power",
        "Fig 7(b) - Alltoall 64 procs: power under the three schemes",
        plan_fig7b(),
        chart=dict(
            y_columns=[1, 2, 3],
            labels=["No-Power", "Freq-Scaling", "Proposed"],
            title="system power (kW) vs time (s)",
        ),
    )
    # Steady-state samples reproduce the 2.3 / 1.8 / 1.6 kW levels.
    mid = rows[len(rows) // 2]
    assert 2.2 < mid[1] < 2.4
    assert 1.7 < mid[2] < 1.9
    assert 1.5 < mid[3] < 1.75
