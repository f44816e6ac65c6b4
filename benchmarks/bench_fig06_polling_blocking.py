"""Figure 6: polling vs blocking message progression, 64-process alltoall
— (a) latency sweep, (b) sampled power timeline."""

from repro.bench.experiments import plan_fig6a, plan_fig6b


def test_fig06a_latency(report):
    headers, rows = report(
        "fig06a_polling_blocking_latency",
        "Fig 6(a) - Alltoall 64 procs: polling vs blocking latency",
        plan_fig6a(),
        chart=dict(
            y_columns=[1, 2],
            labels=["Polling", "Blocking"],
            logx=True, logy=True,
            title="latency (us) vs message size",
        ),
    )
    # Blocking is substantially slower at every size, ~2x at the largest.
    for row in rows:
        assert row[2] > row[1]
    assert rows[-1][3] > 1.5


def test_fig06b_power(report):
    headers, rows = report(
        "fig06b_polling_blocking_power",
        "Fig 6(b) - Alltoall 64 procs: polling vs blocking power",
        plan_fig6b(),
    )
    assert rows, "power timeline must contain samples"
    # Blocking draws less power than polling at each sample (cores sleep).
    for row in rows:
        assert row[2] < row[1]
    # Polling sits near the 2.3 kW operating point.
    assert 2.1 < rows[0][1] < 2.4
