"""Figure 2(a): Alltoall scalability, 32 processes, 4-way vs 8-way layout
plus the equation-(1) theoretical estimate."""

from repro.bench.experiments import plan_fig2a


def test_fig02a_alltoall_scaling(report):
    headers, rows = report(
        "fig02a_alltoall_scaling",
        "Fig 2(a) - Alltoall 32 procs: 4-way vs 8-way vs theoretical",
        plan_fig2a(),
        chart=dict(
            y_columns=[1, 2, 3],
            labels=["4-way", "8-way", "theoretical"],
            logx=True, logy=True,
            title="latency (us) vs message size",
        ),
    )
    # Reproduction assertions: 8-way must lose at large sizes (contention).
    large = rows[-1]
    assert large[2] > large[1] * 1.3
    # The theoretical curve tracks the 4-way measurement's magnitude.
    assert 0.2 < large[3] / large[1] < 5.0
