"""Figure 9: CPMD execution time and alltoall time, 32/64 processes,
three datasets, under the three schemes."""

from repro.bench.experiments import plan_fig9


def test_fig09_cpmd(report):
    headers, rows = report(
        "fig09_cpmd_performance",
        "Fig 9 - CPMD: total and alltoall time (strong scaling)",
        plan_fig9(),
    )
    by_key = {(r[0], r[1], r[2]): r for r in rows}
    for dataset in ("cpmd.wat-32-inp-1", "cpmd.wat-32-inp-2", "cpmd.ta-inp-md"):
        t32 = by_key[(dataset, 32, "No-Power")][3]
        t64 = by_key[(dataset, 64, "No-Power")][3]
        # Strong scaling: runtime drops by ~50% from 32 to 64 processes.
        assert 0.4 < t64 / t32 < 0.65
        # Power schemes cost only a few percent (paper: 2-5%).
        for scheme in ("Freq-Scaling", "Proposed"):
            overhead = by_key[(dataset, 64, scheme)][3] / t64 - 1.0
            assert overhead < 0.08
