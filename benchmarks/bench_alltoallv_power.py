"""§VII-D: MPI_Alltoallv under the three schemes (the paper reports it
mirrors the Alltoall results; full data in its tech report [26])."""

from repro.bench.experiments import plan_alltoallv


def test_alltoallv_power(report):
    headers, rows = report(
        "alltoallv_power",
        "Alltoallv 64 procs: latency under the three schemes (§VII-D)",
        plan_alltoallv(),
    )
    large = rows[-1]
    # Same shape as Fig 7(a): bounded overhead, proposed ≈ freq-scaling.
    assert large[4] < 0.20
    assert abs(large[3] - large[2]) / large[2] < 0.10
    assert large[1] < large[2] < large[3]
