"""Figure 10: NAS FT and IS (class C) execution and alltoall time."""

from repro.bench.experiments import plan_fig10


def test_fig10_nas(report):
    headers, rows = report(
        "fig10_nas_performance",
        "Fig 10 - NAS FT/IS class C: total and alltoall time",
        plan_fig10(),
    )
    by_key = {(r[0], r[1], r[2]): r for r in rows}
    for kernel in ("nas-ft.C", "nas-is.C"):
        t32 = by_key[(kernel, 32, "No-Power")][3]
        t64 = by_key[(kernel, 64, "No-Power")][3]
        assert 0.4 < t64 / t32 < 0.65  # strong scaling
        for scheme in ("Freq-Scaling", "Proposed"):
            assert by_key[(kernel, 64, scheme)][3] / t64 - 1.0 < 0.15
