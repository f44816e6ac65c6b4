"""Ablation: proposed-alltoall behaviour across cluster sizes (eq. 3's
linear-in-N overhead, size-independent power saving)."""

from repro.bench.experiments import plan_ablation_scaling


def test_ablation_cluster_scaling(report):
    headers, rows = report(
        "ablation_cluster_scaling",
        "Ablation - proposed alltoall vs cluster size (256KB)",
        plan_ablation_scaling(),
    )
    savings = [row[5] for row in rows]
    # Power saving is roughly size-independent (within a few points).
    assert max(savings) - min(savings) < 0.08
    for s in savings:
        assert 0.20 < s < 0.40
    # Overhead stays bounded while the machine quadruples.
    for row in rows:
        assert row[4] < 0.30
