"""Ablation (paper §VI-A2): sensitivity of the proposed alltoall to the
DVFS / T-state transition cost (2·Odvfs + N·Othrottle overhead term)."""

from repro.bench.experiments import plan_ablation_overheads


def test_ablation_overheads(report):
    headers, rows = report(
        "ablation_overheads",
        "Ablation - proposed alltoall vs transition overhead",
        plan_ablation_overheads(),
    )
    latencies = [row[1] for row in rows]
    # Latency grows monotonically with the transition cost...
    assert all(a <= b + 1e-9 for a, b in zip(latencies, latencies[1:]))
    # ...and Nehalem-class 12us transitions cost <2% vs free transitions.
    assert latencies[1] / latencies[0] < 1.02
