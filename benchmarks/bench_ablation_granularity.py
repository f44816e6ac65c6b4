"""Ablation (paper §V-B discussion): socket-granular throttling (the
Nehalem testbed) vs core-granular (future architectures)."""

from repro.bench.experiments import plan_ablation_granularity


def test_ablation_granularity(report):
    headers, rows = report(
        "ablation_granularity",
        "Ablation - throttle granularity under the Proposed schemes",
        plan_ablation_granularity(),
    )
    by_key = {(r[0], r[1]): r for r in rows}
    for op in ("bcast", "alltoall"):
        sock = by_key[(op, "socket")]
        core = by_key[(op, "core")]
        # Core granularity saves at least as much power...
        assert core[3] <= sock[3] + 1e-6
        # ...without costing performance.
        assert core[2] <= sock[2] * 1.05
