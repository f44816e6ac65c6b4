"""Extension: per-call ADAPTIVE power policy vs the paper's static
schemes on a mixed-size alltoall workload.

Set ``REPRO_BENCH_QUICK=1`` for the reduced sweep used by the CI smoke
job (archived under a ``_quick`` name, so no baseline comparison).
"""

import os

from repro.bench.experiments import plan_ext_adaptive

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))


def test_extension_adaptive_policy(report):
    kwargs = {"sizes": (256 << 10, 1 << 20)} if QUICK else {}
    headers, rows = report(
        "ext_adaptive_policy" + ("_quick" if QUICK else ""),
        "Extension - adaptive per-call policy (mixed-size alltoalls)",
        plan_ext_adaptive(**kwargs),
    )
    by_scheme = {r[0]: r for r in rows}
    # Adaptive lands at (or below) the best static energy.
    best_static = min(
        by_scheme["No-Power"][2],
        by_scheme["Freq-Scaling"][2],
        by_scheme["Proposed"][2],
    )
    assert by_scheme["Adaptive"][2] <= best_static * 1.02
    # And it throttles only for the calls that deserve it.
    assert 0 < by_scheme["Adaptive"][3] <= by_scheme["Proposed"][3]
