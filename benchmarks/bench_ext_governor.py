"""Extension: the online slack-driven governor (repro.runtime) vs the
paper's static power schemes.

Three surfaces: OSU-style alltoall sweeps, the mixed workload used by the
ADAPTIVE comparison, and the CPMD/NAS application traces (the acceptance
surface of ISSUE 2).  Set ``REPRO_BENCH_QUICK=1`` for the reduced sweep
used by the CI smoke job — quick runs archive under ``*_quick`` names, so
they never compare against the full-sweep baselines.
"""

import os

from repro.bench.experiments import (
    plan_ext_governor_alltoall,
    plan_ext_governor_apps,
    plan_ext_governor_mixed,
)

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
SUFFIX = "_quick" if QUICK else ""


def test_ext_governor_alltoall(report, sweep_stats):
    sizes = (256 << 10,) if QUICK else (64 << 10, 256 << 10, 1 << 20)
    headers, rows = report(
        f"ext_governor_alltoall{SUFFIX}",
        "Extension - online governor vs static schemes (OSU alltoall)",
        plan_ext_governor_alltoall(sizes=sizes, iterations=2 if QUICK else 3),
        stats=sweep_stats,
    )
    for size in {r[0] for r in rows}:
        by_scheme = {r[1]: r for r in rows if r[0] == size}
        no_power = by_scheme["No-Power"]
        countdown = by_scheme["Countdown"]
        # Countdown throttles T-states only: latency hugs the baseline...
        assert countdown[2] <= no_power[2] * 1.02
        # ...while actually engaging and saving wait energy.
        assert countdown[4] > 0
        assert countdown[3] < no_power[3]


def test_ext_governor_mixed(report, sweep_stats):
    sizes = (64 << 10, 256 << 10) if QUICK else (16 << 10, 64 << 10, 256 << 10, 1 << 20)
    headers, rows = report(
        f"ext_governor_mixed{SUFFIX}",
        "Extension - governor vs ADAPTIVE (mixed-size workload)",
        plan_ext_governor_mixed(sizes=sizes),
        stats=sweep_stats,
    )
    by_scheme = {r[0]: r for r in rows}
    # ISSUE acceptance: predictive matches or beats the static ADAPTIVE
    # scheme without any per-algorithm schedule.
    assert by_scheme["Predictive"][2] <= by_scheme["Adaptive"][2] * 1.01
    # Countdown saves energy over the no-power baseline at a bounded
    # slowdown on this communication-dominated loop.
    assert by_scheme["Countdown"][2] < by_scheme["No-Power"][2]
    assert by_scheme["Countdown"][1] <= by_scheme["No-Power"][1] * 1.02


def test_ext_governor_apps(report, sweep_stats):
    headers, rows = report(
        f"ext_governor_apps{SUFFIX}",
        "Extension - governor on application traces (CPMD / NAS)",
        plan_ext_governor_apps(include_nas=not QUICK),
        stats=sweep_stats,
    )
    for app in {r[0] for r in rows}:
        by_scheme = {r[1]: r for r in rows if r[0] == app}
        best_static_energy = min(
            by_scheme["No-Power"][4],
            by_scheme["Freq-Scaling"][4],
            by_scheme["Proposed"][4],
        )
        countdown = by_scheme["Countdown"]
        no_power = by_scheme["No-Power"]
        # ISSUE acceptance: countdown within 1.05x of the best static
        # energy at <= 2% added communication latency.
        assert countdown[4] <= best_static_energy * 1.05
        assert countdown[3] <= no_power[3] * 1.02
        # Predictive pre-scaling beats every static scheme outright.
        assert by_scheme["Predictive"][4] < best_static_energy
