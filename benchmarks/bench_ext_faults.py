"""Extension: governor policies under deterministic fault injection.

The ISSUE-3 acceptance surface: on a mildly perturbed machine (degraded
NICs on a quarter of the nodes + OS noise on a quarter of the cores,
fixed seed) the countdown policy must keep its envelope — latency within
2% of the *equally perturbed* No-Power baseline while still saving
energy — and the whole sweep must be bit-reproducible run over run.

Set ``REPRO_BENCH_QUICK=1`` for the reduced sweep used by the CI
fault-smoke step; quick runs archive under ``*_quick`` names so they
never compare against full-sweep baselines.
"""

import os

from repro.bench import run_plan
from repro.bench.experiments import plan_ext_faults

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
SUFFIX = "_quick" if QUICK else ""


def test_ext_faults_governor(report, sweep_stats):
    sizes = (256 << 10,) if QUICK else (256 << 10, 1 << 20)
    headers, rows = report(
        f"ext_faults_governor{SUFFIX}",
        "Extension - governor policies under fault injection",
        plan_ext_faults(sizes=sizes, iterations=2 if QUICK else 3),
        stats=sweep_stats,
    )
    for size in {r[0] for r in rows}:
        by = {(r[1], r[2]): r for r in rows if r[0] == size}
        for fault in ("quiet", "mild"):
            no_power = by[(fault, "No-Power")]
            countdown = by[(fault, "Countdown")]
            # The acceptance envelope survives mild perturbation: latency
            # hugs the equally-faulted baseline.  The strict 2% bound is
            # the ISSUE claim *under noise*; quiet gets 3% because at
            # these sizes the unperturbed waits are short enough that
            # transition charges are a slightly larger relative cost.
            bound = 1.02 if fault == "mild" else 1.03
            assert countdown[3] <= no_power[3] * bound
            # ...while the throttled waits still save energy.
            assert countdown[4] < no_power[4]
            assert countdown[5] > 0
            # Predictive pre-scaling keeps beating countdown on energy
            # even when the machine misbehaves.
            assert by[(fault, "Predictive")][4] < countdown[4]
        # Faults genuinely perturb: the mild baseline is measurably slower
        # and hungrier than the quiet one.
        assert by[("mild", "No-Power")][3] > by[("quiet", "No-Power")][3] * 1.1
        assert by[("mild", "No-Power")][4] > by[("quiet", "No-Power")][4]


def test_ext_faults_determinism(sweep_stats):
    """Two identical sweeps under the same seed are byte-for-byte equal
    (every float in every row — events, energy, drops)."""
    kwargs = dict(sizes=(64 << 10,), iterations=1 if QUICK else 2, seed=11)
    (_, rows_a, _), _ = run_plan(plan_ext_faults(**kwargs), stats=sweep_stats)
    (_, rows_b, _), _ = run_plan(plan_ext_faults(**kwargs), stats=sweep_stats)
    assert rows_a == rows_b
