"""Extension: the cluster power-budget arbiter on co-scheduled jobs.

Two surfaces, riding the same two-job scenario (``plan_ext_arbiter``):
a communication-bound alltoall job on the first half of the nodes and a
compute-bound job on the second half, run uncapped and under one global
cap with the ``uniform`` and ``redistribute`` policies.

* **Policy table** (``ext_arbiter`` report): at the same global cap the
  redistribute policy must beat the uniform split on makespan — the
  comm job's MPI slack funds a higher P-state for the compute job's
  nodes — while the uniform cap costs time against the uncapped run.
* **Attribution + determinism gate** (``results/BENCH_arbiter.json``):
  per-job attributed energy plus the residual (idle nodes + shared
  base power outside any job's window) must sum exactly to the
  accountant total, and a re-run of the same cell must be
  byte-identical.  ``check_kernel_scaling.py --arbiter-json`` enforces
  this file in CI.

Set ``REPRO_BENCH_QUICK=1`` for the reduced 8-node scenario used by the
CI smoke job — quick runs archive under ``*_quick`` names, so they
never compare against the full-sweep baselines.
"""

import json
import os

from repro.bench.experiments import ARBITER_CAP_PER_NODE_W, plan_ext_arbiter
from repro.runner import execute_cell

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
SUFFIX = "_quick" if QUICK else ""
#: Full run is the acceptance scenario (two jobs across 64 nodes);
#: quick keeps the same shape on 8 nodes for the CI smoke job.  The
#: alltoall's cost grows with the rank count, so the 64-node scenario
#: scales the compute phase up to keep job B the makespan-setter —
#: the regime where donated headroom pays (a comm-bound makespan
#: *wants* its own nodes fast; see the plan docstring).
SCENARIO = (
    {"n_nodes": 8}
    if QUICK
    else {"n_nodes": 64, "compute_s": 60e-3}
)
N_NODES = SCENARIO["n_nodes"]

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "results")


def test_ext_arbiter_policies(report, sweep_stats):
    headers, rows = report(
        f"ext_arbiter{SUFFIX}",
        "Extension - cluster power-budget arbiter (two co-scheduled jobs)",
        plan_ext_arbiter(**SCENARIO),
        stats=sweep_stats,
    )
    by_scheme = {r[0]: r for r in rows}
    no_cap = by_scheme["no-cap"]
    uniform = by_scheme["uniform"]
    redistribute = by_scheme["redistribute"]
    # The cap binds: the uniform split clamps the compute nodes below
    # fmax, so capping costs makespan against the uncapped run.
    assert uniform[1] > no_cap[1]
    # ISSUE acceptance: at the same global cap, redistribution beats the
    # uniform split on makespan (slack donors fund the critical job).
    assert redistribute[1] < uniform[1]
    # The win comes from actual budget movement, not a different cap.
    assert redistribute[5] > 0.0
    assert no_cap[5] == 0.0 and uniform[5] == 0.0


def _strip_wall(result) -> dict:
    d = result.to_dict()
    d.pop("wall_time_s", None)
    return d


def test_ext_arbiter_attribution_and_determinism(capsys):
    """Per-job energy attribution is exact and cells re-run
    byte-identically; writes the ``results/BENCH_arbiter.json`` gate."""
    plan = plan_ext_arbiter(**SCENARIO)
    results = [execute_cell(cell) for cell in plan.cells]
    schemes = ("no-cap", "uniform", "redistribute")

    cells_json = {}
    attribution_exact = True
    for name, r in zip(schemes, results):
        jobs = r.extra["jobs"]
        residual = r.extra["residual_energy_j"]
        attributed = sum(job["energy_j"] for job in jobs)
        # Residual is defined by subtraction, so the books must balance
        # to the last bit.
        exact = attributed + residual == r.energy_j
        attribution_exact = attribution_exact and exact
        arb = r.arbiter or {}
        cells_json[name] = {
            "makespan_s": r.duration_s,
            "energy_j": r.energy_j,
            "attributed_j": attributed,
            "residual_j": residual,
            "attribution_exact": exact,
            "job_durations_s": [job["duration_s"] for job in jobs],
            "job_energies_j": [job["energy_j"] for job in jobs],
            "donated_j": arb.get("donated_j", 0.0),
            "rebalances": arb.get("rebalances", 0),
            "freq_changes": arb.get("freq_changes", 0),
        }

    # Determinism: re-executing the redistribute cell (the one with the
    # most moving parts — timers, donations, per-node budgets) must
    # reproduce the first result byte for byte.
    rerun = execute_cell(plan.cells[2])
    identical = json.dumps(_strip_wall(results[2]), sort_keys=True) == \
        json.dumps(_strip_wall(rerun), sort_keys=True)

    report = {
        "scenario": {
            "n_nodes": N_NODES,
            "n_jobs": 2,
            "power_cap_w": ARBITER_CAP_PER_NODE_W * N_NODES,
            "cap_per_node_w": ARBITER_CAP_PER_NODE_W,
            "quick": QUICK,
        },
        "cells": cells_json,
        "uniform_makespan_s": cells_json["uniform"]["makespan_s"],
        "redistribute_makespan_s": cells_json["redistribute"]["makespan_s"],
        "makespan_speedup": (
            cells_json["uniform"]["makespan_s"]
            / max(cells_json["redistribute"]["makespan_s"], 1e-12)
        ),
        "donated_j": cells_json["redistribute"]["donated_j"],
        "attribution_exact": attribution_exact,
        "identical": identical,
    }
    path = os.path.join(
        os.path.abspath(RESULTS_DIR), "BENCH_arbiter.json"
    )
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with capsys.disabled():
        print(
            f"\n  uniform {report['uniform_makespan_s'] * 1e3:.3f} ms vs "
            f"redistribute {report['redistribute_makespan_s'] * 1e3:.3f} ms "
            f"({report['makespan_speedup']:.2f}x) at "
            f"{report['scenario']['power_cap_w']:.0f} W global cap",
            flush=True,
        )
        print(f"  wrote {os.path.relpath(path)}", flush=True)

    assert attribution_exact, cells_json
    assert identical
    assert report["makespan_speedup"] > 1.0, report
