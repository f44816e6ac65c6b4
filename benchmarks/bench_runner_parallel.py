"""Runner benchmark: warm-worker parallel sharding + content-addressed cache.

Measures the performance claims of the sweep runner on a representative
sweep (the 12-cell fig7a alltoall power sweep):

* ``--jobs N`` shards cell batches across a *persistent* warm-worker
  pool with *bit-identical* output — asserted here by comparing the
  simulated results, and asserted to reach ``0.8 * N`` speedup for
  ``N = 4`` when the host actually has the cores (the speedup gate is
  skipped on smaller machines, where the runner clamps the job count
  and executes inline rather than paying pool overhead for a guaranteed
  slowdown).
* a warm cache turns a re-run into pure JSON reads — asserted to cost
  under 10% of the cold run unconditionally.

The measured numbers are archived to ``results/BENCH_runner.json``
(including ``cpu_count``, so review can tell a gated run from a clamped
single-core one) so a regression shows up in review, wall-clock noise
aside.
"""

import json
import os
import tempfile
import time

from repro.bench import CELL_PLANS
from repro.runner import (
    ResultCache,
    SweepStats,
    clear_memo,
    run_cells,
    shutdown_pool,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "results")
JOBS = 4


def _sim_dicts(results):
    dicts = [r.to_dict() for r in results]
    for d in dicts:
        d.pop("wall_time_s")  # host-side timing, not simulated output
    return dicts


def run_runner_benchmark():
    cells = CELL_PLANS["fig7a"]().cells
    shutdown_pool()  # measure pool start-up inside the cold-parallel run
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(os.path.join(tmp, "cache"))

        clear_memo()
        t0 = time.perf_counter()
        inline = run_cells(cells, jobs=1, cache=cache)
        cold_s = time.perf_counter() - t0

        clear_memo()
        t0 = time.perf_counter()
        warm = run_cells(cells, jobs=1, cache=cache)
        warm_s = time.perf_counter() - t0

        clear_memo()
        cold_stats = SweepStats()
        t0 = time.perf_counter()
        parallel = run_cells(cells, jobs=JOBS, cache=None, stats=cold_stats)
        parallel_s = time.perf_counter() - t0

        # Second parallel sweep reuses the now-warm pool — the
        # steady-state campaign cost.
        clear_memo()
        warm_pool_stats = SweepStats()
        t0 = time.perf_counter()
        parallel2 = run_cells(cells, jobs=JOBS, cache=None,
                              stats=warm_pool_stats)
        warm_pool_s = time.perf_counter() - t0
    shutdown_pool()

    return {
        "sweep": "fig7a",
        "cells": len(cells),
        "jobs": JOBS,
        "jobs_effective": cold_stats.jobs_effective,
        "jobs_clamped": cold_stats.jobs_clamped,
        "cpu_count": os.cpu_count(),
        "cold_inline_s": round(cold_s, 3),
        "parallel_s": round(parallel_s, 3),
        "warm_pool_parallel_s": round(warm_pool_s, 3),
        "warm_cache_s": round(warm_s, 3),
        "parallel_speedup": round(cold_s / max(parallel_s, 1e-9), 2),
        "warm_pool_speedup": round(cold_s / max(warm_pool_s, 1e-9), 2),
        "warm_fraction_of_cold": round(warm_s / max(cold_s, 1e-9), 4),
        "workers_used": cold_stats.workers_used,
        "worker_reuse_batches": warm_pool_stats.worker_reuse,
        "parallel_identical": _sim_dicts(parallel) == _sim_dicts(inline),
        "warm_pool_identical": _sim_dicts(parallel2) == _sim_dicts(inline),
        "warm_identical": _sim_dicts(warm) == _sim_dicts(inline),
    }


def _save(report):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_runner.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path


def test_runner_parallel_and_cache(capsys):
    report = run_runner_benchmark()
    _save(report)
    with capsys.disabled():
        print("\n== Runner: warm-worker sharding + warm cache ==")
        for key, value in report.items():
            print(f"  {key:>26}: {value}")

    # Determinism is unconditional: sharding, pool reuse and caching must
    # never change a single simulated byte.
    assert report["parallel_identical"]
    assert report["warm_pool_identical"]
    assert report["warm_identical"]
    # Warm cache replaces simulation with JSON reads: unconditionally
    # under 10% of the cold run (the ISSUE acceptance threshold).
    assert report["warm_fraction_of_cold"] < 0.10
    # The 0.8*N speedup gate needs physical cores; a clamped run has
    # nothing to gate (the clamp is itself the fix for the old
    # jobs-4-on-1-cpu slowdown).
    if (os.cpu_count() or 1) >= JOBS and not report["jobs_clamped"]:
        assert report["parallel_speedup"] >= 0.8 * JOBS


if __name__ == "__main__":
    report = run_runner_benchmark()
    path = _save(report)
    print(json.dumps(report, indent=2))
    print(f"archived -> {path}")
