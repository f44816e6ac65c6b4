"""Warm-worker path: substrate cache, instrumented sweeps.

The tentpole claims of the one-execution-path refactor:

* the per-process substrate cache rebuilds the frozen
  (cluster, network, power) spec triple at most once per unique
  signature, however many cells share it;
* governed and faulted cells flow through ``run_cells`` with their
  configs reconstructed in-worker, and ``jobs=4``, ``jobs=1`` and a
  warm-cache rerun produce byte-identical results *including* the
  GovernorReport/FaultReport payloads and captured metrics.
"""

import json

import pytest

from repro.bench import instrument_cells, run_plan
from repro.bench.experiments import (
    plan_ext_faults,
    plan_ext_governor_alltoall,
    plan_fig2c,
)
from repro.cluster.specs import ClusterSpec
from repro.runner import (
    ResultCache,
    SUBSTRATE_COUNTERS,
    SweepCell,
    SweepStats,
    clear_memo,
    clear_substrate_cache,
    run_cells,
    shutdown_pool,
)


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_memo()
    clear_substrate_cache()
    yield
    clear_memo()
    clear_substrate_cache()
    shutdown_pool()


def _collective(nbytes, n_ranks=16, cluster=None, **extra):
    params = {"op": "alltoall", "nbytes": nbytes, "n_ranks": n_ranks}
    if cluster is not None:
        params["cluster"] = cluster.to_dict()
    params.update(extra)
    return SweepCell("warm-test", "collective", params,
                     label=f"alltoall/{nbytes}")


def _dicts(results):
    out = []
    for r in results:
        d = r.to_dict()
        d.pop("wall_time_s")  # host-side noise, not simulated content
        out.append(d)
    return out


# -- substrate cache --------------------------------------------------
def test_substrate_rebuilt_once_per_unique_signature():
    small = ClusterSpec.with_shape(nodes=2, sockets=2, cores_per_socket=4)
    cells = [
        _collective(1 << 10),                  # default testbed
        _collective(2 << 10),                  # same signature
        _collective(1 << 10, cluster=small),   # second signature
        _collective(2 << 10, cluster=small),   # same again
        _collective(4 << 10),                  # first signature again
    ]
    run_cells(cells, jobs=1)
    assert SUBSTRATE_COUNTERS["misses"] == 2   # one rebuild per signature
    assert SUBSTRATE_COUNTERS["hits"] == 3
    assert SUBSTRATE_COUNTERS["rebuild_s"] >= 0.0


def test_substrate_counters_reach_stats():
    stats = SweepStats()
    run_cells([_collective(1 << 10), _collective(2 << 10)], jobs=1,
              stats=stats)
    assert stats.substrate_misses == 1
    assert stats.substrate_hits == 1


# -- instrumented cells through every layer ---------------------------
def _governed_faulted_cells():
    from repro.faults import parse_fault_spec
    from repro.runtime import GovernorConfig, GovernorPolicy

    governor = GovernorConfig(policy=GovernorPolicy("countdown")).to_dict()
    faults = parse_fault_spec(
        "degrade:factor=0.6,frac=0.25;noise:period=500us,pulse=20us,frac=0.25",
        seed=7,
    ).to_dict()
    bare = [_collective(n, compute_s=200e-6) for n in (1 << 10, 4 << 10)]
    cells, gov_idx, fault_idx, _ = instrument_cells(bare, governor, faults)
    assert gov_idx == (0, 1) and fault_idx == (0, 1)
    return cells


def test_instrumented_cells_jobs4_and_warm_cache_identical(tmp_path,
                                                           monkeypatch):
    from repro.obs import CaptureConfig
    from repro.obs.metrics import MetricsRegistry
    from repro.runner import pool

    monkeypatch.setattr(pool, "_available_cpus", lambda: 4)
    cache = ResultCache(tmp_path)
    cells = _governed_faulted_cells()
    capture = CaptureConfig(metrics=True)

    def merged_metrics(results):
        registry = MetricsRegistry()
        for r in results:
            registry.merge_snapshot(r.metrics["metrics"])
        return json.dumps(registry.snapshot(), sort_keys=True)

    def sweep(jobs):
        clear_memo()
        results = run_cells(cells, jobs=jobs, cache=cache, capture=capture)
        return _dicts(results), merged_metrics(results)

    inline, inline_metrics = sweep(1)
    stats = SweepStats()
    clear_memo()
    parallel = run_cells(cells, jobs=4, cache=cache, stats=stats,
                         capture=capture)
    parallel_metrics = merged_metrics(parallel)
    warm, warm_metrics = sweep(1)

    # Reports travelled: every instrumented result carries both payloads.
    for r in inline:
        assert r["governor"] is not None and r["governor"]["drops"] >= 0
        assert r["faults"] is not None and r["faults"]["seed"] == 7
    assert _dicts(parallel) == inline
    assert warm == inline
    assert parallel_metrics == inline_metrics
    assert warm_metrics == inline_metrics


def test_run_plan_overlay_collects_reports_and_replays_from_cache(tmp_path):
    """CLI semantics: run_plan(governor=..., faults=...) overlays plan
    cells, returns their report dicts, and a warm-cache rerun returns
    the identical reports without executing anything."""
    from repro.faults import parse_fault_spec
    from repro.runtime import GovernorConfig, GovernorPolicy

    governor = GovernorConfig(policy=GovernorPolicy("countdown")).to_dict()
    faults = parse_fault_spec("degrade:factor=0.5,frac=0.5", seed=3).to_dict()
    cache = ResultCache(tmp_path)

    def sweep():
        clear_memo()
        stats = SweepStats()
        (headers, rows, _), reports = run_plan(
            plan_fig2c(sizes=(4, 64)), jobs=1, cache=cache, stats=stats,
            governor=governor, faults=faults,
        )
        return reports, stats, json.dumps([headers, [list(r) for r in rows]],
                                          sort_keys=True)

    cold_reports, cold_stats, cold_series = sweep()
    warm_reports, warm_stats, warm_series = sweep()

    assert cold_stats.unique_executed == 2
    assert warm_stats.cache_hits == 2 and warm_stats.executed == 0
    assert warm_series == cold_series
    assert len(cold_reports["governor"]) == 2
    assert len(cold_reports["faults"]) == 2
    assert warm_reports["governor"] == cold_reports["governor"]
    assert warm_reports["faults"] == cold_reports["faults"]
    assert all(r["seed"] == 3 for r in cold_reports["faults"])


def test_plan_declared_configs_win_over_overlay():
    """ext-governor/ext-faults pin per-cell configs; a CLI overlay must
    not clobber them (it only fills cells that carry none)."""
    from repro.runtime import GovernorConfig, GovernorPolicy

    # A theta no plan cell uses, so the overlay is distinguishable from
    # the plan's own policy grid.
    overlay = GovernorConfig(policy=GovernorPolicy("predictive"),
                             theta_s=123e-6).to_dict()
    plan = plan_ext_governor_alltoall(sizes=(64 << 10,), iterations=1,
                                     n_ranks=16)
    cells, gov_idx, _, _ = instrument_cells(plan.cells, overlay, None)
    for i, cell in enumerate(cells):
        if i in gov_idx:
            assert cell.params["governor"] == overlay
        else:
            assert cell.params["governor"] != overlay


def test_ext_plans_execute_via_runner_with_in_worker_reconstruction():
    """Every instrumented ext plan runs through run_cells and its results
    carry the in-worker-reconstructed reports."""
    plan = plan_ext_faults(sizes=(64 << 10,), iterations=1, n_ranks=16)
    stats = SweepStats()
    results = run_cells(plan.cells, jobs=1, stats=stats)
    assert stats.unique_executed == len(plan.cells)
    faulted = [r for r in results if r.faults is not None]
    governed = [r for r in results if r.governor is not None]
    assert faulted and governed  # the mild column + the governed schemes
    headers, rows, _ = plan.assemble(results)
    assert len(rows) == len(plan.cells)
