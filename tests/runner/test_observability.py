"""Observability through the runner: --jobs N == --jobs 1, cache round-trip.

The regression this file pins down: --trace/--profile/--metrics output
used to be silently lost under ``--jobs N`` (module globals do not
propagate into pool workers).  The runner now captures each cell's
payload where it runs and hands payloads back on the results, and
``run_plan`` returns those of its unique cells in input order, so the
observed stream is a function of the input cell sequence alone.
"""

import json

import pytest

from repro.bench import SweepPlan, run_plan
from repro.obs import CaptureConfig, MetricsRegistry
from repro.runner import ResultCache, SweepCell, cache_key, clear_memo, execute_cell, run_cells
from repro.sim.trace import RecordingTracer, use_tracer


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _cells():
    mk = lambda nbytes: SweepCell(
        experiment="obs-test", kind="collective",
        params={"op": "alltoall", "nbytes": nbytes, "n_ranks": 8,
                "mode": "none"},
        label=f"a2a/{nbytes}",
    )
    # Includes a duplicate cell: its payload must come back exactly once.
    return [mk(4096), mk(8192), mk(4096)]


def _observe(jobs, cache=None):
    capture = CaptureConfig(trace=True, metrics=True, profile=True)
    _, reports = run_plan(SweepPlan(_cells(), lambda results: None),
                          jobs=jobs, cache=cache, capture=capture)
    payloads = reports["captured"]
    records = [
        (rec["t"], rec["type"], json.dumps(
            {k: v for k, v in rec.items() if k not in ("t", "type")},
            sort_keys=True))
        for payload in payloads for rec in payload["records"]
    ]
    registry = MetricsRegistry()
    for payload in payloads:
        registry.merge_snapshot(payload["metrics"])
    snapshot = json.dumps(registry.snapshot(), sort_keys=True)
    samples = [(s["n_ranks"], s["sim_time_s"], s["events_processed"])
               for payload in payloads for s in payload["profile"]]
    return records, snapshot, samples


def test_jobs4_records_match_jobs1():
    records1, snap1, samples1 = _observe(jobs=1)
    clear_memo()
    records4, snap4, samples4 = _observe(jobs=4)
    assert records1, "the traced sweep must produce records"
    assert records4 == records1          # same records, same order
    assert snap4 == snap1                # metrics byte-identical
    assert samples4 == samples1          # profile sees the same jobs


def test_warm_cache_replays_identically(tmp_path):
    cache = ResultCache(tmp_path)
    records_cold, snap_cold, samples_cold = _observe(jobs=2, cache=cache)
    clear_memo()
    records_warm, snap_warm, samples_warm = _observe(jobs=2, cache=cache)
    assert cache.hits > 0, "second sweep must be served from disk"
    assert records_warm == records_cold
    assert snap_warm == snap_cold
    # Profile samples come back too; wall_time_s reflects the original
    # execution, but the simulated fields are identical.
    assert samples_warm == samples_cold


def test_execute_cell_seals_payload():
    cell = _cells()[0]
    result = execute_cell(cell, CaptureConfig(trace=True, metrics=True))
    assert result.metrics is not None
    assert result.metrics["records"]
    assert result.metrics["metrics"]["counters"]["net.flows_started"] > 0
    # And the payload survives the CellResult dict round-trip (= cache).
    from repro.runner import CellResult

    clone = CellResult.from_dict(
        json.loads(json.dumps(result.to_dict()))
    )
    assert clone.metrics == result.metrics


def test_uncaptured_execution_attaches_no_payload():
    result = execute_cell(_cells()[0])
    assert result.metrics is None


def test_capture_changes_cache_key_only_when_on():
    cell = _cells()[0]
    assert cache_key(cell) == cache_key(cell, CaptureConfig())
    captured = cache_key(cell, CaptureConfig(trace=True))
    assert captured != cache_key(cell)
    assert captured != cache_key(cell, CaptureConfig(metrics=True))


def test_runner_without_scopes_captures_nothing():
    results = run_cells(_cells(), jobs=1)
    assert all(r.metrics is None for r in results)


def test_telemetry_leaves_cells_only_through_capture():
    """An ambient tracer sees nothing of the cells run_cells executes;
    only an explicit capture brings records back, on the results."""
    tracer = RecordingTracer()
    with use_tracer(tracer):
        results = run_cells(_cells(), jobs=1)
    assert len(tracer) == 0
    assert all(r.metrics is None for r in results)

    clear_memo()
    with use_tracer(tracer):
        results = run_cells(_cells(), jobs=1,
                            capture=CaptureConfig(trace=True))
    assert len(tracer) == 0
    assert all(r.metrics["records"] for r in results)
    assert all(r.metrics["metrics"] is None for r in results)


def test_simulated_outputs_unchanged_by_capture():
    plain = run_cells(_cells(), jobs=1)
    clear_memo()
    observed = run_cells(_cells(), jobs=1, capture=CaptureConfig(trace=True))
    for p, o in zip(plain, observed):
        assert p.duration_s == o.duration_s
        assert p.energy_j == o.energy_j
