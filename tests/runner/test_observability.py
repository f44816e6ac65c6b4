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
    """Only an explicit capture brings records back, on the results."""
    results = run_cells(_cells(), jobs=1,
                        capture=CaptureConfig(trace=True))
    assert all(r.metrics["records"] for r in results)
    assert all(r.metrics["metrics"] is None for r in results)


def test_simulated_outputs_unchanged_by_capture():
    plain = run_cells(_cells(), jobs=1)
    clear_memo()
    observed = run_cells(_cells(), jobs=1, capture=CaptureConfig(trace=True))
    for p, o in zip(plain, observed):
        assert p.duration_s == o.duration_s
        assert p.energy_j == o.energy_j


#: The captured payload of a countdown-governed nas-ft app cell at 32
#: ranks under the mild fault plan (seed 7): the sha256 of its records
#: written as the JSONL ``--trace`` file, the sha256 of its metrics
#: snapshot written as the ``--metrics`` file, and its profile sample
#: without the host wall time.
PINNED_APP_RECORDS_SHA256 = (
    "be930d5f996ef41908c080d9fa9f6de90c9d4625ffd1e8ad1ad2090d0908f382"
)
PINNED_APP_METRICS_SHA256 = (
    "1fc20fba225c993e48096b6e32391373df2ee0c4aaceb7be3396f2377c37f02f"
)
PINNED_APP_PROFILE = [{
    "n_ranks": 32,
    "sim_time_s": 3.328497075409929,
    "events_processed": 44250,
    "rerate_calls": 3264,
    "flows_rerated": 16598,
}]


def test_app_cell_capture_pinned():
    """An app cell's session carries the capture like every other kind:
    its trace, metrics and profile payload are pinned byte for byte."""
    import hashlib

    from repro.faults import parse_fault_spec
    from repro.runtime import GovernorConfig, GovernorPolicy

    faults = parse_fault_spec(
        "degrade:factor=0.6,frac=0.25;noise:period=500us,pulse=20us,frac=0.25",
        seed=7,
    )
    cell = SweepCell(
        experiment="obs-test", kind="app",
        params={
            "app": "nas-ft", "ranks": 32, "mode": "none",
            "governor": GovernorConfig(
                policy=GovernorPolicy.COUNTDOWN).to_dict(),
            "faults": faults.to_dict(),
        },
    )
    result = execute_cell(
        cell, CaptureConfig(trace=True, metrics=True, profile=True)
    )
    payload = result.metrics
    trace = "".join(json.dumps(rec) + "\n" for rec in payload["records"])
    metrics = json.dumps(payload["metrics"], indent=2, sort_keys=True) + "\n"
    assert len(payload["records"]) == 34736
    assert hashlib.sha256(trace.encode()).hexdigest() == \
        PINNED_APP_RECORDS_SHA256
    assert hashlib.sha256(metrics.encode()).hexdigest() == \
        PINNED_APP_METRICS_SHA256
    assert [
        {key: sample[key] for key in PINNED_APP_PROFILE[0]}
        for sample in payload["profile"]
    ] == PINNED_APP_PROFILE
    assert result.governor["drops"] == 4032
    assert result.faults["noise_pulses"] == 36792
