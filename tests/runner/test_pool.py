"""Parallel executor: ordering, memo/dedupe, refresh, stats, fallback."""

import pytest

from repro.runner import (
    ResultCache,
    SweepCell,
    SweepStats,
    cache_key,
    clear_memo,
    resolve_jobs,
    run_cells,
)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _cells(sizes, op="alltoall", n_ranks=16):
    return [
        SweepCell(
            "pool-test",
            "collective",
            {"op": op, "nbytes": n, "n_ranks": n_ranks},
            label=f"{op}/{n}",
        )
        for n in sizes
    ]


# -- resolve_jobs -----------------------------------------------------
def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None, default=3) == 3
    assert resolve_jobs(5, default=3) == 5
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert resolve_jobs(None, default=3) == 7
    assert resolve_jobs(2, default=3) == 2  # explicit beats env
    monkeypatch.setenv("REPRO_JOBS", "banana")
    assert resolve_jobs(None, default=3) == 3  # garbage env ignored
    assert resolve_jobs(0) == 1  # clamps


# -- ordering & memoisation -------------------------------------------
def test_results_in_input_order():
    cells = _cells([4 << 10, 1 << 10, 16 << 10])
    results = run_cells(cells, jobs=1)
    # Bigger message => strictly longer simulated duration; order must
    # follow the *input* order, not size or completion order.
    assert results[1].duration_s < results[0].duration_s < results[2].duration_s


def test_memo_serves_repeat_sweeps():
    cells = _cells([1 << 10, 2 << 10])
    stats1 = SweepStats(experiment="first")
    first = run_cells(cells, jobs=1, stats=stats1)
    stats2 = SweepStats(experiment="second")
    second = run_cells(cells, jobs=1, stats=stats2)
    assert stats1.unique_executed == 2 and stats1.memo_hits == 0
    assert stats2.memo_hits == 2 and stats2.executed == 0
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


def test_stats_count_across_run_cells_calls():
    """A stats object shared by several calls counts every call's cells,
    not only the last call's."""
    stats = SweepStats()
    run_cells(_cells([1 << 10, 2 << 10, 2 << 10]), jobs=1, stats=stats)
    run_cells(_cells([4 << 10]), jobs=1, stats=stats)
    assert stats.cells_total == 4
    assert stats.executed == 4
    assert stats.unique_executed == 3
    assert len(stats.timings) == 3


def test_duplicate_cells_execute_once():
    cell = _cells([1 << 10])[0]
    stats = SweepStats()
    results = run_cells([cell, cell, cell], jobs=1, stats=stats)
    assert stats.cells_total == 3
    assert stats.unique_executed == 1
    assert results[0] is results[1] is results[2]


# -- disk cache interplay ---------------------------------------------
def test_cache_hit_skips_execution(tmp_path):
    cells = _cells([1 << 10])
    cache = ResultCache(tmp_path)
    run_cells(cells, jobs=1, cache=cache)
    clear_memo()  # force the disk layer
    stats = SweepStats()
    run_cells(cells, jobs=1, cache=cache, stats=stats)
    assert stats.cache_hits == 1
    assert stats.executed == 0
    assert stats.hit_rate == 1.0


def test_refresh_reexecutes_and_rewrites(tmp_path):
    cells = _cells([1 << 10])
    cache = ResultCache(tmp_path)
    run_cells(cells, jobs=1, cache=cache)
    assert cache.writes == 1
    stats = SweepStats()
    run_cells(cells, jobs=1, cache=cache, refresh=True, stats=stats)
    assert stats.memo_hits == 0 and stats.cache_hits == 0
    assert stats.unique_executed == 1
    assert cache.writes == 2  # fresh result written through


def test_cached_result_identical_to_fresh(tmp_path):
    cells = _cells([2 << 10])
    cache = ResultCache(tmp_path)
    fresh = run_cells(cells, jobs=1, cache=cache)[0].to_dict()
    clear_memo()
    cached = run_cells(cells, jobs=1, cache=cache)[0].to_dict()
    assert cached == fresh  # wall_time_s round-trips through the entry


# -- parallel == inline -----------------------------------------------
def test_parallel_results_bit_identical_to_inline(tmp_path, monkeypatch):
    """The tentpole determinism claim at the library level: jobs=4
    through a real warm-worker pool reassembles to exactly the
    inline results."""
    from repro.runner import pool, shutdown_pool

    monkeypatch.setattr(pool, "_available_cpus", lambda: 4)
    cells = _cells([1 << 10, 4 << 10, 16 << 10, 64 << 10])
    inline = run_cells(cells, jobs=1)
    clear_memo()
    stats = SweepStats()
    try:
        parallel = run_cells(cells, jobs=4, stats=stats)
    finally:
        shutdown_pool()
    assert not stats.fell_back_inline  # the pool really ran
    assert not stats.jobs_clamped
    assert stats.jobs_effective == 4
    assert stats.batches > 0
    assert _sim_dicts(inline) == _sim_dicts(parallel)


def test_jobs_clamp_to_available_cpus(monkeypatch, caplog):
    """jobs beyond the usable CPU count clamp (to inline on one CPU)
    with a warning instead of paying pool overhead for a slowdown."""
    import logging

    from repro.runner import pool

    monkeypatch.setattr(pool, "_available_cpus", lambda: 1)
    cells = _cells([1 << 10, 2 << 10])
    stats = SweepStats()
    with caplog.at_level(logging.WARNING, logger="repro.runner"):
        results = run_cells(cells, jobs=4, stats=stats)
    assert stats.jobs == 4
    assert stats.jobs_effective == 1
    assert stats.jobs_clamped
    assert not stats.fell_back_inline  # deliberate clamp, not a failure
    assert len(results) == 2
    assert any("clamping" in rec.message for rec in caplog.records)


def test_warm_pool_reused_across_run_cells(monkeypatch):
    """The pool persists between run_cells calls: the second sweep's
    batches land on already-warm workers."""
    from repro.runner import pool, shutdown_pool

    monkeypatch.setattr(pool, "_available_cpus", lambda: 2)
    try:
        first = SweepStats()
        run_cells(_cells([1 << 10, 2 << 10, 4 << 10, 8 << 10]), jobs=2,
                  stats=first)
        if first.fell_back_inline:  # pragma: no cover - sandboxed fork
            return
        second = SweepStats()
        run_cells(_cells([3 << 10, 5 << 10, 6 << 10, 7 << 10]), jobs=2,
                  stats=second)
        assert second.worker_reuse > 0
    finally:
        shutdown_pool()


def _sim_dicts(results):
    """Simulated content only — wall_time_s is host-side noise."""
    dicts = [r.to_dict() for r in results]
    for d in dicts:
        d.pop("wall_time_s")
    return dicts


def test_stats_timings_cover_executed_cells():
    cells = _cells([1 << 10, 2 << 10])
    stats = SweepStats(experiment="timed")
    run_cells(cells, jobs=1, stats=stats)
    assert len(stats.timings) == 2
    assert all(wall >= 0 for _label, wall in stats.timings)
    assert "timed" in stats.one_line()
