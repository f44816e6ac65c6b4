"""Parallel sweep execution with deterministic reassembly.

:func:`run_cells` is the one entry point: given a list of
:class:`~repro.runner.cells.SweepCell`, it returns their
:class:`~repro.runner.cells.CellResult` in the *same order*, having
satisfied each cell from (in order):

1. the in-process memo — duplicates *within* a run (table1 re-requests
   fig9's app cells) execute once per process lifetime;
2. the on-disk content-addressed cache (unless disabled/refreshing);
3. actual execution — inline for one effective job, batched across a
   *persistent* warm-worker pool otherwise.

Warm workers
------------
The pool is built once (fork-server start method, with
:mod:`repro.runner.worker` preloaded) and reused across
:func:`run_cells` calls, so the per-submit cost is a pickle round-trip
rather than a process spawn.  Cells ship in batches
(:func:`repro.runner.worker.execute_batch`) to amortize IPC over many
sub-millisecond cells.

Determinism argument
--------------------
Every cell is a pure function of its spec (fresh ``SimSession`` per
cell, instruments, seeds and telemetry sinks passed into it as
arguments), so *where* a cell runs cannot change its simulated
output.  Batches are collected in submit order — never ``as_completed``
— and results concatenate back into submission order, so reassembly
order cannot change either.  Hence ``--jobs N`` output is byte-identical
to ``--jobs 1`` for every N.

If the pool itself cannot be built (no fork, sandboxed semaphores) or
breaks mid-flight, execution degrades to inline — slower, never wrong.
When the machine has fewer usable CPUs than requested jobs, the job
count clamps (a pool bigger than the machine is a guaranteed slowdown);
a clamp all the way to one CPU runs inline with a logged warning.
"""

from __future__ import annotations

import atexit
import json
import logging
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .cache import ResultCache, cache_key
from .cells import CellResult, SweepCell, execute_cell

__all__ = [
    "SweepStats",
    "cell_wall_summary",
    "clear_memo",
    "load_sweep_stats",
    "resolve_jobs",
    "run_cells",
    "save_sweep_stats",
    "shutdown_pool",
]

_LOG = logging.getLogger("repro.runner")

#: In-process memo: cache key -> result.  Subsumes the old per-module
#: ``_APP_RUN_CACHE`` in bench.experiments — any two cells with the same
#: content share one execution within a process, across experiments.
_MEMO: Dict[str, CellResult] = {}


def clear_memo() -> None:
    """Forget memoised results (tests; ``--refresh`` uses it too)."""
    _MEMO.clear()


def resolve_jobs(jobs: Optional[int] = None, default: int = 1) -> int:
    """Worker count: explicit ``jobs`` > ``$REPRO_JOBS`` > ``default``.

    ``default`` is 1 for library callers (no surprise forking) — the CLI
    passes ``os.cpu_count()``.  Any resolution below 1 clamps to 1.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env:
            try:
                jobs = int(env)
            except ValueError:
                jobs = None
    if jobs is None:
        jobs = default
    return max(1, jobs)


def _available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _effective_jobs(jobs: int, stats: "SweepStats") -> int:
    """Clamp ``jobs`` to the usable CPU count, recording the decision.

    A pool wider than the machine is a guaranteed slowdown (workers
    time-slice one core while the parent pays full IPC), so requests
    beyond ``_available_cpus()`` clamp down with a warning.  A clamp to
    one means inline execution — deliberate, not a fallback.
    """
    avail = _available_cpus()
    effective = jobs
    if jobs > avail:
        effective = max(1, avail)
        stats.jobs_clamped = True
        suffix = " (running inline)" if effective == 1 else ""
        _LOG.warning(
            "requested %d jobs but only %d usable CPU(s); clamping to %d%s",
            jobs, avail, effective, suffix,
        )
    stats.jobs_effective = effective
    return effective


# ---------------------------------------------------------------------
# Persistent warm-worker pool
# ---------------------------------------------------------------------
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_PRELOAD_SET = False


def _pool_context() -> multiprocessing.context.BaseContext:
    """Start-method preference: forkserver (preloaded) > fork > default.

    Fork-server gives warm workers their biggest win: the server process
    imports :mod:`repro.runner.worker` (and transitively the simulation
    stack) once, so each worker starts from a warm interpreter instead
    of re-importing everything.
    """
    global _PRELOAD_SET
    methods = multiprocessing.get_all_start_methods()
    if "forkserver" in methods:
        ctx = multiprocessing.get_context("forkserver")
        if not _PRELOAD_SET:
            ctx.set_forkserver_preload(["repro.runner.worker"])
            _PRELOAD_SET = True
        return ctx
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent executor, (re)built when the width changes."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS == workers:
        return _POOL
    shutdown_pool()
    _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context())
    _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent pool (atexit; tests; pool failure)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_pool)


def _batch(cells: List[SweepCell], workers: int) -> List[List[SweepCell]]:
    """Chunk cells for batched submission.

    Target ~4 batches per worker: large enough to amortize the pickle
    round-trip over many small cells, small enough that a straggler
    batch cannot idle the rest of the pool for long.
    """
    size = max(1, math.ceil(len(cells) / (workers * 4)))
    return [cells[i:i + size] for i in range(0, len(cells), size)]


@dataclass
class SweepStats:
    """Accounting for one or more :func:`run_cells` calls (feeds
    ``bench-report``); counts add up over the calls that share it."""

    experiment: str = ""
    jobs: int = 1
    #: Worker count actually used after the CPU clamp (== ``jobs`` when
    #: the machine is wide enough).
    jobs_effective: int = 1
    jobs_clamped: bool = False
    cells_total: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    executed: int = 0
    #: Distinct cells actually run (executed minus in-flight duplicates).
    unique_executed: int = 0
    fell_back_inline: bool = False
    elapsed_s: float = 0.0
    #: Batches shipped to the pool (0 when everything ran inline/cached).
    batches: int = 0
    #: Batches served by an already-warm worker (pool reuse across calls).
    worker_reuse: int = 0
    #: Distinct worker PIDs that served one call's batches, the largest
    #: count over the calls (the pool persists, so calls share workers).
    workers_used: int = 0
    #: (label, wall_time_s) per executed cell, submit order.
    timings: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        hits = self.memo_hits + self.cache_hits
        return hits / self.cells_total if self.cells_total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "jobs": self.jobs,
            "jobs_effective": self.jobs_effective,
            "jobs_clamped": self.jobs_clamped,
            "cells_total": self.cells_total,
            "memo_hits": self.memo_hits,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "unique_executed": self.unique_executed,
            "fell_back_inline": self.fell_back_inline,
            "elapsed_s": self.elapsed_s,
            "batches": self.batches,
            "worker_reuse": self.worker_reuse,
            "workers_used": self.workers_used,
            "timings": [list(t) for t in self.timings],
        }

    def one_line(self) -> str:
        return (
            f"sweep[{self.experiment}]: {self.cells_total} cells, "
            f"{self.cache_hits} cache hits, {self.memo_hits} memo hits, "
            f"{self.unique_executed} executed (jobs={self.jobs}), "
            f"{self.elapsed_s:.2f}s"
        )


def cell_wall_summary(walls: Iterable[float]) -> Dict[str, float]:
    """Nearest-rank p50 and p95, max and total of cell wall times (host
    seconds, so the built-in ``sum`` is fine); zeros for no cells."""
    walls = sorted(walls)

    def rank(q: float) -> float:
        return walls[round(q * (len(walls) - 1))] if walls else 0.0

    return {"p50": rank(0.50), "p95": rank(0.95), "max": rank(1.0),
            "total": sum(walls)}


def _execute_pending(
    pending: List[Tuple[int, str, SweepCell]],
    jobs: int,
    stats: SweepStats,
    capture: Optional[Any] = None,
) -> List[Tuple[int, str, CellResult]]:
    """Run the cells that missed every cache; returns (index, key, result).

    Duplicate keys *within* ``pending`` execute once; every index still
    gets its result.  ``capture`` rides along to every
    :func:`~repro.runner.cells.execute_cell` call — worker or inline —
    so the observability payload is collected identically either way.
    """
    unique: Dict[str, Tuple[int, SweepCell]] = {}
    order: List[str] = []
    for idx, key, cell in pending:
        if key not in unique:
            unique[key] = (idx, cell)
            order.append(key)
    cells = [unique[k][1] for k in order]
    stats.unique_executed += len(cells)
    stats.executed += len(pending)

    effective = _effective_jobs(jobs, stats)
    by_key: Dict[str, CellResult] = {}
    if effective > 1 and len(cells) > 1:
        try:
            from . import worker as worker_mod

            pool = _get_pool(effective)
            batches = _batch(cells, effective)
            # Submit everything up front, then collect strictly in
            # submit order — completion order must never matter.
            futures = [
                pool.submit(worker_mod.execute_batch, chunk, capture)
                for chunk in batches
            ]
            flat: List[CellResult] = []
            pids: set = set()
            for future in futures:
                results, telemetry = future.result()
                flat.extend(results)
                stats.batches += 1
                pids.add(telemetry.get("pid"))
                if telemetry.get("warm"):
                    stats.worker_reuse += 1
            stats.workers_used = max(stats.workers_used, len(pids))
            by_key = dict(zip(order, flat))
        except Exception:
            # Pool infrastructure failure (fork unavailable, broken
            # worker, pickling regression): rerun everything inline.
            # Correctness never depends on the pool.
            shutdown_pool()
            stats.fell_back_inline = True
            by_key = {}
    if not by_key:
        for key, cell in zip(order, cells):
            by_key[key] = execute_cell(cell, capture)
    for key, cell in zip(order, cells):
        stats.timings.append((cell.label or key[:12], by_key[key].wall_time_s))
    return [(idx, key, by_key[key]) for idx, key, _cell in pending]


def run_cells(
    cells: Sequence[SweepCell],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    refresh: bool = False,
    stats: Optional[SweepStats] = None,
    capture: Optional[Any] = None,
) -> List[CellResult]:
    """Satisfy ``cells`` (memo > disk cache > execution), in input order.

    ``cache=None`` disables the on-disk layer entirely; ``refresh=True``
    skips cache *reads* but still writes fresh results through.  Pass a
    ``stats`` to receive the accounting.

    ``capture`` (a :class:`~repro.obs.capture.CaptureConfig`) names the
    observability channels to collect; ``None`` collects nothing.  When
    any channel is on, every result — worker-run, inline, memoised or
    cache-served — carries its cell's sealed payload in ``metrics``.
    Payloads depend only on the cells, never on ``jobs`` or on which
    layer satisfied a cell, so ``--jobs N`` and a warm-cache rerun read
    back byte-identical streams.
    """
    import time

    if stats is None:
        stats = SweepStats()
    stats.jobs = resolve_jobs(jobs)
    stats.jobs_effective = stats.jobs
    stats.cells_total += len(cells)
    wall0 = time.perf_counter()

    results: List[Optional[CellResult]] = [None] * len(cells)
    pending: List[Tuple[int, str, SweepCell]] = []
    for idx, cell in enumerate(cells):
        key = cache_key(cell, capture)
        if not refresh and key in _MEMO:
            results[idx] = _MEMO[key]
            stats.memo_hits += 1
            # Write-through: the memo outlives any one cache (campaigns
            # pointed at different stores share one process memo), and
            # downstream consumers — campaign resume probes — treat
            # the *store* as the source of truth.
            if cache is not None and not cache.contains(key):
                cache.put(key, cell, _MEMO[key])
            continue
        if cache is not None and not refresh:
            hit = cache.get(key)
            if hit is not None:
                results[idx] = hit
                _MEMO[key] = hit
                stats.cache_hits += 1
                continue
        pending.append((idx, key, cell))

    if pending:
        for idx, key, result in _execute_pending(
            pending, stats.jobs, stats, capture
        ):
            results[idx] = result
            _MEMO[key] = result
            if cache is not None:
                cache.put(key, cells[idx], result)

    stats.elapsed_s += time.perf_counter() - wall0
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------
# Last-sweep persistence (the `repro bench-report` data source)
# ---------------------------------------------------------------------
def _stats_path(results_dir: Optional[Path] = None) -> Path:
    base = Path(results_dir) if results_dir is not None else Path("results")
    return base / "last_sweep.json"


def save_sweep_stats(
    stats: SweepStats,
    cache: Optional[ResultCache] = None,
    results_dir: Optional[Path] = None,
    metrics: Optional[Dict[str, Any]] = None,
) -> Optional[Path]:
    """Persist one sweep's accounting for ``repro bench-report``.

    ``metrics`` is an optional :class:`~repro.obs.metrics.MetricsRegistry`
    snapshot; when given, ``bench-report --metrics`` can render it later.
    """
    path = _stats_path(results_dir)
    payload = stats.to_dict()
    payload["cache"] = cache.stats() if cache is not None else None
    payload["cache_dir"] = str(cache.root) if cache is not None else None
    payload["metrics"] = metrics
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    except OSError:
        return None
    return path


def load_sweep_stats(results_dir: Optional[Path] = None) -> Optional[Dict[str, Any]]:
    """The last persisted sweep accounting, or None."""
    try:
        with open(_stats_path(results_dir), "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None
