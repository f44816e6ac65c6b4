"""Sharded sweep execution with content-addressed result caching.

Every paper experiment is a sweep over independent simulation cells —
(workload, parameter point, governor/fault config, seed) tuples — and
every cell is an isolated deterministic DES run.  This package turns
that structure into an engine:

* :mod:`repro.runner.cells` — the cell decomposition layer.  A
  :class:`SweepCell` is a self-describing, picklable spec; the pure
  :func:`execute_cell` entry point rebuilds the whole simulation
  substrate from it inside any process.
* :mod:`repro.runner.pool` — the parallel executor.
  :func:`run_cells` shards cells across a ``ProcessPoolExecutor`` with
  submit-order reassembly, so ``--jobs 4`` output is bit-identical to
  ``--jobs 1``, and falls back to inline execution when processes are
  unavailable.
* :mod:`repro.runner.cache` — the content-addressed on-disk cache,
  keyed by a stable hash of the cell spec plus the testbed/calibration
  constants and a cache-schema version.
"""

from .cache import (
    CACHE_SCHEMA,
    ResultCache,
    cache_key,
    default_cache_dir,
    environment_signature,
)
from .cells import (
    SUBSTRATE_COUNTERS,
    CellResult,
    SweepCell,
    clear_substrate_cache,
    execute_cell,
)
from .pool import (
    SweepStats,
    clear_memo,
    load_sweep_stats,
    resolve_jobs,
    run_cells,
    save_sweep_stats,
    shutdown_pool,
)

__all__ = [
    "CACHE_SCHEMA",
    "CellResult",
    "ResultCache",
    "SUBSTRATE_COUNTERS",
    "SweepCell",
    "SweepStats",
    "cache_key",
    "clear_memo",
    "clear_substrate_cache",
    "default_cache_dir",
    "environment_signature",
    "execute_cell",
    "load_sweep_stats",
    "resolve_jobs",
    "run_cells",
    "save_sweep_stats",
    "shutdown_pool",
]
