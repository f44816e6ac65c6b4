"""Warm-worker entry points for the persistent sweep pool.

This module is the fork-server preload target: the pool asks the
``forkserver`` start method to import it once, so every worker process
starts with the runner (and, transitively, the whole simulation stack)
already imported instead of re-importing per fork.

Workers stay alive across :func:`~repro.runner.pool.run_cells` calls and
serve *batches* of cells rather than single submissions — one pickle
round-trip amortizes over the whole batch, which is what makes
sub-millisecond cells profitable to farm out at all.  Each batch reply
carries a telemetry dict (the worker's pid, whether it was warm, and
the batch's cell count) that the parent folds into
:class:`~repro.runner.pool.SweepStats`.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .cells import CellResult, SweepCell, execute_cell

__all__ = ["execute_batch"]

#: Batches this process has served so far.  ``> 0`` on entry means the
#: worker is being *reused* — the signal the parent counts as
#: ``worker_reuse``.
_BATCHES_SERVED = 0


def execute_batch(
    cells: Sequence[SweepCell],
    capture: Optional[Any] = None,
) -> Tuple[List[CellResult], Dict[str, Any]]:
    """Execute ``cells`` in order in this worker; return results + telemetry."""
    global _BATCHES_SERVED
    warm = _BATCHES_SERVED > 0
    results = [execute_cell(cell, capture) for cell in cells]
    _BATCHES_SERVED += 1
    return results, {"pid": os.getpid(), "warm": warm, "cells": len(results)}
