"""The artifact stage: completed campaign -> the paper's named outputs.

A campaign that covers ``table1`` does not just fill a cache — it ends
with ``table1.json`` + ``table1.txt`` under the campaign directory,
rendered by :func:`repro.bench.run_plan` from the *same*
:data:`repro.bench.CELL_PLANS` plan, JSON schema
(:mod:`repro.bench.export`) and table formatter
(:mod:`repro.bench.report`) the ``repro experiment`` command uses, on
the campaign's result cache.  By the time this stage runs every needed
cell is in the store, so the plans run as pure cache reads: rendering
artifacts for a finished campaign costs no simulation at all, and the
output is byte-identical to a cold single-process run — the acceptance
property CI pins with ``cmp``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["render_artifacts"]


def render_artifacts(
    spec,
    cache,
    campaign_dir: Path,
    jobs: Optional[int] = None,
    names: Optional[Sequence[str]] = None,
    stats=None,
) -> List[Dict[str, Any]]:
    """Render ``names`` (default: the spec's artifact list) under
    ``<campaign_dir>/artifacts/``; returns one record per artifact."""
    from ..bench import CELL_PLANS, run_plan
    from ..bench.export import save_json
    from ..bench.report import render_experiment, save_report

    names = list(spec.artifacts if names is None else names)
    art_dir = Path(campaign_dir) / "artifacts"
    records: List[Dict[str, Any]] = []
    for name in sorted(set(names)):
        (headers, rows, notes), _ = run_plan(
            CELL_PLANS[name](), jobs=jobs, cache=cache, stats=stats,
            governor=spec.governor, faults=spec.faults,
        )
        json_path = save_json(
            name, headers, rows, notes, results_dir=str(art_dir)
        )
        txt_path = save_report(
            name, render_experiment(name, headers, rows, notes),
            results_dir=str(art_dir),
        )
        records.append({
            "experiment": name,
            "json": str(json_path),
            "txt": str(txt_path),
            "rows": len(rows),
        })
    return records
