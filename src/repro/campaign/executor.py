"""Campaign executor: probe → execute misses → manifest → artifacts.

:func:`run_campaign` is the one entry point.  Its loop is built around
resume-from-anywhere semantics:

1. **Expand** the spec deterministically (see :mod:`.spec`).
2. **Probe** the content-addressed cache for every cell.  Hits are
   marked ``done`` without executing anything — this is the whole
   resume mechanism: an interrupted campaign restarts by re-running the
   same command, and only the missing cells execute.  The manifest is a
   *record* of this decision, never its input, so a manifest that
   disagrees with the store (entries evicted by ``repro cache gc``,
   a manifest copied from another machine) merely re-pends those cells.
3. **Execute** the misses in waves of at least :data:`MIN_WAVE` cells
   through :func:`~repro.runner.run_cells` (warm-worker pool, memo,
   store), flushing the manifest after every wave so an interrupt
   loses at most one wave of bookkeeping (the results themselves are
   already in the store).  If ``run_cells`` raises, the wave's cells
   run inline one by one, so one poisoned cell becomes one ``failed``
   manifest entry instead of a dead campaign.
4. **Render artifacts** (:mod:`.artifacts`) once every needed cell is
   done.

Campaign-level accounting (probe hits, executions, failures, p50/p95
cell wall time, salvage errors) lands in ``telemetry.json`` next to
the manifest, and in ``results/last_sweep.json`` so ``repro
bench-report`` covers campaigns with zero new plumbing.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..runner import (
    CellResult,
    ResultCache,
    SweepCell,
    SweepStats,
    cell_wall_summary,
    execute_cell,
    resolve_jobs,
    run_cells,
)
from .artifacts import render_artifacts
from .manifest import CampaignManifest
from .spec import CampaignPlan, CampaignSpec, expand, spec_digest

__all__ = ["CampaignResult", "default_campaign_dir", "run_campaign"]

#: Fewest pending cells per execution wave (a wave is ``jobs * 8``
#: cells when that is more); the manifest is flushed after each wave.
MIN_WAVE = 32

#: One executed cell: (key, result-or-None, error-or-None).  Exactly
#: one of result/error is set.
CellOutcome = Tuple[str, Optional[CellResult], Optional[str]]


def default_campaign_dir(spec: CampaignSpec) -> Path:
    return Path("results") / "campaigns" / spec.name


def _salvage(
    cells: Sequence[SweepCell],
    keys: Sequence[str],
    cache: ResultCache,
) -> List[CellOutcome]:
    """Per-cell inline execution with per-cell error capture — the
    slow path that turns one poisoned cell into one ``failed``
    manifest entry instead of a dead campaign."""
    out: List[CellOutcome] = []
    for key, cell in zip(keys, cells):
        try:
            result = execute_cell(cell)
        except Exception as exc:  # noqa: BLE001 - recorded, not hidden
            out.append((key, None, f"{type(exc).__name__}: {exc}"))
            continue
        cache.put(key, cell, result)
        out.append((key, result, None))
    return out


@dataclass
class CampaignResult:
    """Everything one :func:`run_campaign` call produced."""

    spec: CampaignSpec
    plan: CampaignPlan
    manifest: CampaignManifest
    campaign_dir: Path
    #: Campaign-level accounting (also persisted as ``telemetry.json``).
    telemetry: Dict[str, Any] = field(default_factory=dict)
    #: Artifact records from the artifact stage ([] when skipped).
    artifacts: List[Dict[str, Any]] = field(default_factory=list)
    #: Runner accounting for the execution waves.
    stats: Optional[SweepStats] = None

    @property
    def ok(self) -> bool:
        return self.manifest.complete


def run_campaign(
    spec: CampaignSpec,
    campaign_dir: Optional[Path] = None,
    cache: Optional[ResultCache] = None,
    jobs: Optional[int] = None,
    refresh: bool = False,
    artifacts: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignResult:
    """Run (or resume) ``spec`` to completion; see the module docstring.

    ``cache=None`` builds one from the spec's ``cache_dir`` (or the
    default location) — campaigns are cache-centric by design, so there
    is deliberately no way to run one uncached.  ``refresh=True`` skips
    the probe and re-executes everything, overwriting store entries.
    ``progress`` receives human one-liners (the CLI points it at
    stderr, keeping stdout byte-comparable across runs).
    """
    say = progress or (lambda _msg: None)
    t0 = time.perf_counter()
    jobs = resolve_jobs(jobs if jobs is not None else spec.jobs)
    if cache is None:
        cache = ResultCache(Path(spec.cache_dir) if spec.cache_dir else None)

    plan = expand(spec)
    campaign_dir = Path(campaign_dir) if campaign_dir is not None \
        else default_campaign_dir(spec)
    manifest_path = campaign_dir / "campaign.json"
    digest = spec_digest(spec)
    previous = CampaignManifest.load(manifest_path)
    resumed = previous is not None and previous.spec_digest == digest
    if previous is not None and not resumed:
        say(f"spec changed (digest {digest[:12]}); starting a fresh manifest")
    manifest = CampaignManifest.from_plan(plan)
    if resumed:
        # Carry over terminal statuses for the status report; the probe
        # below re-derives 'done' from the store anyway.
        for entry in manifest.cells:
            try:
                old = previous.entry(entry.key)
            except KeyError:
                continue
            entry.status, entry.error = old.status, old.error

    # -- probe: the cache decides what still needs to run -------------
    pending: List[int] = []
    probe_hits = 0
    for idx, key in enumerate(plan.keys):
        if not refresh and cache.get(key) is not None:
            manifest.mark(key, "done")
            probe_hits += 1
        else:
            manifest.mark(key, "pending")
            pending.append(idx)
    manifest.save(manifest_path)
    say(
        f"campaign[{spec.name}]: {len(plan)} cells "
        f"({plan.duplicates} duplicates folded), {probe_hits} already in "
        f"the store, {len(pending)} to execute"
    )

    # -- execute misses in waves --------------------------------------
    stats = SweepStats(experiment=f"campaign:{spec.name}", jobs=jobs)
    telemetry: Dict[str, Any] = {
        "campaign": spec.name,
        "spec_digest": digest,
        "jobs": jobs,
        "resumed": resumed,
        "cells_total": len(plan),
        "duplicates": plan.duplicates,
        "probe_hits": probe_hits,
        "executed": 0,
        "failed": 0,
    }
    failed = 0
    wave_size = max(MIN_WAVE, jobs * 8)
    for start in range(0, len(pending), wave_size):
        wave = pending[start:start + wave_size]
        cells = [plan.cells[i] for i in wave]
        keys = [plan.keys[i] for i in wave]
        try:
            results = run_cells(cells, jobs=jobs, cache=cache, stats=stats)
            outcomes = [(key, r, None) for key, r in zip(keys, results)]
        except Exception as exc:  # noqa: BLE001 - fall back to per-cell
            telemetry.setdefault("salvage_errors", []).append(
                f"{type(exc).__name__}: {exc}"
            )
            outcomes = _salvage(cells, keys, cache)
        for key, result, error in outcomes:
            if result is not None:
                manifest.mark(key, "done")
            else:
                manifest.mark(key, "failed", error=error)
                failed += 1
        manifest.save(manifest_path)
        done = min(start + wave_size, len(pending))
        if len(pending) > wave_size:
            say(f"campaign[{spec.name}]: {done}/{len(pending)} pending cells done")

    telemetry["executed"] = len(pending) - failed
    telemetry["failed"] = failed
    telemetry["cell_wall_s"] = cell_wall_summary(t for _label, t in stats.timings)
    hits_all = probe_hits + stats.cache_hits + stats.memo_hits
    telemetry["hit_rate"] = hits_all / len(plan) if len(plan) else 0.0

    # -- artifact stage ------------------------------------------------
    result = CampaignResult(
        spec=spec, plan=plan, manifest=manifest,
        campaign_dir=campaign_dir, telemetry=telemetry, stats=stats,
    )
    if artifacts and spec.artifacts:
        if manifest.complete:
            result.artifacts = render_artifacts(
                spec, cache, campaign_dir, jobs=jobs
            )
            say(
                f"campaign[{spec.name}]: rendered "
                f"{len(result.artifacts)} artifact(s) under "
                f"{campaign_dir / 'artifacts'}"
            )
        else:
            say(
                f"campaign[{spec.name}]: {failed} cell(s) failed; "
                "artifact stage skipped"
            )
    telemetry["artifacts"] = result.artifacts
    telemetry["elapsed_s"] = time.perf_counter() - t0

    # Fold the probe into the sweep accounting so `repro bench-report`
    # tells the whole campaign story, then persist both views.
    stats.cells_total = len(plan)
    stats.cache_hits += probe_hits
    stats.elapsed_s = telemetry["elapsed_s"]
    try:
        campaign_dir.mkdir(parents=True, exist_ok=True)
        with open(campaign_dir / "telemetry.json", "w", encoding="utf-8") as fh:
            json.dump(telemetry, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError:
        pass
    return result
