"""The benchmark's three workloads, their warm-up twins and output checks.

Every workload is a closed loop with one caller: one repetition runs its
unit to completion in this process, with ``jobs=1``.

``governed_alltoall``
    One ``collective`` cell through ``execute_cell``: a 64 KiB alltoall
    on 16 nodes of the paper's shape (2 sockets x 4 cores, 8 ranks per
    node), countdown-governed, under the mild fault plan seeded from the
    benchmark seed, with the power timeline kept and sampled into a
    clamp-meter trace.  The slow cell family: governor and fault hooks
    run on every event, and the only workload where ``runtime``,
    ``faults`` and a kept ``power`` timeline do real work.
``plain_alltoall``
    The identical cell with no governor, no faults and no kept timeline:
    the bypass for ``governed_alltoall``.  Its cost is ``sim`` + ``mpi``
    + ``network`` alone, so engine, rendezvous and fabric changes show
    here at their largest share.
``paper_campaign``
    A cold ``run_campaign`` of a spec owned here (Fig 2a's 12 cells at
    32 ranks plus Table I's CPMD cells at 32 ranks under none/dvfs/
    proposed) into a fresh store and campaign dir, ending with the
    rendered Fig 2a artifact.  Many short cells make per-cell overhead
    (session build, cache keys, store writes, manifests, rendering) a
    real share; ``runner`` and ``campaign`` changes show only here.

Only the governed cell draws on the seed (its fault plan); the other two
workloads are the same on every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from typing import Any, Dict, List, Tuple

GOVERNED = "governed_alltoall"
PLAIN = "plain_alltoall"
CAMPAIGN = "paper_campaign"
NAMES = (GOVERNED, PLAIN, CAMPAIGN)

DEFAULT_SEED = 7
NODES = 16
WARMUP_NODES = 2
RANKS_PER_NODE = 8
MSG_BYTES = 64 << 10
FAULT_SPEC = "degrade:factor=0.6,frac=0.25;noise:period=500us,pulse=20us,frac=0.25"
#: Meter interval of the sampled power trace: the cell's makespan is tens
#: of ms, so the paper's 0.5 s tick would give a single bucket.
METER_INTERVAL_S = 2e-4
CPMD_APPS = ("cpmd-wat1", "cpmd-wat2", "cpmd-ta")
#: The campaign's warm-up twin swaps CPMD (profiled at 32 and 64 ranks
#: only, ~1 s a cell) for the shortest application profile at 32 ranks.
WARMUP_APPS = ("nas-ft",)
SCHEMES = ("none", "dvfs", "proposed")

#: Output digests on the default seed (``plain_alltoall`` and
#: ``paper_campaign`` do not depend on the seed).
PINNED = {
    GOVERNED: "10332c57c17db29ae491aee25a9cf0d0a551e7fd72c6dc62f47fdbb87c4f89b4",
    PLAIN: "9e2ef406947a312bd7dcff2c6681f5f25eea9af589259edf799acf4963474aed",
    CAMPAIGN: "9ddd267eae5c40fea5c847c4e793807b5b8e15d20081a380f22f17c2de2dd66d",
}


def _digest(data: Any) -> str:
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cell_digest(result) -> str:
    """Digest of a cell's simulated output (host timing and the optional
    observability payload excluded)."""
    data = result.to_dict()
    data.pop("wall_time_s")
    data.pop("metrics")
    return _digest(data)


class AlltoallWorkload:
    """``governed_alltoall`` / ``plain_alltoall``: one cell per repetition."""

    def __init__(self, name: str, seed: int, work_dir: str):
        self.name = name
        self.seed = seed
        self.cell = self._cell(NODES)
        self.warm_cell = self._cell(WARMUP_NODES)
        self.pinned = (
            PINNED[name] if name == PLAIN or seed == DEFAULT_SEED else None
        )

    def _cell(self, nodes: int):
        from repro.cluster.specs import ClusterSpec
        from repro.faults import parse_fault_spec
        from repro.runner import SweepCell
        from repro.runtime import GovernorConfig, GovernorPolicy

        params: Dict[str, Any] = {
            "op": "alltoall",
            "nbytes": MSG_BYTES,
            "n_ranks": nodes * RANKS_PER_NODE,
            "mode": "none",
            "iterations": 1,
            "progress": "polling",
            "cluster": ClusterSpec.with_shape(nodes).to_dict(),
        }
        if self.name == GOVERNED:
            params["governor"] = GovernorConfig(
                policy=GovernorPolicy.COUNTDOWN
            ).to_dict()
            params["faults"] = parse_fault_spec(FAULT_SPEC, seed=self.seed).to_dict()
            params["keep_segments"] = True
            params["power_trace_interval_s"] = METER_INTERVAL_S
        return SweepCell(experiment="perfbench", kind="collective",
                         params=params, label=f"{self.name}/{nodes}n")

    def warm_up(self) -> None:
        import repro.runner

        repro.runner.execute_cell(self.warm_cell)

    def prepare(self) -> None:
        pass

    def run(self):
        import repro.runner

        return repro.runner.execute_cell(self.cell)

    def check(self, result, counters) -> Tuple[str, List[str]]:
        """Fold the reports into the counts; returns the output digest and
        one digest per operation."""
        counters.add_reports(result.governor, result.faults)
        digest = cell_digest(result)
        return digest, [digest]

    def cleanup(self) -> None:
        pass


class CampaignWorkload:
    """``paper_campaign``: one cold campaign per repetition."""

    def __init__(self, name: str, seed: int, work_dir: str):
        from repro.campaign import CampaignSpec, expand

        self.name = name
        self.work_dir = work_dir
        self.spec = CampaignSpec.from_dict(
            self._spec_dict("perfbench-paper", CPMD_APPS))
        self.warm_spec = CampaignSpec.from_dict(
            self._spec_dict("perfbench-warm", WARMUP_APPS))
        self.plan = expand(self.spec)
        self.pinned = PINNED[name]
        self._dir = None

    @staticmethod
    def _spec_dict(name: str, apps) -> Dict[str, Any]:
        return {
            "name": name,
            "experiments": ["fig2a"],
            "sweeps": [{
                "name": "table1",
                "kind": "app",
                "matrix": {"app": list(apps), "mode": list(SCHEMES)},
                "params": {"ranks": 32},
            }],
            "artifacts": ["fig2a"],
        }

    def _fresh(self):
        from repro.runner import ResultCache

        self._dir = tempfile.mkdtemp(prefix="campaign-", dir=self.work_dir)
        return (os.path.join(self._dir, "campaign"),
                ResultCache(os.path.join(self._dir, "store")))

    def warm_up(self) -> None:
        import repro.campaign

        campaign_dir, cache = self._fresh()
        result = repro.campaign.run_campaign(
            self.warm_spec, campaign_dir=campaign_dir, cache=cache, jobs=1
        )
        if not result.ok:
            raise RuntimeError("warm-up campaign failed")
        self.cleanup()

    def prepare(self) -> None:
        self.campaign_dir, self.cache = self._fresh()

    def run(self):
        import repro.campaign

        return repro.campaign.run_campaign(
            self.spec, campaign_dir=self.campaign_dir, cache=self.cache, jobs=1
        )

    def check(self, result, counters) -> Tuple[str, List[str]]:
        cells = []
        for key in self.plan.keys:
            cell = self.cache.get(key)
            if cell is None:
                cells.append("missing")
                continue
            counters.add_reports(cell.governor, cell.faults)
            cells.append(cell_digest(cell))
        # Labels, not cache keys: a key-schema change alone must not read
        # as a wrong output.
        statuses = [[entry.label, entry.status] for entry in result.manifest.cells]
        art_dir = os.path.join(self.campaign_dir, "artifacts")
        artifacts = {}
        for fname in ("fig2a.json", "fig2a.txt"):
            try:
                with open(os.path.join(art_dir, fname), "rb") as fh:
                    artifacts[fname] = hashlib.sha256(fh.read()).hexdigest()
            except OSError:
                artifacts[fname] = "missing"
        digest = _digest({"cells": cells, "manifest": statuses,
                          "artifacts": artifacts})
        return digest, cells

    def cleanup(self) -> None:
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None


def make(name: str, seed: int, work_dir: str):
    if name == CAMPAIGN:
        return CampaignWorkload(name, seed, work_dir)
    return AlltoallWorkload(name, seed, work_dir)
