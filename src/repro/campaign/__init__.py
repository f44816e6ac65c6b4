"""Declarative sweep campaigns: specs, resume, artifacts.

The paper's results are grids, not runs — Table I/II and Figs 2/6–10
are products over {collective, message size, node count, power policy}.
This package turns the cell runner (:mod:`repro.runner`) into a
campaign engine for exactly that shape:

* :mod:`repro.campaign.spec` — :class:`CampaignSpec`, loadable from
  YAML/JSON/dict, deterministically expanded to a deduplicated cell set.
* :mod:`repro.campaign.executor` — :func:`run_campaign`: cache probe
  first, execute only misses through :func:`repro.runner.run_cells`
  (warm-worker pool, memo, store), ``campaign.json`` manifest for
  status and restartability.
* :mod:`repro.campaign.artifacts` — completed campaigns render the
  paper's named outputs (JSON + txt) through the existing bench
  export/report paths.

CLI: ``python -m repro campaign run|status|report SPEC``.
"""

from .artifacts import render_artifacts
from .executor import CampaignResult, default_campaign_dir, run_campaign
from .manifest import MANIFEST_SCHEMA, CampaignManifest, CellEntry
from .spec import (
    CampaignGrid,
    CampaignPlan,
    CampaignSpec,
    CampaignSpecError,
    expand,
    load_campaign,
    spec_digest,
)

__all__ = [
    "CampaignGrid",
    "CampaignManifest",
    "CampaignPlan",
    "CampaignResult",
    "CampaignSpec",
    "CampaignSpecError",
    "CellEntry",
    "MANIFEST_SCHEMA",
    "default_campaign_dir",
    "expand",
    "load_campaign",
    "render_artifacts",
    "run_campaign",
    "spec_digest",
]
