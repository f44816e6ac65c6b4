"""Executor semantics: probe-first resume, manifests, artifacts."""

import json

from repro.campaign import (
    CampaignManifest,
    CampaignSpec,
    run_campaign,
    spec_digest,
)
from repro.runner import ResultCache, clear_memo

SPEC = {
    "name": "t",
    "sweeps": [
        {
            "name": "grid",
            "matrix": {"nbytes": [1024, 4096], "mode": ["none", "proposed"]},
            "params": {"op": "alltoall", "n_ranks": 16},
        }
    ],
}


def _run(tmp_path, spec=None, subdir="camp", **kwargs):
    spec = CampaignSpec.from_dict(spec or SPEC)
    kwargs.setdefault("cache", ResultCache(tmp_path / "cache"))
    return run_campaign(
        spec, campaign_dir=tmp_path / subdir, jobs=1, **kwargs
    )


def test_cold_run_executes_everything(tmp_path):
    result = _run(tmp_path)
    assert result.ok
    assert result.telemetry["executed"] == 4
    assert result.telemetry["probe_hits"] == 0
    assert result.manifest.counts() == {"pending": 0, "done": 4, "failed": 0}


def test_rerun_executes_nothing(tmp_path):
    _run(tmp_path)
    result = _run(tmp_path)
    assert result.ok
    assert result.telemetry["executed"] == 0
    assert result.telemetry["probe_hits"] == 4
    assert result.telemetry["hit_rate"] == 1.0
    assert result.telemetry["resumed"] is True


def test_manifest_byte_identical_across_complete_reruns(tmp_path):
    _run(tmp_path)
    first = (tmp_path / "camp" / "campaign.json").read_bytes()
    _run(tmp_path)
    assert (tmp_path / "camp" / "campaign.json").read_bytes() == first


def test_partial_resume_executes_only_missing(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    result = _run(tmp_path, cache=cache)
    # Evict one entry: exactly that cell must re-execute.
    victim = result.plan.keys[2]
    cache._path(victim).unlink()
    again = _run(tmp_path, cache=cache)
    assert again.telemetry["executed"] == 1
    assert again.telemetry["probe_hits"] == 3


def test_resume_repairs_corrupted_cache_entry(tmp_path):
    """A torn store entry (killed writer, truncating filesystem) must
    read as absent at resume — that cell re-executes and the write-
    through repairs the entry, instead of the probe trusting the
    corrupt file forever."""
    cache = ResultCache(tmp_path / "cache")
    result = _run(tmp_path, cache=cache)
    victim = result.plan.keys[1]
    cache._path(victim).write_bytes(b"{torn")
    again = _run(tmp_path, cache=cache)
    assert again.ok
    assert again.telemetry["executed"] == 1
    assert again.telemetry["probe_hits"] == 3
    # The re-executed cell wrote the entry back whole.
    repaired = ResultCache(tmp_path / "cache")
    assert repaired.contains(victim)
    assert repaired.get(victim) is not None


def test_refresh_reexecutes_everything(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    _run(tmp_path, cache=cache)
    result = _run(tmp_path, cache=cache, refresh=True)
    assert result.telemetry["executed"] == 4
    assert result.telemetry["probe_hits"] == 0


def test_spec_change_starts_fresh_manifest(tmp_path):
    _run(tmp_path)
    changed = dict(SPEC)
    changed["sweeps"] = [dict(SPEC["sweeps"][0])]
    changed["sweeps"][0] = dict(changed["sweeps"][0])
    changed["sweeps"][0]["matrix"] = {"nbytes": [1024], "mode": ["none"]}
    result = _run(tmp_path, spec=changed)
    assert result.telemetry["resumed"] is False
    # The one remaining cell was already cached by the first campaign.
    assert result.telemetry["probe_hits"] == 1
    assert result.telemetry["executed"] == 0


def test_manifest_records_spec_digest(tmp_path):
    result = _run(tmp_path)
    manifest = CampaignManifest.load(tmp_path / "camp" / "campaign.json")
    assert manifest is not None
    assert manifest.spec_digest == spec_digest(result.spec)
    assert [e.key for e in manifest.cells] == result.plan.keys


def test_failed_cell_marked_and_artifacts_skipped(tmp_path):
    bad = {
        "name": "t",
        "experiments": ["models"],
        "sweeps": [
            {
                "name": "poison",
                "matrix": {"mode": ["none", "warp-speed"]},
                "params": {"op": "alltoall", "n_ranks": 16, "nbytes": 1024},
            }
        ],
        "artifacts": ["models"],
    }
    result = _run(tmp_path, spec=bad)
    assert not result.ok
    counts = result.manifest.counts()
    assert counts["failed"] == 1
    assert counts["done"] == 5  # 4 models cells + the good grid cell
    (entry,) = [e for e in result.manifest.cells if e.status == "failed"]
    assert "warp-speed" in (entry.error or "")
    assert result.artifacts == []
    assert not (tmp_path / "camp" / "artifacts").exists()


def test_artifacts_rendered_from_cache(tmp_path):
    spec = {"name": "t", "experiments": ["models"]}
    result = _run(tmp_path, spec=spec)
    assert result.ok
    (record,) = result.artifacts
    assert record["experiment"] == "models"
    data = json.loads((tmp_path / "camp" / "artifacts" / "models.json").read_text())
    assert data["rows"]


def test_artifacts_byte_identical_to_direct_experiment_run(tmp_path):
    """The campaign's artifact JSON matches `repro experiment models
    --json` byte for byte — same plan, same schema, warm cache."""
    from pathlib import Path

    from repro.bench import CELL_PLANS, run_plan, save_json

    spec = {"name": "t", "experiments": ["models"]}
    cache = ResultCache(tmp_path / "cache")
    result = _run(tmp_path, spec=spec, cache=cache)
    assert result.ok

    (headers, rows, notes), _ = run_plan(CELL_PLANS["models"](), jobs=1,
                                         cache=cache)
    direct = Path(save_json("models", headers, rows, notes,
                            results_dir=str(tmp_path / "direct")))
    campaign_json = tmp_path / "camp" / "artifacts" / "models.json"
    assert campaign_json.read_bytes() == direct.read_bytes()


def test_telemetry_written(tmp_path):
    _run(tmp_path)
    tele = json.loads((tmp_path / "camp" / "telemetry.json").read_text())
    assert tele["campaign"] == "t"
    assert tele["cells_total"] == 4
    assert "cell_wall_s" in tele


def test_stats_cover_probe_and_execution(tmp_path):
    _run(tmp_path)
    result = _run(tmp_path)
    assert result.stats.cells_total == 4
    assert result.stats.cache_hits >= 4


def test_stats_count_every_wave(tmp_path, monkeypatch):
    """A campaign's waves share one SweepStats: what it saves for
    ``bench-report`` counts every wave's cells, as telemetry does."""
    from repro.campaign import executor

    monkeypatch.setattr(executor, "MIN_WAVE", 1)  # jobs=1: waves of 8
    clear_memo()
    grid = dict(SPEC["sweeps"][0])
    grid["matrix"] = {"nbytes": [1 << k for k in range(10, 16)],
                      "mode": ["none", "proposed"]}
    result = _run(tmp_path, spec={"name": "waves", "sweeps": [grid]})
    assert result.ok
    assert result.telemetry["executed"] == 12
    assert result.stats.executed == result.stats.unique_executed == 12
    assert len(result.stats.timings) == 12
