"""CLI surface: campaign run/status/report and cache stats/gc."""

import io
import json

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "name": "clitest",
        "sweeps": [{
            "name": "grid",
            "matrix": {"nbytes": [1024, 4096], "mode": ["none", "proposed"]},
            "params": {"op": "alltoall", "n_ranks": 16},
        }],
    }))
    return path


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    """Keep results/ and default dirs inside the test sandbox."""
    monkeypatch.chdir(tmp_path)


def test_campaign_run_and_rerun(tmp_path, spec_file):
    args = ("campaign", "run", str(spec_file),
            "--dir", str(tmp_path / "camp"),
            "--cache-dir", str(tmp_path / "cache"), "--jobs", "1")
    code, text = run_cli(*args)
    assert code == 0
    assert "campaign clitest" in text
    manifest = json.loads((tmp_path / "camp" / "campaign.json").read_text())
    assert manifest["counts"]["done"] == 4

    code, text = run_cli(*args)
    assert code == 0
    tele = json.loads((tmp_path / "camp" / "telemetry.json").read_text())
    assert tele["executed"] == 0
    assert tele["hit_rate"] == 1.0


def test_campaign_run_bad_spec(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "bogus": 1}))
    code, text = run_cli("campaign", "run", str(bad))
    assert code == 2
    assert "bad campaign spec" in text


def test_campaign_status_before_and_after(tmp_path, spec_file):
    code, text = run_cli("campaign", "status", str(spec_file),
                         "--dir", str(tmp_path / "camp"))
    assert code == 1
    assert "no manifest" in text

    run_cli("campaign", "run", str(spec_file),
            "--dir", str(tmp_path / "camp"),
            "--cache-dir", str(tmp_path / "cache"), "--jobs", "1")
    code, text = run_cli("campaign", "status", str(spec_file),
                         "--dir", str(tmp_path / "camp"))
    assert code == 0
    assert "done" in text


def test_campaign_report(tmp_path, spec_file):
    code, text = run_cli("campaign", "report", str(spec_file),
                         "--dir", str(tmp_path / "camp"))
    assert code == 1
    assert "no telemetry" in text

    run_cli("campaign", "run", str(spec_file),
            "--dir", str(tmp_path / "camp"),
            "--cache-dir", str(tmp_path / "cache"), "--jobs", "1")
    code, text = run_cli("campaign", "report", str(spec_file),
                         "--dir", str(tmp_path / "camp"))
    assert code == 0
    assert "hit rate" in text


def test_campaign_report_reads_older_telemetry(tmp_path, spec_file):
    """A telemetry.json that still carries the retired driver and shard
    records renders, without them."""
    camp = tmp_path / "camp"
    camp.mkdir()
    (camp / "telemetry.json").write_text(json.dumps({
        "campaign": "clitest", "driver": "shards", "jobs": 1,
        "cells_total": 4, "probe_hits": 0, "executed": 4, "failed": 0,
        "hit_rate": 0.0, "shards": [{"shard": 0, "cells": 4, "returncode": 0}],
        "shard_recovered": 0, "artifacts": [],
    }))
    code, text = run_cli("campaign", "report", str(spec_file),
                         "--dir", str(camp))
    assert code == 0
    assert "executed" in text
    assert "driver" not in text and "shard" not in text


def test_cache_stats_and_gc(tmp_path, spec_file):
    cache_dir = tmp_path / "cache"
    run_cli("campaign", "run", str(spec_file),
            "--dir", str(tmp_path / "camp"),
            "--cache-dir", str(cache_dir), "--jobs", "1")

    code, text = run_cli("cache", "stats", "--cache-dir", str(cache_dir))
    assert code == 0
    assert "entries" in text
    assert "clitest:grid" in text

    code, text = run_cli("cache", "gc", "--cache-dir", str(cache_dir),
                         "--max-age", "0", "--dry-run")
    assert code == 0
    assert "would remove 4" in text
    assert len(list(cache_dir.glob("*/*.json"))) == 4

    code, text = run_cli("cache", "gc", "--cache-dir", str(cache_dir),
                         "--max-age", "0")
    assert code == 0
    assert "removed 4" in text
    assert not list(cache_dir.glob("*/*.json"))
