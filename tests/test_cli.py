"""Tests for the command-line interface."""

import io

import pytest

from repro.bench import CELL_PLANS
from repro.cli import _parse_size, build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_parse_size():
    assert _parse_size("4") == 4
    assert _parse_size("16K") == 16 << 10
    assert _parse_size("1M") == 1 << 20
    assert _parse_size("2m") == 2 << 20


def test_info():
    code, text = run_cli("info")
    assert code == 0
    assert "total cores" in text
    assert "64" in text


def test_experiments_listing():
    code, text = run_cli("experiments")
    assert code == 0
    for name in ("fig7a", "table1", "ext-racks"):
        assert name in text


def test_experiment_names_all_registered():
    # Every registered plan producer is callable with no args and carries
    # the docstring whose first line `repro experiments` lists.
    for name, producer in CELL_PLANS.items():
        assert callable(producer), name
        assert producer.__doc__ and producer.__doc__.strip(), name


def test_osu_latency_command():
    code, text = run_cli("osu", "latency", "--size", "4K")
    assert code == 0
    assert "Latency (us)" in text
    assert "4K" in text


def test_osu_collective_command():
    code, text = run_cli("osu", "bcast", "--size", "64K", "--ranks", "32",
                         "--mode", "dvfs")
    assert code == 0
    assert "Avg latency" in text


def test_osu_bw_intra_node():
    code, text = run_cli("osu", "bw", "--size", "256K", "--intra-node")
    assert code == 0
    assert "Bandwidth" in text


def test_app_command():
    code, text = run_cli("app", "nas-is", "--ranks", "64", "--mode", "proposed")
    assert code == 0
    assert "energy (kJ)" in text
    assert "alltoall fraction" in text


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bogus"])


def test_unknown_experiment_rejected():
    code, text = run_cli("experiment", "fig99")
    assert code == 2
    assert "unknown experiment" in text


def test_experiment_name_zero_padding_accepted():
    from repro.cli import _canonical_experiment

    assert _canonical_experiment("fig07a") == "fig7a"
    assert _canonical_experiment("FIG7A") == "fig7a"
    assert _canonical_experiment("table01") == "table1"
    assert _canonical_experiment("fig99") is None


def test_experiment_trace_flag_writes_jsonl(tmp_path, monkeypatch):
    import json

    monkeypatch.chdir(tmp_path)
    trace = tmp_path / "t.jsonl"
    code, text = run_cli("experiment", "fig2c", "--trace", str(trace),
                         "--no-cache")
    assert code == 0
    assert "trace records" in text
    lines = trace.read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert "t" in first and "type" in first


def test_experiment_profile_flag_reports(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, text = run_cli("experiment", "fig2c", "--profile", "--no-cache")
    assert code == 0
    assert "self-profile" in text
    assert "kernel events" in text


def test_governor_theta_must_be_positive():
    with pytest.raises(SystemExit, match="governor-theta"):
        run_cli(
            "osu", "alltoall", "--size", "4K",
            "--governor", "countdown", "--governor-theta", "-5",
        )


def test_fault_seed_requires_faults():
    with pytest.raises(SystemExit, match="--fault-seed requires --faults"):
        run_cli("osu", "latency", "--size", "4K", "--fault-seed", "3")


def test_fault_seed_must_be_non_negative():
    with pytest.raises(SystemExit, match="non-negative"):
        run_cli(
            "osu", "latency", "--size", "4K",
            "--faults", "noise", "--fault-seed", "-1",
        )


def test_bad_fault_spec_named_in_error():
    with pytest.raises(SystemExit, match="bad --faults spec.*cosmic"):
        run_cli("osu", "latency", "--size", "4K", "--faults", "cosmic:rays=1")


def test_faults_flag_end_to_end():
    code, text = run_cli(
        "osu", "alltoall", "--size", "16K",
        "--faults", "degrade:factor=0.5;noise:period=1ms,pulse=25us",
        "--fault-seed", "3",
    )
    assert code == 0
    assert "faults[seed=3]" in text
    assert "link events" in text


def test_faults_runs_are_reproducible():
    spec = ("osu", "alltoall", "--size", "16K",
            "--faults", "straggler:mult=1.4;jitter:lo=0.8,hi=1.2")
    _, a = run_cli(*spec)
    _, b = run_cli(*spec)
    assert a == b


# -- power-budget arbiter flags ----------------------------------------------
def test_arbiter_requires_power_cap():
    with pytest.raises(SystemExit, match="--arbiter requires --power-cap"):
        run_cli("osu", "alltoall", "--size", "4K", "--arbiter", "redistribute")


def test_power_cap_must_be_positive():
    with pytest.raises(SystemExit, match="positive wattage"):
        run_cli("osu", "alltoall", "--size", "4K", "--power-cap", "-100")


def test_power_cap_end_to_end_prints_arbiter_summary():
    # 2000 W over the default 8-node testbed = 250 W/node: binding.
    code, text = run_cli(
        "osu", "alltoall", "--size", "16K", "--ranks", "16",
        "--power-cap", "2000", "--no-cache",
    )
    assert code == 0
    assert "arbiter[uniform @ 2000 W]" in text
    assert "freq changes" in text


def test_power_cap_reaches_app_cells():
    # App cells build their session under the cap: the run reports the
    # arbiter and its average power respects the 1000 W budget (the
    # uncapped run draws ~1.15 kW).
    code, text = run_cli(
        "app", "nas-is", "--ranks", "32", "--power-cap", "1000", "--no-cache",
    )
    assert code == 0
    assert "arbiter[uniform @ 1000 W] over 1 runs" in text
    (power_row,) = [line for line in text.splitlines() if "avg power (kW)" in line]
    assert float(power_row.split()[-1]) <= 1.0


# -- observability surface (repro.obs) ---------------------------------------
def test_metrics_flag_writes_snapshot(tmp_path, monkeypatch):
    import json

    monkeypatch.chdir(tmp_path)
    path = tmp_path / "metrics.json"
    code, text = run_cli(
        "osu", "alltoall", "--size", "16K", "--ranks", "8",
        "--metrics", str(path), "--no-cache",
    )
    assert code == 0
    assert f"metrics to {path}" in text
    snap = json.loads(path.read_text())
    assert set(snap) == {"counters", "gauges", "series"}
    assert snap["counters"]["net.flows_started"] > 0
    assert snap["gauges"]["sim.last_t"] > 0


def test_trace_survives_jobs_4(tmp_path, monkeypatch):
    """The satellite-1 regression: worker-side records must not be lost."""
    from repro.runner import clear_memo

    monkeypatch.chdir(tmp_path)
    counts = {}
    for jobs in ("1", "4"):
        clear_memo()
        path = tmp_path / f"trace-{jobs}.jsonl"
        code, _ = run_cli(
            "osu", "alltoall", "--size", "16K", "--ranks", "8",
            "--trace", str(path), "--jobs", jobs, "--no-cache",
        )
        assert code == 0
        counts[jobs] = path.read_text()
    assert counts["1"] == counts["4"]
    assert counts["1"].count("\n") > 0


def test_metrics_identical_across_jobs_and_cache(tmp_path, monkeypatch):
    import json

    from repro.runner import clear_memo

    monkeypatch.chdir(tmp_path)
    cache_dir = tmp_path / "cache"
    blobs = []
    for run, jobs in enumerate(("1", "4", "4")):  # third run = warm cache
        if run < 2:
            clear_memo()
        path = tmp_path / f"m{run}.json"
        code, _ = run_cli(
            "osu", "alltoall", "--size", "16K", "--ranks", "8",
            "--metrics", str(path), "--jobs", jobs,
            "--cache-dir", str(cache_dir),
        )
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_trace_export_chrome(tmp_path, monkeypatch):
    import json

    monkeypatch.chdir(tmp_path)
    trace = tmp_path / "run.jsonl"
    code, _ = run_cli(
        "osu", "alltoall", "--size", "16K", "--ranks", "8",
        "--trace", str(trace), "--no-cache",
    )
    assert code == 0
    code, text = run_cli("trace-export", str(trace))
    assert code == 0
    assert "Chrome trace events" in text
    out = tmp_path / "run.chrome.json"
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    assert events
    body = [e for e in events if e["ph"] != "M"]
    ts = [e["ts"] for e in body]
    assert ts == sorted(ts)  # monotonic Chrome timestamps
    assert {"X", "C"} <= {e["ph"] for e in body}


def test_trace_export_explicit_out_and_missing_file(tmp_path):
    code, text = run_cli("trace-export", str(tmp_path / "absent.jsonl"))
    assert code == 2
    assert "cannot export" in text

    src = tmp_path / "tiny.jsonl"
    src.write_text('{"t": 0.0, "type": "mark", "name": "x"}\n')
    dst = tmp_path / "custom.json"
    code, text = run_cli("trace-export", str(src), "--out", str(dst))
    assert code == 0
    assert dst.exists()


def test_bench_report_metrics_section(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(
        "osu", "alltoall", "--size", "16K", "--ranks", "8",
        "--metrics", str(tmp_path / "m.json"), "--no-cache",
    )
    assert code == 0
    code, text = run_cli("bench-report", "--metrics")
    assert code == 0
    assert "== metrics ==" in text
    assert "net.flows_started" in text


def test_bench_report_metrics_absent_hint(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli("osu", "alltoall", "--size", "16K", "--ranks", "8",
                      "--no-cache")
    assert code == 0
    code, text = run_cli("bench-report", "--metrics")
    assert code == 0
    assert "no metrics in the last sweep" in text
