"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``info``
    Print the simulated testbed and calibration summary.
``osu``
    Run a simulated OSU microbenchmark (latency / bw / bibw / collectives).
``app``
    Run one of the paper's application workloads under a power scheme.
``experiment``
    Run any paper figure/table experiment and print its series.
``experiments``
    List the available experiments.
``bench-report``
    Print cache statistics and per-cell timings from the last sweep run.
``campaign run|status|report``
    Run, resume, or inspect a declarative sweep campaign
    (:mod:`repro.campaign`): a YAML/JSON spec expands to a deduplicated
    cell grid, the executor probes the result cache first and executes
    only the misses (so rerunning a finished campaign executes nothing
    and resuming an interrupted one picks up where it stopped), and a
    completed campaign renders its paper artifacts (JSON + txt).
``cache stats|gc``
    Inspect or garbage-collect the content-addressed result cache.
``trace-export``
    Convert a ``--trace`` JSONL file to a viewer format (Chrome trace
    JSON for chrome://tracing or https://ui.perfetto.dev).

The ``experiment`` / ``osu`` / ``app`` commands each build a
:class:`~repro.bench.SweepPlan` (``experiment`` takes it from
:data:`~repro.bench.CELL_PLANS`) and run it through
:func:`~repro.bench.run_plan`.  They accept ``--jobs N`` to
spread their independent simulation cells across worker processes and
``--cache-dir`` / ``--no-cache`` / ``--refresh`` to control the
content-addressed result cache (see :mod:`repro.runner`).  Parallel
output is bit-identical to serial output.  The observability flags
(``--trace`` / ``--metrics`` / ``--profile``) ride through the runner:
each cell captures its payload wherever it runs, the results carry the
payloads back, and the command writes them out in input order (see
:mod:`repro.obs`), so ``--jobs 4`` records exactly what ``--jobs 1``
does.  ``--governor`` / ``--faults`` /
``--power-cap`` are plan parameters: the configs serialize into each
cell's spec (and its cache key), workers reconstruct them, and the
per-run report dicts ride back on the results — there is exactly one
execution path.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from pathlib import Path
from typing import List, Optional

from .apps import APPS
from .bench import CELL_PLANS, SweepPlan, run_plan
from .bench.report import bytes_label, format_table, render_experiment
from .cluster.specs import ClusterSpec
from .collectives.registry import PowerMode
from .microbench import osu
from .mpi.p2p import ProgressMode
from .numeric import left_sum
from .power.model import PowerModel


def _parse_size(text: str) -> int:
    """'4', '16K', '1M' → bytes."""
    text = text.strip().upper()
    factor = 1
    if text.endswith("K"):
        factor, text = 1 << 10, text[:-1]
    elif text.endswith("M"):
        factor, text = 1 << 20, text[:-1]
    return int(text) * factor


def _canonical_experiment(name: str) -> Optional[str]:
    """Resolve an experiment name, tolerating zero-padding ('fig07a')."""
    key = name.lower()
    if key in CELL_PLANS:
        return key
    m = re.fullmatch(r"(fig|table)0*(\d+)([a-z]?)", key)
    if m:
        key = f"{m.group(1)}{int(m.group(2))}{m.group(3)}"
        if key in CELL_PLANS:
            return key
    return None


def _add_instrumentation_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a JSONL event trace of every simulation to FILE "
             "(schema: repro.sim.trace)",
    )
    subparser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write a JSON metrics snapshot (counters / gauges / "
             "sim-clock series; schema: repro.obs.metrics) to FILE",
    )
    subparser.add_argument(
        "--profile", action="store_true",
        help="print a wall-clock self-profile of the simulator afterwards",
    )
    subparser.add_argument(
        "--governor", choices=["none", "countdown", "predictive"], default=None,
        help="install the online power governor (repro.runtime) on every "
             "simulation this command runs",
    )
    subparser.add_argument(
        "--governor-theta", type=float, default=None, metavar="US",
        help="countdown threshold theta in microseconds "
             "(default 200; needs --governor)",
    )
    subparser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="perturb every simulation with a deterministic fault plan, "
             "e.g. 'degrade:factor=0.5;noise:period=500us;jitter' "
             "(grammar: repro.faults.parse_fault_spec)",
    )
    subparser.add_argument(
        "--fault-seed", type=int, default=None, metavar="N",
        help="seed for the fault plan's randomness (default 0; "
             "needs --faults)",
    )
    subparser.add_argument(
        "--power-cap", type=float, default=None, metavar="WATTS",
        help="enforce a cluster-wide power cap through the budget "
             "arbiter (repro.runtime.arbiter) on every simulation this "
             "command runs",
    )
    subparser.add_argument(
        "--arbiter", choices=["uniform", "redistribute"], default=None,
        help="cap-splitting policy (default uniform; needs --power-cap)",
    )


def _add_runner_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="run independent simulation cells across N worker processes "
             "(default: all cores, or $REPRO_JOBS; 1 = inline)",
    )
    subparser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache location "
             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    subparser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache for this run",
    )
    subparser.add_argument(
        "--refresh", action="store_true",
        help="recompute every cell, overwriting any cached results",
    )


def _fault_plan(args):
    """Build a FaultPlan from the CLI flags (None = not requested)."""
    spec = getattr(args, "faults", None)
    seed = getattr(args, "fault_seed", None)
    if spec is None:
        if seed is not None:
            raise SystemExit("--fault-seed requires --faults")
        return None
    if seed is not None and seed < 0:
        raise SystemExit(f"--fault-seed must be non-negative, got {seed}")
    from .faults import FaultSpecError, parse_fault_spec

    try:
        return parse_fault_spec(spec, seed=seed or 0)
    except FaultSpecError as exc:
        raise SystemExit(f"bad --faults spec: {exc}") from None


def _governor_config(args):
    """Build a GovernorConfig from the CLI flags (None = not requested)."""
    policy_name = getattr(args, "governor", None)
    theta_us = getattr(args, "governor_theta", None)
    if policy_name is None:
        if theta_us is not None:
            raise SystemExit("--governor-theta requires --governor")
        return None
    if theta_us is not None and theta_us <= 0:
        raise SystemExit(
            f"--governor-theta must be a positive duration in "
            f"microseconds, got {theta_us}"
        )
    from .runtime import GovernorConfig, GovernorPolicy

    kwargs = {"policy": GovernorPolicy(policy_name)}
    if theta_us is not None:
        kwargs["theta_s"] = theta_us * 1e-6
    return GovernorConfig(**kwargs)


def _arbiter_config(args):
    """Build an ArbiterConfig from the CLI flags (None = not requested)."""
    cap_w = getattr(args, "power_cap", None)
    policy_name = getattr(args, "arbiter", None)
    if cap_w is None:
        if policy_name is not None:
            raise SystemExit("--arbiter requires --power-cap")
        return None
    if cap_w <= 0:
        raise SystemExit(
            f"--power-cap must be a positive wattage, got {cap_w}"
        )
    from .runtime import ArbiterConfig, ArbiterPolicy

    return ArbiterConfig(
        policy=ArbiterPolicy(policy_name or "uniform"), power_cap_w=cap_w
    )


def _run_command(args, out, experiment: str, plan: SweepPlan, title: str,
                 json_dir: Optional[str] = None) -> int:
    """Run ``plan`` for one ``experiment``/``osu``/``app`` command.

    The --governor/--faults/--power-cap flags become configs that
    :func:`run_plan` overlays onto the plan's cells, the
    --trace/--metrics/--profile flags become the
    :class:`~repro.obs.capture.CaptureConfig` every cell collects, and
    the --jobs/--cache-dir/--no-cache/--refresh flags drive its runner.
    The captured payloads come back in input order: their records go to
    the trace file, their snapshots merge into one metrics registry and
    their profile samples fold into the --profile report.  After the
    table come the instrumentation summary lines, built from the report
    dicts the overlaid cells return.  Reports and payloads round-trip the
    result cache, so a warm rerun prints and writes them
    byte-identically.
    """
    from .obs.capture import CaptureConfig
    from .obs.metrics import MetricsRegistry
    from .runner import ResultCache, SweepStats, resolve_jobs, save_sweep_stats
    from .sim.trace import JsonlTracer

    governor_config = _governor_config(args)
    fault_plan = _fault_plan(args)
    arbiter_config = _arbiter_config(args)
    trace_path = args.trace
    metrics_path = args.metrics
    capture = CaptureConfig(trace=trace_path is not None,
                            metrics=metrics_path is not None,
                            profile=args.profile)
    registry = MetricsRegistry() if capture.metrics else None
    samples = []
    with contextlib.ExitStack() as stack:
        tracer = None
        if trace_path is not None:
            try:
                tracer = stack.enter_context(JsonlTracer(trace_path))
            except OSError as exc:
                print(f"cannot open trace file {trace_path!r}: {exc}", file=out)
                return 2
        jobs = resolve_jobs(args.jobs, default=os.cpu_count() or 1)
        cache = (
            None if args.no_cache
            else ResultCache(Path(args.cache_dir) if args.cache_dir else None)
        )
        stats = SweepStats(experiment=experiment, jobs=jobs)
        (headers, rows, notes), reports = run_plan(
            plan, jobs=jobs, cache=cache, refresh=args.refresh, stats=stats,
            governor=(governor_config.to_dict()
                      if governor_config is not None else None),
            faults=fault_plan.to_dict() if fault_plan is not None else None,
            arbiter=(arbiter_config.to_dict()
                     if arbiter_config is not None else None),
            capture=capture,
        )
        for payload in reports["captured"]:
            if tracer is not None:
                for rec in payload["records"]:
                    tracer.emit(**rec)
            if registry is not None:
                registry.merge_snapshot(payload["metrics"])
            samples.extend(payload["profile"] or ())
        # The sweep summary goes to stderr so stdout stays byte-comparable
        # across warm and cold runs; bench-report reads the saved copy.
        line = stats.one_line()
        if cache is not None:
            cs = cache.stats()
            line += (
                f" | disk cache {cs['hits']} hits / {cs['misses']} misses"
                f" / {cs['writes']} writes ({cache.root})"
            )
            if cs.get("write_errors"):
                line += f" | {cs['write_errors']} WRITE ERRORS (store degraded)"
        print(line, file=sys.stderr)
        save_sweep_stats(
            stats, cache=cache,
            metrics=registry.snapshot() if registry is not None else None,
        )
        print(render_experiment(title, headers, rows, notes), file=out)
        if json_dir is not None:
            from .bench import save_json

            path = save_json(title, headers, rows, notes, results_dir=json_dir)
            print(f"wrote {path}", file=out)
    if tracer is not None:
        print(
            f"wrote {tracer.records_written} trace records to {trace_path}",
            file=out,
        )
    if registry is not None:
        import json

        snapshot = registry.snapshot()
        try:
            with open(metrics_path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            print(f"cannot write metrics file {metrics_path!r}: {exc}", file=out)
            return 2
        n = len(snapshot["counters"]) + len(snapshot["gauges"]) + len(snapshot["series"])
        print(f"wrote {n} metrics to {metrics_path}", file=out)
    if governor_config is not None and reports["governor"]:
        from .runtime import merge_reports
        from .runtime.telemetry import GovernorReport

        governor_reports = [GovernorReport(**d) for d in reports["governor"]]
        print(merge_reports(governor_reports).one_line(), file=out)
        if args.profile:
            from .bench import save_governor_json

            path = save_governor_json(governor_reports)
            print(f"wrote governor telemetry to {path}", file=out)
    if fault_plan is not None:
        fault_reports = reports["faults"]
        if fault_reports:
            print(
                f"faults[seed={fault_plan.seed}] over {len(fault_reports)} runs: "
                f"{sum(r['link_events'] for r in fault_reports)} link events, "
                f"{sum(r['straggled_calls'] for r in fault_reports)} slowed computes, "
                f"{sum(r['noise_pulses'] for r in fault_reports)} noise pulses, "
                f"{sum(r['jittered_transitions'] for r in fault_reports)} "
                "jittered transitions",
                file=out,
            )
        else:
            print("faults: no simulation ran under the plan", file=out)
    if arbiter_config is not None:
        arbiter_reports = reports["arbiter"]
        if arbiter_reports:
            print(
                f"arbiter[{arbiter_config.policy.value} @ "
                f"{arbiter_config.power_cap_w:g} W] over "
                f"{len(arbiter_reports)} runs: "
                f"{sum(r['ticks'] for r in arbiter_reports)} ticks, "
                f"{sum(r['rebalances'] for r in arbiter_reports)} rebalances, "
                f"{sum(r['freq_changes'] for r in arbiter_reports)} node freq "
                f"changes, {left_sum(r['donated_j'] for r in arbiter_reports):.3g} J "
                "donated",
                file=out,
            )
        else:
            print("arbiter: no simulation ran under the cap", file=out)
    if args.profile:
        from .bench.profile import profile_report

        print(profile_report(samples), file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Power-aware collective communication (ICPP 2010) simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print testbed + calibration summary")
    sub.add_parser("experiments", help="list available experiments")
    sub.add_parser("validate", help="sanity-check the default configuration")

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument("name", metavar="NAME",
                       help="experiment name (see `experiments`); zero-padded "
                            "forms like fig07a are accepted")
    p_exp.add_argument("--json", metavar="DIR", default=None,
                       help="also write results/<name>.json under DIR")
    _add_instrumentation_flags(p_exp)
    _add_runner_flags(p_exp)

    p_osu = sub.add_parser("osu", help="run a simulated OSU microbenchmark")
    p_osu.add_argument(
        "bench",
        choices=["latency", "bw", "bibw", "alltoall", "bcast", "reduce",
                 "allreduce", "allgather"],
    )
    p_osu.add_argument("--size", type=_parse_size, default=None,
                       help="single message size (e.g. 64K); default: ladder")
    p_osu.add_argument("--ranks", type=int, default=64)
    p_osu.add_argument("--mode", choices=[m.value for m in PowerMode],
                       default="none")
    p_osu.add_argument("--blocking", action="store_true",
                       help="use blocking progression (default: polling)")
    p_osu.add_argument("--intra-node", action="store_true",
                       help="p2p benchmarks: use a same-node pair")
    _add_instrumentation_flags(p_osu)
    _add_runner_flags(p_osu)

    p_app = sub.add_parser("app", help="run an application workload")
    p_app.add_argument("name", choices=sorted(APPS))
    p_app.add_argument("--ranks", type=int, default=64, choices=[32, 64])
    p_app.add_argument("--mode", choices=[m.value for m in PowerMode],
                       default="none")
    _add_instrumentation_flags(p_app)
    _add_runner_flags(p_app)

    p_report = sub.add_parser(
        "bench-report",
        help="print cache statistics and per-cell timings of the last sweep",
    )
    p_report.add_argument(
        "--results-dir", default="results", metavar="DIR",
        help="directory holding last_sweep.json (default: results)",
    )
    p_report.add_argument(
        "--metrics", action="store_true",
        help="also print the metrics snapshot captured by the last sweep "
             "(requires the sweep to have run under --metrics)",
    )

    p_camp = sub.add_parser(
        "campaign",
        help="run, resume, or inspect a declarative sweep campaign",
    )
    camp_sub = p_camp.add_subparsers(dest="campaign_cmd", required=True)
    p_camp_run = camp_sub.add_parser(
        "run", help="run a campaign spec (resumes automatically: cells "
                    "already in the result cache are never re-executed)",
    )
    p_camp_run.add_argument("spec", metavar="SPEC",
                            help="campaign spec file (.yaml/.yml/.json)")
    p_camp_run.add_argument(
        "--dir", default=None, metavar="DIR",
        help="campaign directory for manifest/telemetry/artifacts "
             "(default: results/campaigns/<name>)",
    )
    p_camp_run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: spec's jobs, $REPRO_JOBS, or "
             "all cores)",
    )
    p_camp_run.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared result cache (default: spec's cache_dir, "
             "$REPRO_CACHE_DIR, or ~/.cache/repro)",
    )
    p_camp_run.add_argument(
        "--refresh", action="store_true",
        help="re-execute every cell, overwriting cached results",
    )
    p_camp_run.add_argument(
        "--no-artifacts", action="store_true",
        help="skip the artifact-rendering stage",
    )
    for sub_name, sub_help in (
        ("status", "per-cell status of a campaign's manifest"),
        ("report", "telemetry + artifact summary of a campaign"),
    ):
        p_c = camp_sub.add_parser(sub_name, help=sub_help)
        p_c.add_argument("spec", metavar="SPEC", help="campaign spec file")
        p_c.add_argument("--dir", default=None, metavar="DIR",
                         help="campaign directory (default: "
                              "results/campaigns/<name>)")

    p_cache = sub.add_parser(
        "cache", help="inspect or garbage-collect the result cache",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_cmd", required=True)
    p_cache_stats = cache_sub.add_parser(
        "stats", help="entry count, size, and per-experiment breakdown",
    )
    p_cache_gc = cache_sub.add_parser(
        "gc", help="evict corrupt, expired, and over-budget entries "
                   "(oldest first)",
    )
    for p_c in (p_cache_stats, p_cache_gc):
        p_c.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="cache location (default: $REPRO_CACHE_DIR or "
                 "~/.cache/repro)",
        )
    p_cache_gc.add_argument(
        "--max-age", type=float, default=None, metavar="DAYS",
        help="evict entries older than DAYS (fractions allowed)",
    )
    p_cache_gc.add_argument(
        "--max-size", type=float, default=None, metavar="MB",
        help="evict oldest entries until the store fits MB megabytes",
    )
    p_cache_gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be evicted without deleting anything",
    )

    p_trace = sub.add_parser(
        "trace-export",
        help="convert a --trace JSONL file to a trace-viewer format",
    )
    p_trace.add_argument(
        "trace", metavar="TRACE.jsonl",
        help="JSONL trace written by --trace (schema: repro.sim.trace)",
    )
    p_trace.add_argument(
        "--format", choices=["chrome"], default="chrome",
        help="output format (chrome: Trace Event JSON for "
             "chrome://tracing / https://ui.perfetto.dev)",
    )
    p_trace.add_argument(
        "--out", metavar="FILE", default=None,
        help="output path (default: alongside the input, "
             ".jsonl -> .chrome.json)",
    )
    return parser


def cmd_info(out) -> int:
    spec = ClusterSpec.paper_testbed()
    model = PowerModel()
    rows = [
        ("nodes", spec.nodes),
        ("sockets/node", spec.node.sockets),
        ("cores/socket", spec.node.cpu.cores_per_socket),
        ("total cores", spec.total_cores),
        ("fmin..fmax (GHz)", f"{spec.node.cpu.fmin}..{spec.node.cpu.fmax}"),
        ("T-states", "T0..T7 (12% active at T7)"),
        ("Odvfs/Othrottle (us)", spec.node.cpu.dvfs_latency_s * 1e6),
        ("core power @fmax (W)", model.full_core_power(spec.node.cpu.fmax)),
        ("core power @fmin (W)", model.full_core_power(spec.node.cpu.fmin)),
        ("node base power (W)", model.params.node_base_w),
        ("system @fmax polling (kW)", 2.3),
    ]
    print(format_table(["property", "value"], rows), file=out)
    return 0


def cmd_experiment(args, out, name: str) -> int:
    return _run_command(args, out, name, CELL_PLANS[name](), name,
                        json_dir=args.json)


def cmd_osu(args, out) -> int:
    from .runner import SweepCell

    progress = ProgressMode.BLOCKING if args.blocking else ProgressMode.POLLING
    sizes = [args.size] if args.size is not None else list(osu.DEFAULT_SIZES[2:9])
    experiment = f"osu-{args.bench}"
    cells = [
        SweepCell(
            experiment=experiment,
            kind="osu",
            params={
                "bench": args.bench,
                "nbytes": nbytes,
                "n_ranks": args.ranks,
                "mode": args.mode,
                "blocking": args.blocking,
                "intra_node": args.intra_node,
            },
            label=f"osu_{args.bench}/{bytes_label(nbytes)}",
        )
        for nbytes in sizes
    ]

    bandwidth = args.bench in ("bw", "bibw")
    if bandwidth:
        header = "Bandwidth (GB/s)"
    elif args.bench == "latency":
        header = "Latency (us)"
    else:
        header = "Avg latency (us)"

    def assemble(results):
        metrics = [r.extra["metric"] for r in results]
        rows = [(bytes_label(n), m / 1e9 if bandwidth else m * 1e6)
                for n, m in zip(sizes, metrics)]
        return ["Size", header], rows, ""

    title = f"osu_{args.bench} ({args.ranks} ranks, {args.mode}, {progress.value})"
    return _run_command(args, out, experiment, SweepPlan(cells, assemble), title)


def cmd_app(args, out) -> int:
    from .runner import SweepCell

    experiment = f"app-{args.name}"
    cell = SweepCell(
        experiment=experiment,
        kind="app",
        params={"app": args.name, "ranks": args.ranks, "mode": args.mode},
        label=f"{args.name}/{args.ranks}r/{args.mode}",
    )

    def assemble(results):
        (r,) = results
        rows = [
            ("total time (s)", r.app["total_time_s"]),
            ("alltoall time (s)", r.app["alltoall_time_s"]),
            ("alltoall fraction", r.app["alltoall_fraction"]),
            ("energy (kJ)", r.app["energy_kj"]),
            ("avg power (kW)", r.average_power_w / 1e3),
        ]
        return ["metric", "value"], rows, ""

    title = f"{APPS[args.name].name} @ {args.ranks} ranks, scheme={args.mode}"
    return _run_command(args, out, experiment, SweepPlan([cell], assemble), title)


def cmd_bench_report(args, out) -> int:
    from .bench.report import render_sweep_report
    from .runner import load_sweep_stats

    stats = load_sweep_stats(Path(args.results_dir))
    if stats is None:
        print(
            f"no sweep recorded under {args.results_dir!r}; run an "
            "experiment first (e.g. `python -m repro experiment fig7a`)",
            file=out,
        )
        return 1
    print(render_sweep_report(stats), file=out, end="")
    if getattr(args, "metrics", False):
        from .bench.report import render_metrics_report

        snapshot = stats.get("metrics")
        if snapshot:
            print(render_metrics_report(snapshot), file=out, end="")
        else:
            print(
                "no metrics in the last sweep; rerun it with "
                "--metrics FILE to capture them",
                file=out,
            )
    return 0


def cmd_trace_export(args, out) -> int:
    from .obs.chrome import export_chrome_trace

    src = Path(args.trace)
    dst = Path(args.out) if args.out else src.with_suffix(".chrome.json")
    try:
        info = export_chrome_trace(str(src), str(dst))
    except OSError as exc:
        print(f"cannot export trace {str(src)!r}: {exc}", file=out)
        return 2
    except ValueError as exc:
        print(f"bad trace file {str(src)!r}: {exc}", file=out)
        return 2
    print(
        f"exported {info['records']} records as {info['events']} Chrome "
        f"trace events to {dst}",
        file=out,
    )
    return 0


def cmd_campaign(args, out) -> int:
    from .campaign import (
        CampaignManifest,
        CampaignSpecError,
        default_campaign_dir,
        load_campaign,
        run_campaign,
        spec_digest,
    )

    try:
        spec = load_campaign(args.spec)
    except CampaignSpecError as exc:
        print(f"bad campaign spec: {exc}", file=out)
        return 2
    campaign_dir = Path(args.dir) if args.dir else default_campaign_dir(spec)

    if args.campaign_cmd == "run":
        from .runner import ResultCache, resolve_jobs, save_sweep_stats

        cache_dir = args.cache_dir or spec.cache_dir
        cache = ResultCache(Path(cache_dir) if cache_dir else None)
        jobs = resolve_jobs(
            args.jobs if args.jobs is not None else spec.jobs,
            default=os.cpu_count() or 1,
        )
        result = run_campaign(
            spec, campaign_dir=campaign_dir, cache=cache, jobs=jobs,
            refresh=args.refresh,
            artifacts=not args.no_artifacts,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
        save_sweep_stats(result.stats, cache=cache)
        tele = result.telemetry
        rows = [
            ("cells", len(result.plan)),
            ("duplicates folded", result.plan.duplicates),
            ("probe hits", tele["probe_hits"]),
            ("executed", tele["executed"]),
            ("failed", tele["failed"]),
            ("hit rate", f"{tele['hit_rate']:.3f}"),
            ("cell p50/p95 (s)",
             f"{tele['cell_wall_s']['p50']:.3f}/{tele['cell_wall_s']['p95']:.3f}"),
            ("artifacts", len(result.artifacts)),
            ("elapsed (s)", f"{tele['elapsed_s']:.2f}"),
        ]
        print(
            format_table([f"campaign {spec.name}", "value"], rows),
            file=out,
        )
        for record in result.artifacts:
            print(f"wrote {record['json']}", file=out)
            print(f"wrote {record['txt']}", file=out)
        if not result.ok:
            for entry in result.manifest.cells:
                if entry.status == "failed":
                    print(f"FAILED {entry.label}: {entry.error}", file=out)
            return 1
        return 0

    if args.campaign_cmd == "status":
        manifest = CampaignManifest.load(campaign_dir / "campaign.json")
        if manifest is None:
            print(
                f"no manifest under {campaign_dir} — campaign has not "
                "started (or the manifest is unreadable)",
                file=out,
            )
            return 1
        digest = spec_digest(spec)
        counts = manifest.counts()
        rows = [("spec digest", digest[:12])]
        if manifest.spec_digest != digest:
            rows.append(("NOTE", "spec changed since this manifest was written"))
        rows += [(status, counts[status]) for status in ("done", "pending", "failed")]
        print(format_table([f"campaign {spec.name}", "value"], rows), file=out)
        for entry in manifest.cells:
            if entry.status != "done":
                line = f"{entry.status:8s} {entry.experiment}  {entry.label}"
                if entry.error:
                    line += f"  ({entry.error})"
                print(line, file=out)
        return 0 if manifest.complete else 1

    # report: telemetry + artifacts of the last run
    tele_path = campaign_dir / "telemetry.json"
    try:
        import json as _json

        with open(tele_path, "r", encoding="utf-8") as fh:
            tele = _json.load(fh)
    except (OSError, ValueError):
        print(
            f"no telemetry under {campaign_dir} — run the campaign first",
            file=out,
        )
        return 1
    rows = [
        ("jobs", tele.get("jobs", "?")),
        ("resumed", tele.get("resumed", False)),
        ("cells", tele.get("cells_total", 0)),
        ("probe hits", tele.get("probe_hits", 0)),
        ("executed", tele.get("executed", 0)),
        ("failed", tele.get("failed", 0)),
        ("hit rate", f"{tele.get('hit_rate', 0.0):.3f}"),
        ("elapsed (s)", f"{tele.get('elapsed_s', 0.0):.2f}"),
    ]
    wall = tele.get("cell_wall_s") or {}
    if wall:
        rows.append(
            ("cell p50/p95/max (s)",
             f"{wall.get('p50', 0):.3f}/{wall.get('p95', 0):.3f}"
             f"/{wall.get('max', 0):.3f}")
        )
    print(format_table([f"campaign {tele.get('campaign', spec.name)}", "value"],
                       rows), file=out)
    for record in tele.get("artifacts", ()):
        print(f"artifact {record['experiment']}: {record['json']}", file=out)
    return 0


def cmd_cache(args, out) -> int:
    from .runner import ResultCache

    cache = ResultCache(Path(args.cache_dir) if args.cache_dir else None)
    if args.cache_cmd == "stats":
        stats = cache.disk_stats()
        rows = [
            ("entries", stats["entries"]),
            ("total size (MB)", f"{stats['total_bytes'] / 1e6:.2f}"),
            ("corrupt", stats["corrupt"]),
            ("writable", "yes" if stats["writable"] else "NO (degraded)"),
        ]
        for experiment, count in sorted(stats["by_experiment"].items()):
            rows.append((f"  {experiment}", count))
        print(format_table([f"cache {cache.root}", "value"], rows), file=out)
        return 0

    # gc
    report = cache.gc(
        max_age_s=args.max_age * 86400.0 if args.max_age is not None else None,
        max_size_bytes=int(args.max_size * 1e6) if args.max_size is not None else None,
        dry_run=args.dry_run,
    )
    verb = "would remove" if report["dry_run"] else "removed"
    removed = report["removed"]
    print(
        f"{verb} {report['removed_total']} entries "
        f"({removed['corrupt']} corrupt, {removed['expired']} expired, "
        f"{removed['evicted']} evicted, {removed['tmp']} tmp), "
        f"freeing {report['freed_bytes'] / 1e6:.2f} MB; "
        f"{report['kept']} entries kept ({cache.root})",
        file=out,
    )
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return cmd_info(out)
    if args.command == "experiments":
        for name in sorted(CELL_PLANS):
            print(f"{name:22s} {CELL_PLANS[name].__doc__.splitlines()[0]}", file=out)
        return 0
    if args.command == "validate":
        from .validate import is_valid, validate_configuration

        findings = validate_configuration()
        for finding in findings:
            print(finding, file=out)
        ok = is_valid(findings)
        print("configuration OK" if ok else "configuration INVALID", file=out)
        return 0 if ok else 1
    if args.command == "experiment":
        name = _canonical_experiment(args.name)
        if name is None:
            print(
                f"unknown experiment {args.name!r}; run "
                "`python -m repro experiments` for the list",
                file=out,
            )
            return 2
        return cmd_experiment(args, out, name)
    if args.command == "osu":
        return cmd_osu(args, out)
    if args.command == "app":
        return cmd_app(args, out)
    if args.command == "bench-report":
        return cmd_bench_report(args, out)
    if args.command == "campaign":
        return cmd_campaign(args, out)
    if args.command == "cache":
        return cmd_cache(args, out)
    if args.command == "trace-export":
        return cmd_trace_export(args, out)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
