"""End-to-end benchmark of the simulator: host time per workload, per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload governed_alltoall --seed 7 \\
        --seconds 30 --trace 0

One run sets the workload up (imports, specs, store and campaign plan,
one warm-up of a tiny twin of the workload), then repeats the workload's
unit for ``--seconds`` seconds from an identical starting state: every
repetition runs ``gc.collect()``, ``clear_memo()`` and
``clear_substrate_cache()`` first and gets a fresh store and campaign
dir.  ``wall_s`` is the median repetition: the simulation is
deterministic, but the host's speed drifts both ways by tens of percent
within a minute, so the fastest repetition is an extreme that catches a
rare fast spell and moves far more between runs than the median does.

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``).  ``--trace 1`` prints the per-layer metrics: exact
counts from the untraced repetitions plus self times from one traced
repetition in a separate process (its span buffers cannot inflate
``peak_rss_mb``), and the tracing overhead.

Every operation (one cell execution) is checked: each repetition's
output digest must equal the digest pinned in ``workloads.py`` where the
inputs are the default seed's, else the first repetition's; every
finished session must satisfy per-core + node-base energy == total and
flows started == flows finished.  A repetition that fails a check fails
all its operations.  The per-layer counts must repeat exactly across
repetitions and between the traced and untraced runs, and the bypass
zeros listed in :data:`BYPASS_ZEROS` must hold.

The last line of standard output is the result object; the line before
it carries diagnostics, among them ``host.ref_s``: a fixed stdlib-only
loop timed at the start and end of the run, which shows host drift
between sets of runs.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import probes
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")

#: Environment knobs that would change what the program does.
ENV_KNOBS = ("REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_SMALL_BATCH")
#: Setups per run (this process plus fresh child processes); setup_s is
#: their median.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150

#: Per-layer self-time metrics and the span-clock bucket each reads.
SELF_TIMES = {
    "sim.self_s": "sim",
    "mpi.self_s": "mpi",
    "network.self_s": "network",
    "power.self_s": "power",
    "runtime.self_s": "runtime",
    "faults.self_s": "faults",
    "runner.self_s": "runner",
    "runner.store_s": "runner.store",
    "campaign.expand_s": "campaign.expand",
    "campaign.self_s": "campaign",
    "campaign.render_s": "campaign.render",
}

_RUNTIME_FAULT_COUNTS = (
    "runtime.calls_observed", "runtime.waits_observed",
    "runtime.timers_armed", "runtime.drops",
    "faults.noise_pulses", "faults.jittered_transitions",
)
#: Counts that must be 0 on this code: the instrumentation a workload
#: bypasses must do no work there.
BYPASS_ZEROS = {
    workloads.GOVERNED: ("runner.store_writes",),
    workloads.PLAIN: _RUNTIME_FAULT_COUNTS + ("power.segments", "runner.store_writes"),
    workloads.CAMPAIGN: _RUNTIME_FAULT_COUNTS,
}


def host_ref_s() -> float:
    """Fastest of three timings of a fixed pure-stdlib loop (no repo code)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        heap: list = []
        table: dict = {}
        x = 1
        for i in range(100_000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, x)
            table[x & 4095] = i
        while heap:
            heapq.heappop(heap)
        best = min(best, time.perf_counter() - t0)
    return best


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the setup-only and traced child processes.
    parser.add_argument("--role", choices=("main", "setup", "traced"),
                        default="main", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(args, work_dir, traced=False):
    """Import the program, build the workload, install the probes and
    warm up.  Everything here counts towards ``setup_s``."""
    sys.path.insert(0, SRC)
    targets = probes.load_targets()
    import repro

    origin = os.path.realpath(repro.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"repro imported from {origin}, not from {SRC}")
    counters = probes.Counters()
    counters.install(targets)
    clock = None
    if traced:
        clock = probes.SpanClock()
        clock.install(targets)
    workload = workloads.make(args.workload, args.seed, work_dir)
    workload.warm_up()
    return workload, counters, clock


def repetition(workload, counters, clock=None):
    """One isolated repetition; returns (wall_s, output, span self times
    or None when untraced)."""
    from repro.runner import clear_memo, clear_substrate_cache

    clear_memo()
    clear_substrate_cache()
    workload.prepare()
    gc.collect()
    counters.reset()
    if clock is not None:
        clock.start()
    t0 = time.perf_counter()
    output = workload.run()
    wall = time.perf_counter() - t0
    self_s = clock.stop() if clock is not None else None
    return wall, output, self_s


def check_repetition(workload, counters, output, ref_digest):
    """Check one repetition's output against the pinned digest, else
    against ``ref_digest`` (the first repetition's); returns (digest,
    operations, failed operations, per-layer counts)."""
    digest, ops = workload.check(output, counters)
    counts = counters.snapshot()
    expected = workload.pinned or ref_digest or digest
    if digest != expected or counters.violations:
        failed = len(ops)
    else:
        failed = ops.count("missing")
    return digest, len(ops), failed, counts


def run_child(args, role):
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--role", role]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{role} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def role_setup(args, work_dir):
    t0 = time.perf_counter()
    setup(args, work_dir)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def role_traced(args, work_dir):
    workload, counters, clock = setup(args, work_dir, traced=True)
    wall, output, self_s = repetition(workload, counters, clock)
    digest, ops, _failed, counts = check_repetition(
        workload, counters, output, None)
    workload.cleanup()
    print(json.dumps({
        "wall_s": wall, "self_s": self_s, "counts": counts,
        "digest": digest, "ops": ops, "violations": counters.violations,
    }))
    return 0


def measure(args, workload, counters):
    """Repeat the unit for ``args.seconds``; returns the walls, the counts
    (identical in every repetition, or an error says so), the output
    digest, operations attempted and failed, and error messages."""
    walls, errors = [], []
    attempted = failed = 0
    ref = counts = None
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        try:
            wall, output, _ = repetition(workload, counters)
            digest, ops, rep_failed, rep_counts = check_repetition(
                workload, counters, output, ref)
        except Exception:  # noqa: BLE001 - reported as a failed operation
            errors.append(traceback.format_exc())
            attempted += 1
            failed += 1
            break
        finally:
            workload.cleanup()
        errors.extend(counters.violations)
        if ref is None:
            ref, counts = digest, rep_counts
        elif rep_counts != counts:
            errors.append(
                f"per-layer counts of repetition {len(walls) + 1} differ from "
                f"the first: {rep_counts} != {counts}")
        attempted += ops
        failed += rep_failed
        walls.append(wall)
    return walls, counts, ref, attempted, failed, errors


def role_main(args, work_dir):
    ref_start = host_ref_s()
    t0 = time.perf_counter()
    workload, counters, _ = setup(args, work_dir)
    setup_samples = [time.perf_counter() - t0]
    if not args.trace:
        setup_samples += [run_child(args, "setup")["setup_s"]
                          for _ in range(SETUP_SAMPLES - 1)]
    walls, counts, digest, attempted, failed, errors = measure(
        args, workload, counters)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_end = host_ref_s()
    if not walls:
        sys.stderr.write("".join(errors))
        return 1
    wall_s = statistics.median(walls)
    for name in BYPASS_ZEROS[args.workload]:
        if counts[name] != 0:
            errors.append(f"bypass check: {name} = {counts[name]}, expected 0")

    if args.trace:
        traced = run_child(args, "traced")
        attempted += traced["ops"]
        if traced["digest"] != digest or traced["violations"]:
            failed += traced["ops"]
            errors.append("the traced repetition changed the simulated output")
            errors.extend(traced["violations"])
        if traced["counts"] != counts:
            errors.append(
                "per-layer counts differ between the traced and untraced "
                f"runs: {traced['counts']} != {counts}")
        metrics = per_layer_metrics(counts, wall_s, traced)
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }

    for message in errors:
        sys.stderr.write(message.rstrip() + "\n")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "host.ref_s": {"start": ref_start, "end": ref_end},
        "walls_s": walls, "setup_samples_s": setup_samples,
        "traced_wall_s": traced["wall_s"] if args.trace else None,
        "digest": digest, "errors": len(errors),
    }))
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


def per_layer_metrics(counts, wall_s, traced):
    metrics = {name: {"value": value, "unit": "count"}
               for name, value in counts.items()}
    events = counts["sim.events"]
    metrics["sim.us_per_event"] = {
        "value": wall_s / events * 1e6 if events else 0.0, "unit": "us"}
    self_s = traced["self_s"]
    attributed = 0.0
    for name, bucket in SELF_TIMES.items():
        value = self_s.get(bucket, 0.0)
        attributed += value
        metrics[name] = {"value": value, "unit": "s"}
    metrics["trace.unattributed_s"] = {
        "value": traced["wall_s"] - attributed, "unit": "s"}
    metrics["trace.overhead_pct"] = {
        "value": (traced["wall_s"] / wall_s - 1.0) * 100.0, "unit": "%"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for knob in ENV_KNOBS:
        if os.environ.pop(knob, None) is not None and args.role == "main":
            sys.stderr.write(f"ignoring {knob} from the environment\n")
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.role}-", dir=WORK_ROOT)
    try:
        role = {"main": role_main, "setup": role_setup, "traced": role_traced}
        return role[args.role](args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
