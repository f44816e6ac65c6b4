"""Power-path scaling: columnar timeline vs the object-segment oracle.

The fabric kernel is vectorized (PR 8), which leaves energy accounting as
the per-state-change Python cost in governed/DVFS-heavy cells: every core
mutation fires the accountant listener, evaluates the power model, and
records a constant-power segment; the meter then folds all segments into
buckets.

This benchmark isolates exactly that path.  A governed + faulted
64-node / 512-rank alltoall is simulated **once** with a recording tracer
that captures the core state-mutation stream (the 1:1 image of what the
accountant listener sees).  The stream is then replayed into two fresh
accountants:

* **columnar** — ``EnergyAccountant`` (SegmentStore + memoized
  ``PowerModel`` + vectorized ``PowerMeter.from_segments``), the
  production path;
* **object** — ``ObjectAccountant`` (uncached power per state change, a
  ``PowerSegment`` list) and the loop meter ``meter_reference``, both
  from ``tests/oracles/energy.py`` — the pre-optimization path, kept as
  the differential oracle.  Run from the repository root
  (``python -m pytest benchmarks/bench_power_path.py``, or standalone
  with ``PYTHONPATH=src:.``).

Both replays must produce *byte-identical* per-core energies, totals and
meter traces (and match the live capture run), and the columnar path must
be at least :data:`MIN_POWER_SPEEDUP` times faster.  Outside the timed
region each columnar replay samples its meter once more under
``tracemalloc``: the fold's peak must stay within
:data:`MAX_METER_PEAK_MIB`, and the report records it next to the bytes
the segment store holds.  The report lands in
``results/BENCH_power.json`` and is gated in CI by
``check_kernel_scaling.py --power-json``.
"""

import gc
import json
import os
import time
import tracemalloc

import numpy as np

from repro.bench.report import format_table
from repro.cluster.cpu import Activity
from repro.cluster.specs import ClusterSpec
from repro.cluster.topology import Cluster
from repro.collectives.registry import CollectiveConfig, CollectiveEngine
from repro.faults.plan import parse_fault_spec
from repro.mpi.job import MpiJob
from repro.power.accounting import EnergyAccountant
from repro.power.meter import PowerMeter
from repro.power.model import PowerModel
from repro.runtime.governor import Governor, GovernorConfig, GovernorPolicy
from repro.sim.session import SimSession
from repro.sim.trace import Tracer
from tests.oracles.energy import ObjectAccountant, meter_reference

NODES = 64
RANKS = 512  # 64 nodes x 2 sockets x 4 cores
MSG_BYTES = 64 << 10
ITERATIONS = 1
FAULT_SPEC = "degrade:factor=0.6,frac=0.25;noise:period=500us,pulse=20us,frac=0.25"
FAULT_SEED = 7
#: Meter interval for the replayed trace: the governed alltoall's makespan
#: is a few hundred ms, so the paper's 0.5 s clamp-meter tick would yield
#: a single bucket; 0.2 ms gives a ~1000-point trace, proportional to the
#: paper's kW-vs-time plots.
METER_INTERVAL_S = 2e-4
#: Replays per mode; the reported wall is the best (the capture run is
#: expensive, the replays are not).
REPLAY_REPEATS = 3
#: Floor for the columnar-vs-object speedup (also enforced in CI by
#: check_kernel_scaling.py --power-json).
MIN_POWER_SPEEDUP = 5.0
#: Ceiling on the meter fold's tracemalloc peak (also enforced in CI by
#: check_kernel_scaling.py --power-json); a whole-timeline expansion of
#: this stream peaks near 96 MiB.
MAX_METER_PEAK_MIB = 8.0

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "results")

_FREQ, _TSTATE, _ACTIVITY = 0, 1, 2


class _RecordingTracer(Tracer):
    """Captures the core state-mutation stream as plain tuples.

    Core setters notify listeners first and trace second, both before the
    attribute flips — so ``(t, core_id, field, new)`` records, replayed as
    listener-call-then-apply, reproduce exactly what the live accountant
    observed.
    """

    enabled = True

    def __init__(self):
        self.records = []

    def emit(self, t, type, **data):  # every other event type: drop
        pass

    def power_state(self, t, core_id, node_id, kind, old, new):
        field = _FREQ if kind == "frequency" else _TSTATE
        self.records.append((t, core_id, field, new))

    def core_activity(self, t, core_id, node_id, old, new):
        self.records.append((t, core_id, _ACTIVITY, Activity(new)))


def capture_mutation_stream():
    """Run the governed + faulted alltoall once; returns the stream plus
    the live run's accounting results (the replay fidelity reference)."""
    tracer = _RecordingTracer()
    session = SimSession(
        cluster_spec=ClusterSpec.with_shape(NODES),
        tracer=tracer,
        governor=Governor(GovernorConfig(policy=GovernorPolicy.COUNTDOWN)),
        faults=parse_fault_spec(FAULT_SPEC, seed=FAULT_SEED),
    )
    job = MpiJob(RANKS, session=session, collectives=CollectiveEngine(CollectiveConfig()))

    def program(ctx):
        for _ in range(ITERATIONS):
            yield from ctx.alltoall(MSG_BYTES)

    wall_start = time.perf_counter()
    result = job.run(program)
    wall = time.perf_counter() - wall_start
    acct = session.accountant
    governor = session.governor
    live = {
        "wall_s": wall,
        "makespan_s": result.duration_s,
        "events": session.env.events_processed,
        "state_changes": len(tracer.records),
        "segments": len(acct.segments),
        "governor_drops": governor.drops,
        "timer_slots_armed": governor._timers.slots_armed,
        "timer_heap_entries": governor._timers.heap_timers,
        "per_core_energy_j": [
            acct.core_energy_j(core.core_id) for core in session.cluster.cores
        ],
        "cores_energy_j": acct.cores_energy_j(),
        "total_energy_j": acct.total_energy_j(),
    }
    return tracer.records, acct.finalized_at, live


def replay(records, end_time, columnar):
    """Feed the mutation stream into a fresh accountant of either mode,
    finalize, and meter-sample — the full power path, nothing else."""
    cluster = Cluster(ClusterSpec.with_shape(NODES))
    model = PowerModel()  # the oracle evaluates uncached regardless
    meter = PowerMeter(METER_INTERVAL_S)
    # Resolve core handles outside the timed region: the replay measures
    # the power path (listener + finalize + meter), not list indexing.
    cores = cluster.cores
    resolved = [(t, cores[cid], field, value)
                for t, cid, field, value in records]

    # timeit-style isolation: collect leftovers from the previous replay,
    # then keep the collector out of the timed region (the ~500k-tuple
    # record list makes every stray gen-2 pass a multi-ms charge billed
    # to whichever mode happens to be running).
    gc.collect()
    gc.disable()
    try:
        wall_start = time.perf_counter()
        acct = (EnergyAccountant if columnar else ObjectAccountant)(
            cluster, model
        )
        on_change = acct._on_change
        for t, core, field, value in resolved:
            on_change(core, t)
            if field == _FREQ:
                core.frequency_ghz = value
            elif field == _TSTATE:
                core.tstate = value
            else:
                core.activity = value
        acct.finalize(end_time)
        if columnar:
            trace = meter.sample(acct)
        else:
            trace = meter_reference(
                meter, acct.segments, acct.start_time, end_time,
                base_w=model.params.node_base_w * cluster.n_nodes,
            )
        wall = time.perf_counter() - wall_start
    finally:
        gc.enable()

    meter_peak_mib = None
    if columnar:
        # The fold's working memory, measured apart from its timing.
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            meter.sample(acct)
            meter_peak_mib = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()

    segments = acct.segments
    n = len(segments)
    edge = [segments[i] for i in (0, 1, n // 2, n - 2, n - 1)] if n >= 2 else []
    return {
        "wall_s": wall,
        "segments": n,
        "per_core_energy_j": [
            acct.core_energy_j(core.core_id) for core in cores
        ],
        "cores_energy_j": acct.cores_energy_j(),
        "total_energy_j": acct.total_energy_j(),
        "trace": trace,
        "edge_segments": edge,
        "meter_peak_mib": meter_peak_mib,
        "store_bytes": segments.nbytes if columnar else None,
    }


def _identical(columnar, obj, live):
    """Byte-identical across the two replays, and faithful to the live run."""
    return (
        columnar["per_core_energy_j"] == obj["per_core_energy_j"]
        and columnar["cores_energy_j"] == obj["cores_energy_j"]
        and columnar["total_energy_j"] == obj["total_energy_j"]
        and columnar["segments"] == obj["segments"]
        and columnar["edge_segments"] == obj["edge_segments"]
        and np.array_equal(columnar["trace"].times_s, obj["trace"].times_s)
        and np.array_equal(columnar["trace"].power_w, obj["trace"].power_w)
        and columnar["per_core_energy_j"] == live["per_core_energy_j"]
        and columnar["total_energy_j"] == live["total_energy_j"]
        and columnar["segments"] == live["segments"]
    )


def run_power_path():
    """Capture once, replay both modes; returns (headers, rows, notes,
    report) where ``report`` is the ``results/BENCH_power.json`` payload."""
    records, end_time, live = capture_mutation_stream()

    replay(records[: len(records) // 16 or 1], end_time, columnar=True)  # warm-up
    runs = {"columnar": [], "object": []}
    for _ in range(REPLAY_REPEATS):
        runs["columnar"].append(replay(records, end_time, columnar=True))
        runs["object"].append(replay(records, end_time, columnar=False))
    col = min(runs["columnar"], key=lambda r: r["wall_s"])
    obj = min(runs["object"], key=lambda r: r["wall_s"])
    meter_peak_mib = max(r["meter_peak_mib"] for r in runs["columnar"])

    identical = _identical(col, obj, live)
    speedup = obj["wall_s"] / max(col["wall_s"], 1e-9)
    per_segment_ns = {
        mode: 1e9 * r["wall_s"] / max(r["segments"], 1)
        for mode, r in (("columnar", col), ("object", obj))
    }

    report = {
        "workload": {
            "nodes": NODES,
            "ranks": RANKS,
            "op": "alltoall",
            "msg_bytes": MSG_BYTES,
            "iterations": ITERATIONS,
            "governor": "countdown",
            "fault_spec": FAULT_SPEC,
            "fault_seed": FAULT_SEED,
        },
        "capture": {
            "wall_s": live["wall_s"],
            "makespan_s": live["makespan_s"],
            "events": live["events"],
            "state_changes": live["state_changes"],
            "segments": live["segments"],
            "governor_drops": live["governor_drops"],
            "timer_slots_armed": live["timer_slots_armed"],
            "timer_heap_entries": live["timer_heap_entries"],
        },
        "meter": {
            "interval_s": METER_INTERVAL_S,
            "buckets": len(col["trace"]),
            "peak_mib": meter_peak_mib,
        },
        "store": {
            "bytes": col["store_bytes"],
            "bytes_per_segment": col["store_bytes"] / max(col["segments"], 1),
        },
        "replays": {
            "columnar": {
                "wall_s": col["wall_s"],
                "per_segment_ns": per_segment_ns["columnar"],
            },
            "object": {
                "wall_s": obj["wall_s"],
                "per_segment_ns": per_segment_ns["object"],
            },
        },
        "total_energy_j": col["total_energy_j"],
        "power_speedup": speedup,
        "identical": identical,
        "min_speedup": MIN_POWER_SPEEDUP,
        "max_meter_peak_mib": MAX_METER_PEAK_MIB,
    }

    headers = ["path", "wall (s)", "ns/segment", "segments", "identical"]
    rows = [
        ("object oracle", round(obj["wall_s"], 3),
         round(per_segment_ns["object"]), obj["segments"], identical),
        ("columnar", round(col["wall_s"], 3),
         round(per_segment_ns["columnar"]), col["segments"], identical),
    ]
    notes = [
        f"{NODES} nodes x 8 ranks, countdown-governed alltoall of "
        f"{MSG_BYTES >> 10} KB under '{FAULT_SPEC}' (seed {FAULT_SEED})",
        f"captured {live['state_changes']} core state changes "
        f"({live['segments']} segments) from one "
        f"{live['makespan_s'] * 1e3:.1f} ms run; replayed into both "
        "accountant modes + meter fold "
        f"(best of {REPLAY_REPEATS})",
        "identical = exact equality of per-core energies, totals, segment "
        "log and sampled trace across modes (and vs the live run)",
        f"θ-timer coalescing: {live['timer_slots_armed']} arms -> "
        f"{live['timer_heap_entries']} heap entries",
        f"columnar power-path speedup: {speedup:.1f}x "
        f"(gate: >={MIN_POWER_SPEEDUP:.0f}x)",
        f"meter fold peak {meter_peak_mib:.2f} MiB (tracemalloc, gate: "
        f"<={MAX_METER_PEAK_MIB:.0f} MiB); segment store "
        f"{col['store_bytes'] / 2**20:.1f} MiB",
    ]
    return headers, rows, notes, report


def save_power_json(report, results_dir=None):
    path = os.path.join(
        os.path.abspath(results_dir or RESULTS_DIR), "BENCH_power.json"
    )
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def test_power_path_speedup(capsys):
    headers, rows, notes, report = run_power_path()
    from repro.bench.report import render_experiment

    path = save_power_json(report)
    text = render_experiment(
        "Power path - columnar timeline vs object-segment oracle",
        headers, rows, "\n".join(f"  {n}" for n in notes),
    )
    with capsys.disabled():
        print("\n" + text, flush=True)
        print(f"  wrote {os.path.relpath(path)}", flush=True)

    # Both accountant modes are the same integrator: byte-identical.
    assert report["identical"], report
    # The columnar path carries the power-path vectorization gate.
    assert report["power_speedup"] >= MIN_POWER_SPEEDUP, report
    # The meter folds block by block: bounded by its budget, not the run.
    assert report["meter"]["peak_mib"] <= MAX_METER_PEAK_MIB, report
    # Coalescing must actually batch the governor's θ churn.
    capture = report["capture"]
    assert capture["timer_heap_entries"] < capture["timer_slots_armed"] / 2


if __name__ == "__main__":  # standalone: python benchmarks/bench_power_path.py
    headers, rows, notes, report = run_power_path()
    print(format_table(headers, rows))
    for note in notes:
        print(f"  {note}")
    print(f"  wrote {save_power_json(report)}")
