"""Kernel scaling: incremental re-rating, vectorized kernel, timer churn.

Three studies of the simulator itself (no committed wall-clock baseline —
machine-dependent; the asserted properties are orderings and exactness).
The scalar reference kernel is ``ScalarFabric`` from
``tests/oracles/scalar_fabric.py``, so run from the repository root
(``python -m pytest benchmarks/bench_kernel_scaling.py``, or standalone
with ``PYTHONPATH=src:.``):

* **Incremental vs full re-rating** (scalar kernel): a 64-node / 512-rank
  XOR-schedule alltoall keeps ~512 flows in flight.  Whole-fabric
  re-rating touches every one of them on every flow arrival/completion;
  the incremental re-rater only re-solves the connected component that
  actually changed.  Both modes simulate the *same* schedule to the same
  horizon — identical bytes delivered — so the wall-clock gap is pure
  kernel overhead.  Each mode is timed three times, alternating, and the
  gated speedup is the ratio of the median wall times.
* **Vectorized vs scalar kernel**: the same alltoall run to *completion*
  under the production ``Fabric`` and the ``ScalarFabric`` oracle, serialized
  (one message per rank in flight) and windowed (4 outstanding rounds per
  rank — how real MPI alltoalls post, and the contended regime the paper
  studies).  The kernels must agree byte-for-byte; the windowed speedup
  is gated at >=5x by ``check_kernel_scaling.py`` via
  ``results/BENCH_kernel.json``.
* **Timer churn**: cancelled-timer heap compaction vs pure lazy deletion.
"""

import json
import os
import statistics
import time

from repro.bench.report import format_table
from repro.network import NetworkSpec
from repro.network.fabric import Fabric
from repro.sim import Environment
from tests.oracles.scalar_fabric import ScalarFabric

NODES = 64
RANKS_PER_NODE = 8
RANKS = NODES * RANKS_PER_NODE  # 512
ROUNDS = 16
MSG_BYTES = 64 << 10
NIC_BW = 3.2e9
#: Outstanding rounds per rank in the windowed alltoall (window=1 is the
#: fully serialized exchange).
WINDOW = 4
#: Floor for the windowed vectorized-vs-scalar speedup (also enforced in
#: CI by check_kernel_scaling.py --kernel-json).
MIN_VECTOR_SPEEDUP = 5.0
#: Timings per re-rating mode, alternating incremental and full, so one
#: slow timing on a noisy host cannot set the gated speedup.
RERATE_REPEATS = 3

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "results")


def _build(incremental: bool):
    """Fresh env + fabric + the full alltoall schedule (not yet run).

    Pinned to the scalar kernel: incremental-vs-full re-rating is a
    property of the scalar object-graph re-rater (the production kernel
    batches whole admission waves instead).
    """
    env = Environment()
    fabric = ScalarFabric(env, NetworkSpec(), full_recompute=not incremental)
    up = [fabric.add_link(f"up:{n}", NIC_BW) for n in range(NODES)]
    dn = [fabric.add_link(f"dn:{n}", NIC_BW) for n in range(NODES)]

    def rank_proc(env, rank):
        node, slot = divmod(rank, RANKS_PER_NODE)
        for step in range(1, ROUNDS + 1):
            peer_node = node ^ step  # XOR pairwise-exchange schedule
            yield fabric.transfer(
                [up[node], dn[peer_node]], MSG_BYTES,
                label=f"r{rank}.s{step}",
            )

    for rank in range(RANKS):
        env.process(rank_proc(env, rank))
    return env, fabric


def _run_mode(incremental: bool, horizon: float):
    env, fabric = _build(incremental)
    wall_start = time.perf_counter()
    env.run(until=horizon)
    wall = time.perf_counter() - wall_start
    return {
        "wall_s": wall,
        "events": env.events_processed,
        "rerate_calls": fabric.rerate_calls,
        "flows_rerated": fabric.flows_rerated,
        "bytes": fabric.bytes_delivered,
    }


def run_kernel_scaling():
    """Run both modes; returns (headers, rows, notes) like an experiment."""
    # Pass 1: incremental to completion, to learn the schedule's makespan.
    env, fabric = _build(incremental=True)
    wall_start = time.perf_counter()
    env.run()
    wall_complete = time.perf_counter() - wall_start
    makespan = env.now
    total_bytes = fabric.bytes_delivered
    assert total_bytes == RANKS * ROUNDS * MSG_BYTES

    # Pass 2: both modes to the same fixed horizon (full recompute cannot
    # afford the whole schedule — that asymmetry is the point), timed
    # RERATE_REPEATS times each in alternation; each mode reports its
    # median wall time.
    horizon = makespan * 0.25
    runs = {True: [], False: []}
    for _ in range(RERATE_REPEATS):
        for incremental in (True, False):
            runs[incremental].append(_run_mode(incremental, horizon))
    inc, full = (
        dict(runs[mode][0],
             wall_s=statistics.median(r["wall_s"] for r in runs[mode]))
        for mode in (True, False)
    )

    headers = [
        "mode", "wall (s)", "events", "rerate calls",
        "flows re-rated", "MB delivered",
    ]
    rows = [
        (
            name,
            round(r["wall_s"], 3),
            r["events"],
            r["rerate_calls"],
            r["flows_rerated"],
            round(r["bytes"] / 1e6, 3),
        )
        for name, r in (("incremental", inc), ("full recompute", full))
    ]
    notes = [
        f"{NODES} nodes x {RANKS_PER_NODE} ranks, {ROUNDS}-round XOR "
        f"alltoall of {MSG_BYTES >> 10} KB messages "
        f"({RANKS * ROUNDS} flows total), scalar kernel",
        f"fixed horizon = {horizon * 1e3:.3f} ms simulated "
        f"(25% of the {makespan * 1e3:.3f} ms makespan)",
        f"incremental full-schedule completion: {wall_complete:.3f} s wall, "
        f"{total_bytes / 1e6:.0f} MB",
        f"wall = median of {RERATE_REPEATS} alternating timings per mode",
        "speedup (same horizon): "
        f"{full['wall_s'] / max(inc['wall_s'], 1e-9):.1f}x",
    ]
    return headers, rows, notes, inc, full


# -- vectorized vs scalar kernel ---------------------------------------------

def _build_alltoall(vectorized: bool, window: int):
    """The same 64x512 XOR alltoall with ``window`` outstanding rounds
    per rank, under the production kernel or the scalar oracle."""
    env = Environment()
    fabric = (Fabric if vectorized else ScalarFabric)(env, NetworkSpec())
    up = [fabric.add_link(f"up:{n}", NIC_BW) for n in range(NODES)]
    dn = [fabric.add_link(f"dn:{n}", NIC_BW) for n in range(NODES)]

    def rank_proc(env, rank):
        node, slot = divmod(rank, RANKS_PER_NODE)
        for base in range(1, ROUNDS + 1, window):
            events = [
                fabric.transfer(
                    [up[node], dn[node ^ step]], MSG_BYTES,
                    label=f"r{rank}.s{step}",
                )
                for step in range(base, min(base + window, ROUNDS + 1))
            ]
            yield env.all_of(events)

    for rank in range(RANKS):
        env.process(rank_proc(env, rank))
    return env, fabric


def _run_alltoall(vectorized: bool, window: int):
    env, fabric = _build_alltoall(vectorized, window)
    wall_start = time.perf_counter()
    env.run()
    return {
        "wall_s": time.perf_counter() - wall_start,
        "makespan_s": env.now,
        "bytes": fabric.bytes_delivered,
        "link_bytes": fabric.link_bytes,
        "rerate_calls": fabric.rerate_calls,
        "flows_rerated": fabric.flows_rerated,
    }


def run_vector_kernel():
    """Vectorized vs scalar kernel on the full alltoall, both window
    shapes; returns (headers, rows, notes, report) where ``report`` is
    the ``results/BENCH_kernel.json`` payload."""
    _run_alltoall(True, 1)  # warm-up: numpy one-time dispatch setup

    cells = {}
    for name, window in (("serialized", 1), (f"window={WINDOW}", WINDOW)):
        scalar = _run_alltoall(False, window)
        vector = _run_alltoall(True, window)
        identical = (
            scalar["makespan_s"] == vector["makespan_s"]
            and scalar["bytes"] == vector["bytes"]
            and scalar["link_bytes"] == vector["link_bytes"]
        )
        cells[name] = {
            "window": window,
            "scalar_wall_s": scalar["wall_s"],
            "vector_wall_s": vector["wall_s"],
            "speedup": scalar["wall_s"] / max(vector["wall_s"], 1e-9),
            "identical": identical,
            "makespan_s": vector["makespan_s"],
            "bytes": vector["bytes"],
        }

    gated = cells[f"window={WINDOW}"]
    report = {
        "workload": {
            "nodes": NODES,
            "ranks": RANKS,
            "rounds": ROUNDS,
            "msg_bytes": MSG_BYTES,
            "nic_bw": NIC_BW,
            "gated_window": WINDOW,
        },
        "cells": cells,
        "vector_speedup": gated["speedup"],
        "identical": all(c["identical"] for c in cells.values()),
        "min_speedup": MIN_VECTOR_SPEEDUP,
    }

    headers = ["schedule", "scalar (s)", "vector (s)", "speedup", "identical"]
    rows = [
        (
            name,
            round(c["scalar_wall_s"], 3),
            round(c["vector_wall_s"], 3),
            f"{c['speedup']:.1f}x",
            c["identical"],
        )
        for name, c in cells.items()
    ]
    notes = [
        f"{NODES} nodes x {RANKS_PER_NODE} ranks, {ROUNDS}-round XOR "
        f"alltoall of {MSG_BYTES >> 10} KB messages, run to completion "
        "under both fabric kernels",
        f"window={WINDOW} posts {WINDOW} outstanding rounds per rank "
        "(contended components; the serialized exchange is the scalar "
        "re-rater's best case)",
        "identical = exact equality of makespan, bytes_delivered and "
        "per-link byte counters across kernels",
        f"vector kernel speedup (window={WINDOW}): {gated['speedup']:.1f}x "
        f"(gate: >={MIN_VECTOR_SPEEDUP:.0f}x)",
    ]
    return headers, rows, notes, report


def save_kernel_json(report, results_dir=None):
    path = os.path.join(
        os.path.abspath(results_dir or RESULTS_DIR), "BENCH_kernel.json"
    )
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _run_timer_churn(compact: bool, churn_iters: int = 40_000):
    """Arm a far-out timer and cancel it immediately, ``churn_iters``
    times — the governor-under-churn pattern that inflates the heap with
    garbage entries head purging can never reach."""
    env = Environment()
    if not compact:
        env.COMPACT_MIN = 10 ** 12  # threshold unreachable: lazy-only
    def driver(env):
        for i in range(churn_iters):
            timer = env.call_after(1e6, lambda t: None)
            timer.cancel()
            if i % 100 == 0:
                yield env.timeout(1e-6)
        yield env.timeout(0)

    env.process(driver(env))
    wall_start = time.perf_counter()
    env.run()
    return {
        "wall_s": time.perf_counter() - wall_start,
        "compactions": env.compactions,
    }


def run_timer_churn():
    """Compare cancelled-timer compaction against pure lazy deletion."""
    on = _run_timer_churn(compact=True)
    off = _run_timer_churn(compact=False)
    headers = ["mode", "wall (s)", "compactions"]
    rows = [
        ("fractional compaction", round(on["wall_s"], 3), on["compactions"]),
        ("lazy-only (head purge)", round(off["wall_s"], 3), off["compactions"]),
    ]
    notes = [
        "40k cancel-before-fire timers against ~400 live events",
        f"speedup: {off['wall_s'] / max(on['wall_s'], 1e-9):.1f}x",
    ]
    return headers, rows, notes, on, off


def test_incremental_rerate_beats_full_recompute(capsys):
    headers, rows, notes, inc, full = run_kernel_scaling()
    from repro.bench import save_report
    from repro.bench.report import render_experiment

    text = render_experiment(
        "Kernel scaling - incremental vs full fabric re-rating",
        headers, rows, "\n".join(f"  {n}" for n in notes),
    )
    save_report("kernel_scaling", text, results_dir=os.path.abspath(RESULTS_DIR))
    with capsys.disabled():
        print("\n" + text, flush=True)

    # Identical simulated state at the horizon: the incremental re-rater
    # is exact, not approximate.
    assert inc["bytes"] == full["bytes"]
    assert inc["events"] == full["events"]
    # Incremental touches far fewer flows per re-rating...
    assert inc["flows_rerated"] < full["flows_rerated"] / 5
    # ...and that shows up as wall-clock.
    assert inc["wall_s"] < full["wall_s"]


def test_vectorized_kernel_speedup(capsys):
    headers, rows, notes, report = run_vector_kernel()
    from repro.bench.report import render_experiment

    path = save_kernel_json(report)
    text = render_experiment(
        "Kernel scaling - vectorized vs scalar fabric kernel",
        headers, rows, "\n".join(f"  {n}" for n in notes),
    )
    with capsys.disabled():
        print("\n" + text, flush=True)
        print(f"  wrote {os.path.relpath(path)}", flush=True)

    # The two kernels are the same simulator: byte-identical end state.
    assert report["identical"], report
    # The windowed (contended) cell carries the vectorization gate.
    assert report["vector_speedup"] >= MIN_VECTOR_SPEEDUP, report


def test_timer_compaction_beats_lazy_only(capsys):
    headers, rows, notes, on, off = run_timer_churn()
    from repro.bench.report import render_experiment

    text = render_experiment(
        "Kernel scaling - cancelled-timer heap compaction",
        headers, rows, "\n".join(f"  {n}" for n in notes),
    )
    with capsys.disabled():
        print("\n" + text, flush=True)

    assert on["compactions"] > 0
    assert off["compactions"] == 0
    # Compaction keeps the heap near its live size; under heavy cancel
    # churn that is a clear wall-clock win (allow jitter headroom).
    assert on["wall_s"] < off["wall_s"] * 0.9


if __name__ == "__main__":  # standalone: python benchmarks/bench_kernel_scaling.py
    for run in (run_kernel_scaling, run_timer_churn):
        headers, rows, notes, *_ = run()
        print(format_table(headers, rows))
        for note in notes:
            print(f"  {note}")
    headers, rows, notes, report = run_vector_kernel()
    print(format_table(headers, rows))
    for note in notes:
        print(f"  {note}")
    print(f"  wrote {save_kernel_json(report)}")
