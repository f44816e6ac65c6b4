"""Columnar power timeline: SegmentStore/SegmentView units, the
differential against the object accountant and loop meter in
``tests/oracles/energy.py`` (DESIGN.md §13), and meter regressions."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Activity, Cluster, ClusterSpec
from repro.power import (
    EnergyAccountant,
    PowerMeter,
    PowerModel,
    PowerSegment,
    SegmentStore,
    SegmentView,
)
from tests.oracles.energy import ObjectAccountant, meter_reference


# ---------------------------------------------------------------------------
# SegmentStore / SegmentView units
# ---------------------------------------------------------------------------
def test_store_append_len_and_getitem():
    store = SegmentStore()
    assert len(store) == 0
    store.append(3, 0.0, 1.0, 10.0)
    store.append(4, 1.0, 2.5, 20.0)
    # Rows still staged in the python buffer must already be observable.
    assert len(store) == 2
    assert store[0] == PowerSegment(3, 0.0, 1.0, 10.0)
    assert store[1] == PowerSegment(4, 1.0, 2.5, 20.0)
    assert store[-1] == store[1]
    with pytest.raises(IndexError):
        store[2]


def test_store_folds_rows_across_blocks():
    store = SegmentStore()
    n = SegmentStore.BLOCK_ROWS * 2 + SegmentStore.FLUSH_BATCH // 2 + 7
    for i in range(n):
        store.append(i % 8, float(i), float(i + 1), float(i % 5 + 1))
    assert len(store) == n
    blocks = store.blocks()
    assert len(blocks) == 3
    assert [len(block[0]) for block in blocks] == [
        SegmentStore.BLOCK_ROWS, SegmentStore.BLOCK_ROWS,
        n - 2 * SegmentStore.BLOCK_ROWS,
    ]
    core_id, start, end, power = (np.concatenate(c) for c in zip(*blocks))
    assert core_id.dtype == np.int64
    assert start.dtype == end.dtype == power.dtype == np.float64
    assert len(core_id) == n
    assert core_id[12345 % n] == (12345 % n) % 8
    assert start[n - 1] == float(n - 1)
    assert np.array_equal(start, np.arange(n, dtype=np.float64))
    # blocks() folded the staging buffer; reads stay consistent.
    assert store[n - 1] == PowerSegment(
        (n - 1) % 8, float(n - 1), float(n), float((n - 1) % 5 + 1)
    )
    assert store[SegmentStore.BLOCK_ROWS] == PowerSegment(
        SegmentStore.BLOCK_ROWS % 8, float(SegmentStore.BLOCK_ROWS),
        float(SegmentStore.BLOCK_ROWS + 1),
        float(SegmentStore.BLOCK_ROWS % 5 + 1),
    )
    # blocks(first) starts mid-block and keeps row order.
    tail = store.blocks(SegmentStore.BLOCK_ROWS - 3)
    assert [len(block[0]) for block in tail] == [
        3, SegmentStore.BLOCK_ROWS, n - 2 * SegmentStore.BLOCK_ROWS,
    ]
    assert tail[0][1][0] == float(SegmentStore.BLOCK_ROWS - 3)
    assert store.blocks(n) == []


@pytest.mark.parametrize("n", [
    0, 1, SegmentStore.FLUSH_BATCH - 1, SegmentStore.FLUSH_BATCH,
    SegmentStore.BLOCK_ROWS - 1, SegmentStore.BLOCK_ROWS,
    SegmentStore.BLOCK_ROWS + 1, 20_000,
])
def test_store_slack_is_at_most_one_block(n):
    """Blocks never double: after ``n`` appends the columns hold at most
    32 bytes per row plus one block."""
    store = SegmentStore()
    for i in range(n):
        store.append(i % 8, float(i), float(i + 1), 1.0)
    block_bytes = 32 * SegmentStore.BLOCK_ROWS
    assert store.nbytes <= 32 * n + block_bytes
    store.blocks()  # fold the staged tail
    assert store.nbytes <= 32 * n + block_bytes
    assert SegmentView(store).nbytes == store.nbytes


def test_store_iteration_yields_segments_in_order():
    store = SegmentStore()
    rows = [(i, i * 1.0, i * 1.0 + 0.5, 7.0 + i) for i in range(5)]
    for row in rows:
        store.append(*row)
    segs = list(store)
    assert segs == [PowerSegment(*row) for row in rows]
    assert segs[2].energy_j == pytest.approx(9.0 * 0.5)


def test_view_equality_slicing_and_repr():
    store = SegmentStore()
    rows = [(0, 0.0, 1.0, 5.0), (1, 1.0, 2.0, 6.0), (0, 2.0, 4.0, 7.0)]
    for row in rows:
        store.append(*row)
    view = SegmentView(store)
    as_list = [PowerSegment(*row) for row in rows]
    assert view == as_list
    assert list(view[1:]) == as_list[1:]
    assert view[-1] == as_list[-1]
    assert len(view) == 3
    assert view != as_list[:2]
    assert "SegmentView" in repr(view)


# ---------------------------------------------------------------------------
# Differential: columnar accountant vs the object oracle
# ---------------------------------------------------------------------------
_KINDS = ("freq", "tstate", "act")
_ACTIVITIES = list(Activity)


def _mutation_schedules():
    step = st.tuples(
        st.floats(min_value=0.0, max_value=1.5, allow_nan=False,
                  allow_infinity=False),
        st.integers(min_value=0, max_value=7),   # core index
        st.sampled_from(_KINDS),
        st.integers(min_value=0, max_value=7),   # value selector
    )
    return st.lists(step, max_size=64)


def _dual_accountants():
    """One cluster observed by both accountants at once: every mutation
    notifies the columnar accountant and the object oracle back to back."""
    cluster = Cluster(ClusterSpec.with_shape(1))  # 8 cores
    columnar = EnergyAccountant(cluster, PowerModel())
    oracle = ObjectAccountant(cluster, PowerModel())
    return cluster, columnar, oracle


def _apply_schedule(cluster, schedule, t=0.0):
    freqs = sorted({
        cluster.cores[0].spec.nearest_pstate(f)
        for f in np.linspace(1.0, 3.2, 9)
    })
    for dt, core_idx, kind, value in schedule:
        t += dt
        core = cluster.cores[core_idx % len(cluster.cores)]
        if kind == "freq":
            core.set_frequency(freqs[value % len(freqs)], t)
        elif kind == "tstate":
            core.set_tstate(value, t)
        else:
            core.set_activity(_ACTIVITIES[value % len(_ACTIVITIES)], t)
    return t


@given(_mutation_schedules())
@settings(max_examples=60, deadline=None)
def test_columnar_matches_object_oracle(schedule):
    cluster, columnar, oracle = _dual_accountants()
    end = _apply_schedule(cluster, schedule) + 0.5
    columnar.finalize(end)
    oracle.finalize(end)

    for core in cluster.cores:
        assert columnar.core_energy_j(core.core_id) == \
            oracle.core_energy_j(core.core_id)
    assert columnar.cores_energy_j() == oracle.cores_energy_j()
    assert columnar.total_energy_j() == oracle.total_energy_j()
    assert isinstance(columnar.segments, SegmentView)
    assert columnar.segments == list(oracle.segments)


@given(_mutation_schedules())
@settings(max_examples=40, deadline=None)
def test_vectorized_meter_matches_reference_on_live_segments(schedule):
    cluster, columnar, oracle = _dual_accountants()
    end = _apply_schedule(cluster, schedule) + 0.5
    columnar.finalize(end)
    oracle.finalize(end)

    meter = PowerMeter(0.3)
    base_w = columnar.model.params.node_base_w * cluster.n_nodes
    vec = meter.from_segments(columnar.segments, 0.0, end, base_w=base_w)
    ref = meter_reference(meter, oracle.segments, 0.0, end, base_w=base_w)
    assert np.array_equal(vec.times_s, ref.times_s)
    assert np.array_equal(vec.power_w, ref.power_w)


@given(_mutation_schedules())
@settings(max_examples=40, deadline=None)
def test_meter_conserves_energy(schedule):
    """Summing bucket energy over the whole window recovers the
    accountant's core energy (the meter neither drops nor double-counts)."""
    cluster, columnar, _oracle = _dual_accountants()
    end = _apply_schedule(cluster, schedule) + 0.5
    columnar.finalize(end)

    meter = PowerMeter(0.3)
    trace = meter.from_segments(columnar.segments, 0.0, end, base_w=0.0)
    edges = np.concatenate(([0.0], trace.times_s))
    bucket_energy = float(np.sum(trace.power_w * np.diff(edges)))
    assert math.isclose(bucket_energy, columnar.cores_energy_j(),
                        rel_tol=1e-9, abs_tol=1e-9)


def test_mid_run_energy_queries_stay_exact():
    """Lazy column folding must not regroup additions: querying energy
    mid-run and again later still matches the eagerly-summing oracle."""
    cluster, columnar, oracle = _dual_accountants()
    core = cluster.cores[0]
    core.set_activity(Activity.COMPUTE, 1.0)
    core.set_tstate(3, 2.5)
    assert columnar.core_energy_j(0) == oracle.core_energy_j(0)
    core.set_frequency(1.6, 4.0)
    core.set_activity(Activity.IDLE, 5.0)
    columnar.finalize(6.0)
    oracle.finalize(6.0)
    assert columnar.core_energy_j(0) == oracle.core_energy_j(0)
    assert columnar.cores_energy_j() == oracle.cores_energy_j()


_PRODUCTION_BLOCK_ROWS = SegmentStore.BLOCK_ROWS


@pytest.mark.parametrize("block_rows, flush_batch, pair_budget", [
    (1, 1, 1),
    (3, 2, 7),
    (3, SegmentStore.FLUSH_BATCH, 1),
    (SegmentStore.BLOCK_ROWS, 5, 64),
    (SegmentStore.BLOCK_ROWS, SegmentStore.FLUSH_BATCH, PowerMeter.PAIR_BUDGET),
])
def test_block_boundaries_match_oracles(monkeypatch, block_rows, flush_batch,
                                        pair_budget):
    """Any block size, staging threshold and pair budget gives the oracles'
    bytes: energy queried mid-run (the watermark inside a block, staged
    rows pending) and at the end, the segment log, and the sampled trace."""
    monkeypatch.setattr(SegmentStore, "BLOCK_ROWS", block_rows)
    monkeypatch.setattr(SegmentStore, "FLUSH_BATCH", flush_batch)
    monkeypatch.setattr(PowerMeter, "PAIR_BUDGET", pair_budget)
    cluster, columnar, oracle = _dual_accountants()
    rng = random.Random(block_rows * 7919 + flush_batch)
    meter = PowerMeter(0.05)
    t = 0.0
    # Tiny blocks cross many boundaries in a short run; production-sized
    # ones need a run past their first block.
    n_steps = 600 if block_rows < 100 else _PRODUCTION_BLOCK_ROWS + 500
    while len(columnar.segments) < n_steps:
        schedule = [
            (rng.uniform(0.0, 0.2), rng.randrange(8), rng.choice(_KINDS),
             rng.randrange(8))
            for _ in range(rng.randrange(1, n_steps // 4))
        ]
        t = _apply_schedule(cluster, schedule, t)
        for core in cluster.cores:
            assert columnar.core_energy_j(core.core_id) == \
                oracle.core_energy_j(core.core_id)
        assert columnar.cores_energy_j() == oracle.cores_energy_j()
    mid = meter.from_segments(columnar.segments, 0.0, t)
    ref = meter_reference(meter, oracle.segments, 0.0, t)
    assert np.array_equal(mid.power_w, ref.power_w)

    end = t + 0.5
    columnar.finalize(end)
    oracle.finalize(end)
    assert columnar.total_energy_j() == oracle.total_energy_j()
    assert columnar.segments == list(oracle.segments)
    base_w = columnar.model.params.node_base_w * cluster.n_nodes
    vec = meter.sample(columnar)
    ref = meter_reference(meter, oracle.segments, 0.0, end, base_w=base_w)
    assert np.array_equal(vec.times_s, ref.times_s)
    assert np.array_equal(vec.power_w, ref.power_w)


def test_meter_working_memory_is_bounded():
    """The fold expands a bounded window of (segment, bucket) pairs at a
    time: 20,000 segments of ~25 buckets each (500k pairs, ~42 MiB when
    expanded at once) sample in a few MiB, and a segment longer than the
    pair budget, split across windows, stays exact."""
    meter = PowerMeter(1.0)
    store = SegmentStore()
    segments = []
    for i in range(20_000):
        core, k = i % 8, i // 8
        seg = PowerSegment(core, k * 24.7 + 0.01 * core,
                           (k + 1) * 24.7 + 0.01 * core, 10.0 + (i % 13))
        segments.append(seg)
    span = segments[-1].end
    segments.append(PowerSegment(0, 0.3, span - 0.3, 7.5))
    assert span > 2 * PowerMeter.PAIR_BUDGET  # the long one splits
    for seg in segments:
        store.append(seg.core_id, seg.start, seg.end, seg.power_w)
    store.blocks()  # fold the staged tail outside the measured region

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = meter.from_segments(store, 0.0, span)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"meter fold peaked at {peak / 2**20:.1f} MiB"
    ref = meter_reference(meter, segments, 0.0, span)
    assert np.array_equal(trace.times_s, ref.times_s)
    assert np.array_equal(trace.power_w, ref.power_w)


# ---------------------------------------------------------------------------
# Meter regressions
# ---------------------------------------------------------------------------
def test_degenerate_fp_sliver_final_bucket_is_merged():
    """(end-start)/interval can land a hair above an integer, leaving a
    ~1e-17 s final bucket whose energy/width division exploded to an
    inf/garbage spike; such slivers merge into the previous bucket."""
    end = 0.30000000000000004  # 3 * 0.1 in binary fp
    meter = PowerMeter(0.1)
    segs = [PowerSegment(0, 0.0, end, 100.0)]
    trace = meter.from_segments(segs, 0.0, end)
    assert len(trace) == 3
    assert np.isfinite(trace.power_w).all()
    assert trace.times_s[-1] == end
    assert trace.power_w == pytest.approx([100.0, 100.0, 100.0])
    ref = meter_reference(meter, segs, 0.0, end)
    assert np.array_equal(trace.times_s, ref.times_s)
    assert np.array_equal(trace.power_w, ref.power_w)


@pytest.mark.parametrize("interval", [
    float("nan"), float("inf"), float("-inf"), 0.0, -0.5,
])
def test_meter_rejects_non_finite_or_non_positive_interval(interval):
    with pytest.raises(ValueError, match="PowerMeter.interval_s"):
        PowerMeter(interval)


def test_true_partial_final_bucket_still_reported():
    meter = PowerMeter(0.1)
    segs = [PowerSegment(0, 0.0, 0.25, 100.0)]
    trace = meter.from_segments(segs, 0.0, 0.25)
    assert len(trace) == 3
    assert trace.times_s[-1] == 0.25
    assert trace.power_w == pytest.approx([100.0, 100.0, 100.0])


def test_governed_faulted_job_identical_across_backends():
    """End to end: one countdown-governed, fault-perturbed job observed by
    the production accountant and the object oracle as two listeners on
    one cluster — same energy, segment log and sampled trace."""
    from repro.faults.plan import parse_fault_spec
    from repro.mpi.job import MpiJob
    from repro.runtime.governor import (
        Governor,
        GovernorConfig,
        GovernorPolicy,
    )
    from repro.sim.session import SimSession

    job = MpiJob(
        32,
        session=SimSession(
            cluster_spec=ClusterSpec.with_shape(4),
            governor=Governor(GovernorConfig(policy=GovernorPolicy.COUNTDOWN)),
            faults=parse_fault_spec(
                "degrade:factor=0.6,frac=0.25;"
                "noise:period=500us,pulse=20us,frac=0.25",
                seed=3,
            ),
        ),
    )
    oracle = ObjectAccountant(job.cluster, PowerModel())

    def program(ctx):
        yield from ctx.alltoall(8 << 10)

    col = job.run(program).accountant
    oracle.finalize(col.finalized_at)
    assert col.segments  # the governor and faults really moved core state
    assert col.total_energy_j() == oracle.total_energy_j()
    for core in job.cluster.cores:
        assert col.core_energy_j(core.core_id) == \
            oracle.core_energy_j(core.core_id)
    assert isinstance(col.segments, SegmentView)
    assert col.segments == list(oracle.segments)
    meter = PowerMeter(1e-3)
    base_w = col.model.params.node_base_w * col.cluster.n_nodes
    vec = meter.sample(col)
    ref = meter_reference(
        meter, oracle.segments, 0.0, oracle.finalized_at, base_w=base_w
    )
    assert np.array_equal(vec.times_s, ref.times_s)
    assert np.array_equal(vec.power_w, ref.power_w)


@pytest.mark.parametrize("oracle", [False, True])
def test_sample_without_segments_raises_clear_error(oracle):
    cluster = Cluster(ClusterSpec.with_shape(1))
    accountant = ObjectAccountant if oracle else EnergyAccountant
    acct = accountant(cluster, keep_segments=False)
    acct.finalize(2.0)
    with pytest.raises(ValueError, match="keep_segments"):
        PowerMeter(0.5).sample(acct)
