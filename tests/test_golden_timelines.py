"""Golden timelines: exact digests of whole simulated runs.

Each case runs one sweep cell through ``execute_cell`` with its trace
captured (``CaptureConfig(trace=True)``) and hashes the cell's
simulated output (``CellResult`` minus host wall time and the
observability payload) together with the ordered ``flow.*``, ``core.*``
and ``mark`` trace records.  The digests pin every message's flow
``seq`` and times, every power-state change and every governor slack
sample, so a change to the engine, the message path or the governor
that reorders a single event shows up here.

The cells cover the paths the end-to-end benchmark's workloads never
take: eager messages, blocking progress, the predictive governor (the
only policy whose call entry waits), a countdown-governed allreduce,
the proposed power-aware alltoall, co-scheduled jobs under the
redistribute arbiter, and an OSU point-to-point cell.
"""

from __future__ import annotations

import builtins
import hashlib
import json
import math

import pytest

from repro.cluster.specs import ClusterSpec
from repro.numeric import left_sum
from repro.obs import CaptureConfig
from repro.runner import SweepCell, execute_cell
from repro.runtime import GovernorConfig, GovernorPolicy
from repro.runtime.arbiter import ArbiterConfig, ArbiterPolicy
from repro.sim.trace import TraceRecord

NODES = 4
RANKS = NODES * 8


def _collective(op, nbytes, **extra):
    params = {
        "op": op,
        "nbytes": nbytes,
        "n_ranks": RANKS,
        "iterations": 1,
        "cluster": ClusterSpec.with_shape(NODES).to_dict(),
    }
    params.update(extra)
    return SweepCell(experiment="golden", kind="collective", params=params)


def _governor(policy):
    return GovernorConfig(policy=policy).to_dict()


def _multijob():
    jobs = [
        {"n_ranks": 16, "node_offset": 0, "op": "alltoall",
         "nbytes": 64 << 10, "iterations": 2},
        {"n_ranks": 16, "node_offset": 2, "op": "allreduce",
         "nbytes": 1 << 10, "iterations": 2, "compute_s": 2e-3},
    ]
    params = {
        "jobs": jobs,
        "cluster": ClusterSpec.with_shape(NODES).to_dict(),
        "progress": "polling",
        "arbiter": ArbiterConfig(
            policy=ArbiterPolicy.REDISTRIBUTE, power_cap_w=250.0 * NODES
        ).to_dict(),
    }
    return SweepCell(experiment="golden", kind="multijob", params=params)


CASES = {
    # Bruck rounds carry up to RANKS/2 blocks: 512 B blocks keep every
    # round under the 12 KiB eager threshold.
    "eager_alltoall": _collective("alltoall", 512),
    "eager_alltoallv": SweepCell(
        experiment="golden", kind="alltoallv",
        params={"nbytes": 4 << 10, "n_ranks": RANKS,
                "cluster": ClusterSpec.with_shape(NODES).to_dict()},
    ),
    "blocking_bcast": _collective("bcast", 64 << 10, progress="blocking"),
    "blocking_alltoall": _collective("alltoall", 64 << 10, progress="blocking"),
    "predictive_alltoall": _collective(
        "alltoall", 64 << 10, iterations=3,
        governor=_governor(GovernorPolicy.PREDICTIVE),
    ),
    "countdown_allreduce": _collective(
        "allreduce", 64 << 10, governor=_governor(GovernorPolicy.COUNTDOWN),
    ),
    "proposed_alltoall": _collective("alltoall", 64 << 10, mode="proposed"),
    "multijob_redistribute": _multijob(),
    "osu_latency": SweepCell(
        experiment="golden", kind="osu",
        params={"bench": "latency", "nbytes": 64 << 10},
    ),
}

#: sha256 of each case's output and timeline, computed before the
#: message path was rewritten as event continuations.
GOLDEN = {
    "eager_alltoall":
        "5b1389c55cb595add61d89185b4c47ebe42b5794b43e70dbdf7ebaea09f0e55f",
    "eager_alltoallv":
        "663a513e5b2faf9b8fc0b55bcef1dc508cdc542c01f8e7c4d984fd6bc9c304f8",
    "blocking_bcast":
        "1d27fa1bed31d9af1e5c2713ddccfa3813140219be3393448ebd3132a9cf6b20",
    "blocking_alltoall":
        "4104997c8cece23d90fc563c33e2962bffe655be227110f21e9d922bf663760e",
    "predictive_alltoall":
        "54884b1e87131df91ff56f44f3dac742079999df222f92ea636ca26834a93ca0",
    "countdown_allreduce":
        "fc04311d4e2c9d60f2215e692b4fc24e677fc756e16a7b8395364df04d2cba56",
    "proposed_alltoall":
        "b1055d89f55420e7c5e6605acfd119a252c2fad3a627d1fc64c4bfc4d330bf1c",
    "multijob_redistribute":
        "489998e9123f59ee4f170a9c39484ca2db705872d885a3eb651c90181a007838",
    "osu_latency":
        "ebafe91d8614add133bfb6b582c71409a7a8ba3021b05a3fcdf653e1317b5901",
}

_KEPT = ("flow.", "core.")


def run_case(cell):
    """Execute ``cell`` with its trace captured; returns (result, kept
    trace records)."""
    result = execute_cell(cell, CaptureConfig(trace=True))
    records = [
        TraceRecord(rec["t"], rec["type"],
                    {k: v for k, v in rec.items() if k not in ("t", "type")})
        for rec in result.metrics["records"]
        if rec["type"].startswith(_KEPT) or rec["type"] == "mark"
    ]
    return result, records


def timeline_digest(result, records) -> str:
    data = result.to_dict()
    data.pop("wall_time_s")
    data.pop("metrics")
    payload = {
        "result": data,
        "trace": [[r.t, r.type, r.data] for r in records],
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_timeline(name):
    result, records = run_case(CASES[name])
    assert records, "the tracer saw no flow/core/mark records"
    assert timeline_digest(result, records) == GOLDEN[name]


def test_predictive_case_prescales_every_rank_every_iteration():
    """The predictive cell is the one where call entry really waits."""
    result, _ = run_case(CASES["predictive_alltoall"])
    assert result.governor["prescales"] == RANKS * 3


def compensated_sum(iterable, /, start=0):
    """CPython 3.12's built-in ``sum()``, which adds exact floats with
    Neumaier compensation (3.11 and earlier fold them plainly)."""
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is not float:
        for item in it:
            result = result + item
        return result
    total, comp = result, 0.0
    for item in it:
        if type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                comp += (total - t) + item
            else:
                comp += (item - t) + total
            total = t
        elif type(item) in (int, bool):
            total += float(item)
        else:
            if comp and math.isfinite(comp):
                total += comp
            result = total + item
            for rest in it:
                result = result + rest
            return result
    if comp and math.isfinite(comp):
        total += comp
    return total


def test_compensated_sum_emulation_rounds_differently():
    """The emulation really moves float sums, so the test below bites."""
    assert compensated_sum([0.1] * 10) == 1.0
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert compensated_sum([1, 2, 3]) == 6 and compensated_sum([]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_timeline_independent_of_float_sum(name, monkeypatch):
    """Results do not depend on the interpreter's float ``sum()``: with
    3.12's compensated ``sum()`` patched in, every digest still holds."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    result, records = run_case(CASES[name])
    assert timeline_digest(result, records) == GOLDEN[name]
