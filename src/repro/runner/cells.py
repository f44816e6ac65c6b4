"""Cell decomposition: one sweep point = one self-describing spec.

A :class:`SweepCell` carries only plain data (dicts, lists, numbers,
strings), so it pickles across a process boundary and hashes into a
stable cache key.  :func:`execute_cell` is the pure entry point: it
reconstitutes the full simulation substrate from the cell's params (via
``_session_from_params``), runs the cell's workload, and returns a
:class:`CellResult` of plain data again.

Purity contract
---------------
``execute_cell`` must depend on nothing but the cell: no module-level
mutable state, no clock.  Governor configs, fault plans (with their
seeds) and arbiter configs live *inside* the cell spec — an executor
builds each instrument for its own session from the params, and there
is no other way in — so a cell run in a worker process is bit-identical
to the same cell run inline, the property the parallel executor and the
result cache both rest on.  Telemetry takes the same road: the cell's
session gets its tracer and profile list as arguments, built per cell
from the capture config (:class:`~repro.obs.capture.CellCapture`), so
what a cell observes leaves only through its result.

Substrate cache
---------------
Parsing the (cluster, network, power) spec triple is identical for
every cell of a sweep that shares a substrate, so a process caches the
parsed frozen spec dataclasses per canonical-JSON signature
(:data:`SUBSTRATE_COUNTERS` accounts hits/misses/rebuild time).  Only
the immutable *specs* are shared — every cell still gets a fresh
:class:`~repro.sim.session.SimSession`, which validates them and owns
all mutable simulation state, so purity is unaffected.  A warm pool worker
therefore rebuilds each unique substrate spec at most once per worker
lifetime.

Cell kinds
----------
``collective``
    ``iterations`` back-to-back collectives (the OSU loop of §VII-B),
    optionally preceded by ``compute_s`` of computation per iteration
    (the fault-study workload).
``alltoallv``
    One vector alltoall with the deterministic ±15 % skew of §VII-D.
``mixed``
    The mixed-size adaptive/governor workload: per size, one alltoall
    plus one 16×-smaller bcast.
``app``
    One application profile (CPMD/NAS, named by its
    :data:`repro.apps.APPS` key) under a static scheme or an online
    governor policy, optionally faulted or under a power cap.
``osu``
    One OSU microbenchmark point (latency / bw / bibw / collective).
``multijob``
    Several co-scheduled jobs on one shared fabric at disjoint node
    offsets, optionally under a cluster power-budget arbiter
    (:mod:`repro.runtime.arbiter`); reports makespan, per-job energy
    attribution, and the arbiter's telemetry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.capture import CellCapture

__all__ = [
    "CellResult",
    "SUBSTRATE_COUNTERS",
    "SweepCell",
    "clear_substrate_cache",
    "execute_cell",
]


def _plain(value: Any) -> Any:
    """Normalise to JSON-able plain data (tuples → lists, recursively),
    so equal cells serialise identically no matter how they were built."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cell params must be plain data, got {type(value)!r}")


@dataclass(frozen=True)
class SweepCell:
    """One independent simulation point of a sweep (picklable spec)."""

    #: Owning experiment (provenance/labels only — NOT part of the cache
    #: key, so experiments sharing identical cells share cache entries).
    experiment: str
    #: Workload dispatch: "collective" | "alltoallv" | "mixed" | "app" | "osu".
    kind: str
    #: Plain-data parameters of the workload (see the executors below).
    params: Mapping[str, Any]
    #: Human label for timing reports, e.g. "alltoall/1M/proposed".
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _EXECUTORS:
            raise ValueError(
                f"unknown cell kind {self.kind!r} "
                f"(choose from {', '.join(sorted(_EXECUTORS))})"
            )
        object.__setattr__(self, "params", _plain(dict(self.params)))

    def spec(self) -> Dict[str, Any]:
        """The content that identifies this cell (feeds the cache key)."""
        return {"kind": self.kind, "params": self.params}

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON form (content + provenance) — the wire format of
        the campaign shard protocol and of ``campaign.json`` manifests."""
        return {
            "experiment": self.experiment,
            "kind": self.kind,
            "params": self.params,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepCell":
        return cls(
            experiment=data["experiment"],
            kind=data["kind"],
            params=data["params"],
            label=data.get("label", ""),
        )


@dataclass
class CellResult:
    """Plain-data outcome of one executed cell (JSON round-trippable)."""

    #: Simulated quantities — identical wherever the cell runs.
    duration_s: float = 0.0
    energy_j: float = 0.0
    average_power_w: float = 0.0
    phase_times: Dict[str, float] = field(default_factory=dict)
    dvfs_transitions: int = 0
    throttle_transitions: int = 0
    #: Governor report counters (minus the bulky monitor), when governed.
    governor: Optional[Dict[str, Any]] = None
    #: Fault report fields, when the cell carried a fault plan.
    faults: Optional[Dict[str, Any]] = None
    #: Arbiter report counters, when the cell carried an arbiter config.
    arbiter: Optional[Dict[str, Any]] = None
    #: Application-level quantities (app cells only).
    app: Optional[Dict[str, Any]] = None
    #: Kind-specific extras: sampled power trace, uplink flow counts,
    #: scalar microbenchmark metrics.
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Observability payload (``CellCapture.seal()`` form) captured
    #: when the caller asked for it — trace records, metrics snapshot,
    #: profile samples.  Simulated content only (plus the original
    #: execution's wall clock in profile samples), so it round-trips
    #: the result cache like everything else.  None when not captured.
    metrics: Optional[Dict[str, Any]] = None
    #: Host wall-clock of the execution (NOT part of the simulated
    #: output; excluded from experiment rows, kept for timing stats).
    wall_time_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "duration_s": self.duration_s,
            "energy_j": self.energy_j,
            "average_power_w": self.average_power_w,
            "phase_times": self.phase_times,
            "dvfs_transitions": self.dvfs_transitions,
            "throttle_transitions": self.throttle_transitions,
            "governor": self.governor,
            "faults": self.faults,
            "arbiter": self.arbiter,
            "app": self.app,
            "extra": self.extra,
            "metrics": self.metrics,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellResult":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__ if k in data})


# ---------------------------------------------------------------------
# Substrate cache (per process; workers keep it warm across batches)
# ---------------------------------------------------------------------
#: Canonical-JSON (cluster, network, power) signature → parsed frozen
#: spec dataclasses.  Sessions are still built fresh per cell (and
#: validate their specs) — only the immutable specs are shared.
_SUBSTRATE_SPECS: Dict[str, tuple] = {}

#: Process-wide substrate-cache accounting.  The pool folds per-batch
#: deltas of these into :class:`~repro.runner.pool.SweepStats` (never a
#: captured ``--metrics`` snapshot — hit counts vary across jobs/cache
#: layers and would break its determinism).
SUBSTRATE_COUNTERS: Dict[str, float] = {
    "hits": 0,
    "misses": 0,
    "rebuild_s": 0.0,
}


def clear_substrate_cache() -> None:
    """Drop cached substrate specs and zero the counters (tests)."""
    _SUBSTRATE_SPECS.clear()
    SUBSTRATE_COUNTERS["hits"] = 0
    SUBSTRATE_COUNTERS["misses"] = 0
    SUBSTRATE_COUNTERS["rebuild_s"] = 0.0


def _substrate_specs(params: Mapping) -> tuple:
    """Parsed ``(cluster_spec, network_spec, power_params)`` for a cell,
    served from the per-process cache keyed by spec signature."""
    import json

    signature = json.dumps(
        {
            "cluster": params.get("cluster"),
            "network": params.get("network"),
            "power": params.get("power"),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    cached = _SUBSTRATE_SPECS.get(signature)
    if cached is not None:
        SUBSTRATE_COUNTERS["hits"] += 1
        return cached
    t0 = time.perf_counter()
    from ..cluster.specs import ClusterSpec
    from ..network.params import NetworkSpec
    from ..power.model import PowerModelParams

    cluster = (
        ClusterSpec.from_dict(params["cluster"])
        if params.get("cluster") is not None
        else ClusterSpec.paper_testbed()
    )
    network = (
        NetworkSpec.from_dict(params["network"])
        if params.get("network") is not None
        else NetworkSpec()
    )
    power = (
        PowerModelParams.from_dict(params["power"])
        if params.get("power") is not None
        else None
    )
    cached = (cluster, network, power)
    _SUBSTRATE_SPECS[signature] = cached
    SUBSTRATE_COUNTERS["misses"] += 1
    SUBSTRATE_COUNTERS["rebuild_s"] += time.perf_counter() - t0
    return cached


# ---------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------
def _cell_governor(params: Mapping):
    """A fresh in-worker Governor from a cell's plain-data config."""
    if params.get("governor") is None:
        return None
    from ..runtime.governor import Governor, GovernorConfig

    return Governor(GovernorConfig.from_dict(params["governor"]))


def _cell_faults(params: Mapping):
    """A fresh in-worker FaultPlan from a cell's plain-data spec."""
    if params.get("faults") is None:
        return None
    from ..faults.plan import FaultPlan

    return FaultPlan.from_dict(params["faults"])


def _cell_arbiter(params: Mapping):
    """A fresh in-worker PowerArbiter from a cell's plain-data config."""
    if params.get("arbiter") is None:
        return None
    from ..runtime.arbiter import ArbiterConfig, PowerArbiter

    return PowerArbiter(ArbiterConfig.from_dict(params["arbiter"]))


def _session_from_params(params: Mapping, capture: "CellCapture",
                         default_cluster=None):
    """The cell's session, on the machine its params describe.

    ``default_cluster`` replaces the paper testbed when the params name
    no cluster; it is applied after the substrate-cache lookup, whose
    signature maps an absent cluster to the testbed."""
    from ..sim.session import SimSession

    cluster, network, power = _substrate_specs(params)
    if default_cluster is not None and params.get("cluster") is None:
        cluster = default_cluster
    return SimSession(
        cluster_spec=cluster,
        network_spec=network,
        power_params=power,
        keep_segments=bool(params.get("keep_segments", False)),
        governor=_cell_governor(params),
        faults=_cell_faults(params),
        arbiter=_cell_arbiter(params),
        tracer=capture.tracer,
        profile=capture.profile,
    )


def _engine(mode: str):
    from ..collectives.registry import CollectiveConfig, CollectiveEngine, PowerMode

    return CollectiveEngine(CollectiveConfig(power_mode=PowerMode(mode)))


def _harvest_reports(cell: CellResult, session) -> None:
    """Seal the session's governor/fault reports into the result as
    plain dicts (the monitor detail is bulky and dropped)."""
    if session.governor is not None:
        report = session.governor.report().to_dict()
        report.pop("monitor", None)
        cell.governor = report
    if session.faults is not None:
        from dataclasses import asdict

        cell.faults = asdict(session.faults.report())
    if session.arbiter is not None:
        cell.arbiter = session.arbiter.report().to_dict()


def _cell_meter(params: Mapping):
    """The cell's power meter, or None; a bad request fails here, before
    anything is simulated, not after the run when the trace is sampled."""
    interval = params.get("power_trace_interval_s")
    if interval is None:
        return None
    if not params.get("keep_segments", False):
        raise ValueError(
            "cell parameter power_trace_interval_s needs keep_segments=True: "
            "without a kept power timeline there is nothing to sample"
        )
    from ..power.meter import PowerMeter

    try:
        return PowerMeter(interval)
    except ValueError as exc:
        raise ValueError(f"cell parameter power_trace_interval_s: {exc}") from None


def _seal(job, result, session, params: Mapping, meter) -> CellResult:
    """Common harvest: simulated scalars + per-run reports + extras."""
    cell = CellResult(
        duration_s=result.duration_s,
        energy_j=result.energy_j,
        average_power_w=result.average_power_w,
        phase_times=dict(result.stats.phase_times),
        dvfs_transitions=result.stats.dvfs_transitions,
        throttle_transitions=result.stats.throttle_transitions,
    )
    _harvest_reports(cell, session)
    if meter is not None:
        trace = meter.sample(result.accountant)
        cell.extra["power_trace"] = {
            "times_s": list(trace.times_s),
            "power_kw": list(trace.power_kw),
            "mean_power_w": trace.mean_power_w(),
        }
    prefix = params.get("link_flow_prefix")
    if prefix is not None:
        cell.extra["link_flows"] = sum(
            n for name, n in job.net.fabric.link_flows.items()
            if name.startswith(prefix)
        )
    return cell


def _run_job(params: Mapping, program, capture: "CellCapture") -> CellResult:
    from ..mpi.job import MpiJob
    from ..mpi.p2p import ProgressMode

    meter = _cell_meter(params)
    session = _session_from_params(params, capture)
    job = MpiJob(
        int(params["n_ranks"]),
        session=session,
        collectives=_engine(params.get("mode", "none")),
        progress=ProgressMode(params.get("progress", "polling")),
    )
    result = job.run(program)
    return _seal(job, result, session, params, meter)


def _execute_collective(params: Mapping, capture: "CellCapture") -> CellResult:
    op = params["op"]
    nbytes = int(params["nbytes"])
    iterations = int(params.get("iterations", 1))
    compute_s = params.get("compute_s")

    def program(ctx):
        for _ in range(iterations):
            if compute_s is not None:
                yield from ctx.compute(compute_s)
            yield from getattr(ctx, op)(nbytes)

    return _run_job(params, program, capture)


def _execute_alltoallv(params: Mapping, capture: "CellCapture") -> CellResult:
    nbytes = int(params["nbytes"])

    def program(ctx):
        # §VII-D: deterministically skewed per-peer counts (±15 % around
        # the mean) so the vector path is genuinely exercised.
        counts = [
            max(0, int(nbytes * (1 + 0.15 * (((ctx.rank + d) % 7 - 3) / 3))))
            for d in range(ctx.size)
        ]
        yield from ctx.alltoallv(counts)

    return _run_job(params, program, capture)


def _execute_mixed(params: Mapping, capture: "CellCapture") -> CellResult:
    sizes = [int(n) for n in params["sizes"]]

    def program(ctx):
        for nbytes in sizes:
            yield from ctx.alltoall(nbytes)
            # Short broadcasts: engaging power here costs more than it
            # saves — the case that separates ADAPTIVE from PROPOSED.
            yield from ctx.bcast(nbytes // 16)

    return _run_job(params, program, capture)


def _execute_app(params: Mapping, capture: "CellCapture") -> CellResult:
    from ..apps import APPS, run_app
    from ..apps.base import app_cluster_spec
    from ..collectives.registry import PowerMode

    ranks = int(params["ranks"])
    session = _session_from_params(
        params, capture, default_cluster=app_cluster_spec(ranks)
    )
    app_result = run_app(
        APPS[params["app"]],
        ranks,
        PowerMode(params.get("mode", "none")),
        session=session,
    )
    cell = _seal(app_result.sim.job, app_result.sim, session, params, None)
    cell.app = {
        "name": app_result.app,
        "total_time_s": app_result.total_time_s,
        "alltoall_time_s": app_result.alltoall_time_s,
        "alltoall_fraction": app_result.alltoall_fraction,
        "energy_kj": app_result.energy_kj,
    }
    return cell


def _execute_osu(params: Mapping, capture: "CellCapture") -> CellResult:
    from ..collectives.registry import PowerMode
    from ..microbench import osu
    from ..mpi.p2p import ProgressMode

    bench = params["bench"]
    nbytes = int(params["nbytes"])
    progress = (
        ProgressMode.BLOCKING if params.get("blocking") else ProgressMode.POLLING
    )
    inter_node = not params.get("intra_node", False)
    session = _session_from_params(params, capture)
    if bench == "latency":
        metric = osu.osu_latency(
            nbytes, inter_node=inter_node, progress=progress, session=session
        )
        unit = "s"
    elif bench in ("bw", "bibw"):
        fn = osu.osu_bw if bench == "bw" else osu.osu_bibw
        metric = fn(nbytes, inter_node=inter_node, session=session)
        unit = "B/s"
    else:
        metric = osu.osu_collective_latency(
            bench,
            nbytes,
            n_ranks=int(params.get("n_ranks", 64)),
            mode=PowerMode(params.get("mode", "none")),
            progress=progress,
            iterations=3,
            warmup=1,
            session=session,
        )
        unit = "s"
    cell = CellResult(extra={"metric": metric, "unit": unit})
    _harvest_reports(cell, session)
    return cell


def _job_program(jp: Mapping):
    """The per-rank program of one co-scheduled job (collective-cell
    shape: optional compute, then ``iterations`` collectives)."""
    op = jp.get("op", "alltoall")
    nbytes = int(jp.get("nbytes", 0))
    iterations = int(jp.get("iterations", 1))
    compute_s = jp.get("compute_s")

    def program(ctx):
        for _ in range(iterations):
            if compute_s is not None:
                yield from ctx.compute(compute_s)
            if nbytes > 0:
                yield from getattr(ctx, op)(nbytes)

    return program


def _execute_multijob(params: Mapping, capture: "CellCapture") -> CellResult:
    """Co-scheduled jobs sharing one fabric, optionally under an arbiter.

    ``params["jobs"]`` is a list of job specs, each with ``n_ranks``,
    ``node_offset``, and the collective-cell workload keys (``op`` /
    ``nbytes`` / ``iterations`` / ``compute_s``).  The cell's scalars
    describe the whole scenario (makespan, total energy); per-job
    attribution and the arbiter report land in ``extra``.
    """
    from ..mpi.job import MpiJob
    from ..mpi.p2p import ProgressMode

    session = _session_from_params(params, capture)
    progress = ProgressMode(params.get("progress", "polling"))
    jobs = [
        MpiJob(
            int(jp["n_ranks"]),
            session=session,
            collectives=_engine(jp.get("mode", params.get("mode", "none"))),
            progress=progress,
            node_offset=int(jp.get("node_offset", 0)),
        )
        for jp in params["jobs"]
    ]
    for job, jp in zip(jobs, params["jobs"]):
        job.launch(_job_program(jp))
    results = session.run_jobs(jobs)
    makespan = max(r.duration_s for r in results)
    total_j = session.accountant.total_energy_j()
    cell = CellResult(
        duration_s=makespan,
        energy_j=total_j,
        average_power_w=total_j / makespan if makespan > 0 else 0.0,
        dvfs_transitions=sum(j.stats.dvfs_transitions for j in jobs),
        throttle_transitions=sum(j.stats.throttle_transitions for j in jobs),
    )
    _harvest_reports(cell, session)
    cell.extra["jobs"] = [
        {
            "n_ranks": job.n_ranks,
            "node_offset": job.affinity.node_offset,
            "duration_s": r.duration_s,
            "energy_j": r.energy_j,
        }
        for job, r in zip(jobs, results)
    ]
    cell.extra["residual_energy_j"] = session.residual_energy_j
    return cell


_EXECUTORS: Dict[str, Callable[[Mapping, "CellCapture"], CellResult]] = {
    "collective": _execute_collective,
    "alltoallv": _execute_alltoallv,
    "mixed": _execute_mixed,
    "app": _execute_app,
    "osu": _execute_osu,
    "multijob": _execute_multijob,
}


def execute_cell(cell: SweepCell, capture: Optional[Any] = None) -> CellResult:
    """Run one cell to completion (pure; safe in any process).

    ``capture`` is an optional
    :class:`~repro.obs.capture.CaptureConfig`.  The cell's session
    reports to the sinks of a :class:`~repro.obs.capture.CellCapture`
    built from it, and to nothing else (the null tracer and no profile
    list when ``capture`` is None or all off); when ``capture`` is
    truthy, their payload (trace records, metrics snapshot, profile
    samples) is sealed into ``result.metrics`` as plain data.  The
    result is therefore a function of ``(cell, capture)`` alone,
    wherever it runs.
    """
    from ..obs.capture import CellCapture

    wall0 = time.perf_counter()
    sinks = CellCapture(capture)
    result = _EXECUTORS[cell.kind](cell.params, sinks)
    if capture:
        result.metrics = sinks.seal()
    result.wall_time_s = time.perf_counter() - wall0
    return result
