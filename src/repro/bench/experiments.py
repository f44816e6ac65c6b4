"""Cell plans for every table and figure in the paper, and their runner.

Every experiment is a :class:`SweepPlan`: a documented ``plan_*``
function produces the list of independent
:class:`~repro.runner.cells.SweepCell` simulation points plus an
``assemble`` closure that folds their results into the finished
``(headers, rows, notes)`` table for
:func:`repro.bench.report.render_experiment`.  :data:`CELL_PLANS` maps
each experiment name to its plan producer — the one registry the CLI's
``repro experiment``, campaigns and the ``benchmarks/`` targets all
read — and :func:`run_plan` is the one way to run a plan: through
:func:`repro.runner.run_cells`, so every experiment inherits parallel
execution and result caching from its caller's ``jobs``/``cache``
arguments.  EXPERIMENTS.md records the outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..apps import APPS
from ..cluster.specs import ClusterSpec, CpuSpec, NodeSpec, ThrottleGranularity
from ..collectives.registry import PowerMode
from ..models import (
    ModelParams,
    t_alltoall_pairwise,
    t_alltoall_power_aware,
    t_bcast_power_aware,
    t_bcast_scatter_allgather,
)
from ..mpi.p2p import ProgressMode
from ..runner import CellResult, SweepCell, cache_key, run_cells
from .report import bytes_label

#: Message sweep of the power figures (7a, 8a; paper x-axis 16K–1M).
POWER_FIG_SIZES: Tuple[int, ...] = (16 << 10, 64 << 10, 256 << 10, 1 << 20)
#: Fig 2(a) sweep (1K–1M).
FIG2A_SIZES: Tuple[int, ...] = (1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20)
#: Fig 2(b) sweep (4K–1M).
FIG2B_SIZES: Tuple[int, ...] = (4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20)
#: Fig 2(c) sweep (4B–4K).
FIG2C_SIZES: Tuple[int, ...] = (4, 64, 256, 1 << 10, 4 << 10)

MODES = (PowerMode.NONE, PowerMode.DVFS, PowerMode.PROPOSED)
MODE_LABELS = {
    PowerMode.NONE: "No-Power",
    PowerMode.DVFS: "Freq-Scaling",
    PowerMode.PROPOSED: "Proposed",
}

#: :data:`repro.apps.APPS` keys of the paper's application datasets.
CPMD_APPS = ("cpmd-wat1", "cpmd-wat2", "cpmd-ta")
NAS_APPS = ("nas-ft", "nas-is")


def _mean_latency_us(result, iterations: int) -> float:
    return result.duration_s / iterations * 1e6


# =====================================================================
# Sweep plans and the one plan runner
# =====================================================================
@dataclass
class SweepPlan:
    """An experiment as data: independent cells + a fold to the table."""

    cells: List[SweepCell]
    assemble: Callable[[List[CellResult]], Tuple[List, List, str]]


def instrument_cells(
    cells: List[SweepCell],
    governor: Optional[Dict[str, Any]] = None,
    faults: Optional[Dict[str, Any]] = None,
    arbiter: Optional[Dict[str, Any]] = None,
) -> Tuple[List[SweepCell], Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """Overlay governor/fault/arbiter configs onto cells without their own.

    A cell whose params already carry a ``governor``/``faults``/
    ``arbiter`` key keeps it — plan-declared instrumentation
    (ext-governor's policy grid, ext-faults' mild column, ext-arbiter's
    policy columns) always wins over the CLI flags.  Returns the
    (possibly rebuilt) cells plus the index tuples of cells that
    received each overlay, so the caller can harvest exactly those
    reports.
    """
    if governor is None and faults is None and arbiter is None:
        return cells, (), (), ()
    out: List[SweepCell] = []
    gov_idx: List[int] = []
    fault_idx: List[int] = []
    arb_idx: List[int] = []
    for i, cell in enumerate(cells):
        params = dict(cell.params)
        touched = False
        if governor is not None and "governor" not in params:
            params["governor"] = governor
            gov_idx.append(i)
            touched = True
        if faults is not None and "faults" not in params:
            params["faults"] = faults
            fault_idx.append(i)
            touched = True
        if arbiter is not None and "arbiter" not in params:
            params["arbiter"] = arbiter
            arb_idx.append(i)
            touched = True
        if touched:
            cell = SweepCell(experiment=cell.experiment, kind=cell.kind,
                             params=params, label=cell.label)
        out.append(cell)
    return out, tuple(gov_idx), tuple(fault_idx), tuple(arb_idx)


def run_plan(
    plan: SweepPlan,
    jobs: Optional[int] = None,
    cache=None,
    refresh: bool = False,
    stats=None,
    governor: Optional[Dict[str, Any]] = None,
    faults: Optional[Dict[str, Any]] = None,
    arbiter: Optional[Dict[str, Any]] = None,
    capture=None,
):
    """Run ``plan`` through the one cell runner and fold its results.

    ``governor``/``faults``/``arbiter`` are plain-data configs
    (``to_dict()`` form) overlaid onto every cell that does not pin its
    own (:func:`instrument_cells`) — the CLI's ``--governor``/
    ``--faults``/``--power-cap`` flags and a campaign's instrumentation
    become cell parameters this way.  Every cell then goes through
    :func:`run_cells` (memo > disk cache > warm-worker pool/inline).

    ``capture`` (a :class:`~repro.obs.capture.CaptureConfig`, or None
    for nothing) names the observability channels every cell collects.

    Returns ``(table, reports)``: the assembled ``(headers, rows,
    notes)`` and a dict holding, under ``"governor"``/``"faults"``/
    ``"arbiter"``, the report dicts of the cells each overlay touched,
    and under ``"captured"`` the observability payloads
    (:meth:`~repro.obs.capture.CellCapture.seal` dicts) of the plan's
    unique cells, once each in input order (empty without ``capture``).
    Reports and payloads round-trip the result cache, so a warm rerun
    reports identically to a cold one.
    """
    cells, *overlaid = instrument_cells(plan.cells, governor, faults, arbiter)
    results = run_cells(cells, jobs=jobs, cache=cache, refresh=refresh,
                        stats=stats, capture=capture)
    reports = {
        kind: [getattr(results[i], kind) for i in idx
               if getattr(results[i], kind) is not None]
        for kind, idx in zip(("governor", "faults", "arbiter"), overlaid)
    }
    captured: Dict[str, Any] = {}
    if capture:
        for cell, result in zip(cells, results):
            captured.setdefault(cache_key(cell), result.metrics)
    reports["captured"] = list(captured.values())
    return plan.assemble(results), reports


def _collective_cell(
    experiment: str,
    op: str,
    nbytes: int,
    n_ranks: int,
    mode: PowerMode = PowerMode.NONE,
    iterations: int = 1,
    progress: ProgressMode = ProgressMode.POLLING,
    cluster_spec: Optional[ClusterSpec] = None,
    keep_segments: bool = False,
    label: str = "",
    **extra,
) -> SweepCell:
    params: Dict[str, Any] = {
        "op": op,
        "nbytes": nbytes,
        "n_ranks": n_ranks,
        "mode": mode.value,
        "iterations": iterations,
        "progress": progress.value,
        "keep_segments": keep_segments,
    }
    if cluster_spec is not None:
        params["cluster"] = cluster_spec.to_dict()
    params.update({k: v for k, v in extra.items() if v is not None})
    return SweepCell(
        experiment=experiment,
        kind="collective",
        params=params,
        label=label or f"{op}/{bytes_label(nbytes)}/{mode.value}",
    )


# =====================================================================
# Figure 2
# =====================================================================
def plan_fig2a(sizes: Sequence[int] = FIG2A_SIZES, iterations: int = 1) -> SweepPlan:
    """Fig 2(a): 32-process alltoall, 4-way vs 8-way vs eq-(1) estimate."""
    spec_4way = ClusterSpec.with_shape(nodes=8, sockets=2, cores_per_socket=2)
    spec_8way = ClusterSpec.with_shape(nodes=4, sockets=2, cores_per_socket=4)
    cells = []
    for nbytes in sizes:
        for way, spec in (("4way", spec_4way), ("8way", spec_8way)):
            cells.append(
                _collective_cell(
                    "fig2a", "alltoall", nbytes, 32, iterations=iterations,
                    cluster_spec=spec,
                    label=f"alltoall/{bytes_label(nbytes)}/{way}",
                )
            )

    def assemble(results):
        rows: List[Tuple] = []
        for i, nbytes in enumerate(sizes):
            t4, t8 = results[2 * i], results[2 * i + 1]
            theory = t_alltoall_pairwise(8, 4, nbytes, ModelParams.contended(4))
            rows.append(
                (
                    bytes_label(nbytes),
                    _mean_latency_us(t4, iterations),
                    _mean_latency_us(t8, iterations),
                    theory * 1e6,
                )
            )
        headers = [
            "Size", "Alltoall-4way (us)", "Alltoall-8way (us)", "Theoretical (us)",
        ]
        notes = (
            "Paper: same 32-process job is ~54% slower in the 8-way layout due\n"
            "to HCA contention; the theoretical line is equation (1) with Cnet=4."
        )
        return headers, rows, notes

    return SweepPlan(cells, assemble)


def _plan_phases(experiment: str, op: str, phase_key: str,
                 sizes: Sequence[int], notes: str, n_ranks: int = 64) -> SweepPlan:
    cells = [
        _collective_cell(experiment, op, nbytes, n_ranks) for nbytes in sizes
    ]

    def assemble(results):
        rows = []
        for nbytes, r in zip(sizes, results):
            net = r.phase_times.get(phase_key, 0.0)
            rows.append(
                (bytes_label(nbytes), r.duration_s * 1e6, net * 1e6,
                 net / r.duration_s)
            )
        headers = ["Size", "Overall (us)", "Network phase (us)", "Net fraction"]
        return headers, rows, notes

    return SweepPlan(cells, assemble)


def plan_fig2b(sizes: Sequence[int] = FIG2B_SIZES) -> SweepPlan:
    """Fig 2(b): bcast total time vs its inter-leader network phase."""
    return _plan_phases(
        "fig2b", "bcast", "bcast.network", sizes,
        "Paper: the network phase accounts for most of the bcast time while\n"
        "only one rank per node communicates — the rest poll (waste power).",
    )


def plan_fig2c(sizes: Sequence[int] = FIG2C_SIZES) -> SweepPlan:
    """Fig 2(c): reduce total time vs its network phase."""
    return _plan_phases(
        "fig2c", "reduce", "reduce.network", sizes,
        "Same observation as Fig 2(b) for MPI_Reduce.",
    )


# =====================================================================
# Figure 6: polling vs blocking
# =====================================================================
def plan_fig6a(sizes: Sequence[int] = POWER_FIG_SIZES, iterations: int = 1) -> SweepPlan:
    """Fig 6(a): 64-process alltoall latency, polling vs blocking."""
    cells = []
    for nbytes in sizes:
        for progress in (ProgressMode.POLLING, ProgressMode.BLOCKING):
            cells.append(
                _collective_cell(
                    "fig6a", "alltoall", nbytes, 64, iterations=iterations,
                    progress=progress,
                    label=f"alltoall/{bytes_label(nbytes)}/{progress.value}",
                )
            )

    def assemble(results):
        rows = []
        for i, nbytes in enumerate(sizes):
            t_poll, t_block = results[2 * i], results[2 * i + 1]
            rows.append(
                (
                    bytes_label(nbytes),
                    _mean_latency_us(t_poll, iterations),
                    _mean_latency_us(t_block, iterations),
                    t_block.duration_s / t_poll.duration_s,
                )
            )
        headers = ["Size", "Polling (us)", "Blocking (us)", "Blocking/Polling"]
        notes = "Paper: blocking is ~2x slower at large sizes (Fig 6a)."
        return headers, rows, notes

    return SweepPlan(cells, assemble)


def plan_fig6b(
    nbytes: int = 256 << 10, iterations: int = 10, interval_s: float = 0.1
) -> SweepPlan:
    """Fig 6(b): sampled system power while the alltoall loop runs."""
    cells = [
        _collective_cell(
            "fig6b", "alltoall", nbytes, 64, iterations=iterations,
            progress=progress, keep_segments=True,
            power_trace_interval_s=interval_s,
            label=f"alltoall/{bytes_label(nbytes)}/{progress.value}/trace",
        )
        for progress in (ProgressMode.POLLING, ProgressMode.BLOCKING)
    ]

    def assemble(results):
        traces = [r.extra["power_trace"] for r in results]
        n = min(len(t["times_s"]) for t in traces)
        rows = [
            (
                f"{traces[0]['times_s'][i]:.2f}",
                traces[0]["power_kw"][i],
                traces[1]["power_kw"][i],
            )
            for i in range(n)
        ]
        headers = ["t (s)", "Polling (kW)", "Blocking (kW)"]
        notes = "Paper: polling draws ~2.3 kW, blocking dips to ~1.8-2.0 kW."
        return headers, rows, notes

    return SweepPlan(cells, assemble)


# =====================================================================
# Figures 7 & 8: the three schemes
# =====================================================================
def _plan_three_scheme_latency(
    experiment: str, op: str, sizes: Sequence[int], notes: str,
    iterations: int = 1,
) -> SweepPlan:
    cells = [
        _collective_cell(experiment, op, nbytes, 64, mode=mode,
                         iterations=iterations)
        for nbytes in sizes
        for mode in MODES
    ]

    def assemble(results):
        rows = []
        for i, nbytes in enumerate(sizes):
            latencies = [
                _mean_latency_us(results[3 * i + j], iterations) for j in range(3)
            ]
            overhead = latencies[2] / latencies[0] - 1.0
            rows.append((bytes_label(nbytes), *latencies, overhead))
        headers = [
            "Size",
            "No-Power (us)",
            "Freq-Scaling (us)",
            "Proposed (us)",
            "Proposed overhead",
        ]
        return headers, rows, notes

    return SweepPlan(cells, assemble)


def _plan_three_scheme_power(
    experiment: str, op: str, nbytes: int, iterations: int, interval_s: float
) -> SweepPlan:
    cells = [
        _collective_cell(
            experiment, op, nbytes, 64, mode=mode, iterations=iterations,
            keep_segments=True, power_trace_interval_s=interval_s,
            label=f"{op}/{bytes_label(nbytes)}/{mode.value}/trace",
        )
        for mode in MODES
    ]

    def assemble(results):
        traces = [r.extra["power_trace"] for r in results]
        means = [t["mean_power_w"] for t in traces]
        n = min(len(t["times_s"]) for t in traces)
        rows = [
            (
                f"{traces[0]['times_s'][i]:.2f}",
                traces[0]["power_kw"][i],
                traces[1]["power_kw"][i],
                traces[2]["power_kw"][i],
            )
            for i in range(n)
        ]
        headers = ["t (s)", "No-Power (kW)", "Freq-Scaling (kW)", "Proposed (kW)"]
        notes = (
            f"Mean power: No-Power {means[0]/1e3:.2f} kW, Freq-Scaling "
            f"{means[1]/1e3:.2f} kW, Proposed {means[2]/1e3:.2f} kW "
            "(paper: ~2.3 / ~1.8 / ~1.6 kW)."
        )
        return headers, rows, notes

    return SweepPlan(cells, assemble)


def plan_fig7a(sizes: Sequence[int] = POWER_FIG_SIZES) -> SweepPlan:
    """Fig 7(a): alltoall latency under the three schemes, 64 processes."""
    return _plan_three_scheme_latency(
        "fig7a", "alltoall", sizes,
        "Paper: ~10% gap between default and power-aware; very little\n"
        "difference between Freq-Scaling and Proposed.",
    )


def plan_fig7b(
    nbytes: int = 1 << 20, iterations: int = 8, interval_s: float = 0.25
) -> SweepPlan:
    """Fig 7(b): sampled power during the alltoall loop."""
    return _plan_three_scheme_power("fig7b", "alltoall", nbytes, iterations, interval_s)


def plan_alltoallv(sizes: Sequence[int] = POWER_FIG_SIZES) -> SweepPlan:
    """§VII-D: MPI_Alltoallv mirrors the Alltoall results ([26]).

    Uses deterministically skewed per-peer counts (±15 % around the mean)
    so the vector path is genuinely exercised."""
    cells = [
        SweepCell(
            experiment="alltoallv",
            kind="alltoallv",
            params={
                "nbytes": nbytes,
                "n_ranks": 64,
                "mode": mode.value,
                "keep_segments": False,
            },
            label=f"alltoallv/{bytes_label(nbytes)}/{mode.value}",
        )
        for nbytes in sizes
        for mode in MODES
    ]

    def assemble(results):
        rows = []
        for i, nbytes in enumerate(sizes):
            latencies = [results[3 * i + j].duration_s * 1e6 for j in range(3)]
            rows.append(
                (bytes_label(nbytes), *latencies, latencies[2] / latencies[0] - 1.0)
            )
        headers = [
            "Mean size",
            "No-Power (us)",
            "Freq-Scaling (us)",
            "Proposed (us)",
            "Proposed overhead",
        ]
        notes = "Paper §VII-D: Alltoallv behaves like Alltoall under all schemes."
        return headers, rows, notes

    return SweepPlan(cells, assemble)


def plan_fig8a(sizes: Sequence[int] = POWER_FIG_SIZES) -> SweepPlan:
    """Fig 8(a): bcast latency under the three schemes, 64 processes."""
    return _plan_three_scheme_latency(
        "fig8a", "bcast", sizes,
        "Paper: ~15% overhead at 1MB; power variants nearly identical.",
        iterations=4,
    )


def plan_fig8b(
    nbytes: int = 1 << 20, iterations: int = 600, interval_s: float = 0.25
) -> SweepPlan:
    """Fig 8(b): sampled power during the bcast loop."""
    return _plan_three_scheme_power("fig8b", "bcast", nbytes, iterations, interval_s)


# =====================================================================
# Figures 9 & 10 and Tables I & II: applications
# =====================================================================
def _app_cell(experiment: str, app: str, ranks: int, mode: PowerMode,
              governor=None, scheme: str = "") -> SweepCell:
    params: Dict[str, Any] = {
        "app": app,
        "ranks": ranks,
        "mode": mode.value,
    }
    if governor is not None:
        params["governor"] = governor
    return SweepCell(
        experiment=experiment,
        kind="app",
        params=params,
        label=f"{APPS[app].name}/{ranks}r/{scheme or mode.value}",
    )


def _plan_apps(experiment: str, apps: Sequence[str], energy: bool,
               headers: List[str], notes: str, ranks=(32, 64)) -> SweepPlan:
    """The shared fig9/10 + table I/II sweep: apps × ranks × schemes.

    The figure and table of the same section share the same 18 cells —
    identical content hashes, so the runner executes each once.  The
    figures fold one row per scheme (total + alltoall time), the tables
    one row per app and rank count (energy of each scheme)."""
    cells = [
        _app_cell(experiment, app, n, mode)
        for app in apps
        for n in ranks
        for mode in MODES
    ]

    def assemble(results):
        rows = []
        i = 0
        for app in apps:
            name = APPS[app].name
            for n in ranks:
                group = results[i:i + 3]
                i += 3
                if energy:
                    rows.append((name, n, *[r.app["energy_kj"] for r in group]))
                    continue
                for mode, r in zip(MODES, group):
                    rows.append(
                        (
                            name,
                            n,
                            MODE_LABELS[mode],
                            r.app["total_time_s"],
                            r.app["alltoall_time_s"],
                        )
                    )
        return headers, rows, notes

    return SweepPlan(cells, assemble)


def plan_fig9() -> SweepPlan:
    """Fig 9: CPMD total and alltoall time, 32/64 processes, 3 datasets."""
    return _plan_apps(
        "fig9", CPMD_APPS, False,
        ["Dataset", "Procs", "Scheme", "Total (s)", "Alltoall (s)"],
        "Paper: runtime halves from 32 to 64 processes while alltoall time\n"
        "changes little; power schemes cost ~2-5%.",
    )


def plan_table1() -> SweepPlan:
    """Table I: CPMD energy (kJ) under the three schemes."""
    return _plan_apps(
        "table1", CPMD_APPS, True,
        ["Dataset", "Procs", "Default (kJ)", "Freq-Scaling (kJ)", "Proposed (kJ)"],
        "Paper Table I; ~8% saving on ta-inp-md at 64 processes.",
    )


def plan_fig10() -> SweepPlan:
    """Fig 10: NAS FT and IS total + alltoall time."""
    return _plan_apps(
        "fig10", NAS_APPS, False,
        ["Kernel", "Procs", "Scheme", "Total (s)", "Alltoall (s)"],
        "Paper: same behaviour as CPMD; IS is the most alltoall-bound.",
    )


def plan_table2() -> SweepPlan:
    """Table II: NAS energy (kJ) under the three schemes."""
    return _plan_apps(
        "table2", NAS_APPS, True,
        ["Kernel", "Procs", "Default (kJ)", "Freq-Scaling (kJ)", "Proposed (kJ)"],
        "Paper Table II; ~8% saving on IS.",
    )


# =====================================================================
# Model validation & ablations
# =====================================================================
def plan_models_validation(nbytes: int = 1 << 20) -> SweepPlan:
    """Equations (1)-(4) against the simulator at 64 processes."""
    cells = [
        _collective_cell("models", "alltoall", nbytes, 64),
        _collective_cell("models", "bcast", nbytes, 64),
        _collective_cell("models", "alltoall", nbytes, 64, mode=PowerMode.PROPOSED),
        _collective_cell("models", "bcast", nbytes, 64, mode=PowerMode.PROPOSED),
    ]

    def assemble(results):
        params = ModelParams.contended(8)
        r, rb, rp, rpb = results
        rows = [
            ("eq(1) alltoall", t_alltoall_pairwise(8, 8, nbytes, params) * 1e6,
             r.duration_s * 1e6),
            ("eq(2) bcast net x N/2",
             t_bcast_scatter_allgather(8, nbytes, params) / 4 * 1e6,
             rb.phase_times["bcast.network"] * 1e6),
            ("eq(3) power alltoall",
             t_alltoall_power_aware(8, 8, nbytes, params) * 1e6,
             rp.duration_s * 1e6),
            ("eq(4) power bcast x N/2",
             t_bcast_power_aware(8, nbytes, params) / 4 * 1e6,
             rpb.duration_s * 1e6),
        ]
        headers = ["Model", "Predicted (us)", "Simulated (us)"]
        notes = (
            "Closed forms use Cnet=8 (ranks/HCA). The bcast forms are divided\n"
            "by N/2: the paper's eq counts ring bytes without the 1/N block size\n"
            "(see tests/models). Agreement within ~2x validates the shapes."
        )
        return headers, rows, notes

    return SweepPlan(cells, assemble)


def plan_ablation_granularity(nbytes: int = 1 << 20) -> SweepPlan:
    """§V-B discussion: socket- vs core-granular throttling."""
    grans = (ThrottleGranularity.SOCKET, ThrottleGranularity.CORE)
    ops = ("bcast", "alltoall")
    cells = [
        _collective_cell(
            "ablation-granularity", op, nbytes, 64, mode=PowerMode.PROPOSED,
            cluster_spec=ClusterSpec.with_shape(nodes=8, granularity=gran),
            iterations=2, keep_segments=True,
            label=f"{op}/{bytes_label(nbytes)}/{gran.value}",
        )
        for gran in grans
        for op in ops
    ]

    def assemble(results):
        rows = []
        i = 0
        for gran in grans:
            for op in ops:
                r = results[i]
                i += 1
                rows.append(
                    (op, gran.value, r.duration_s / 2 * 1e6, r.average_power_w / 1e3)
                )
        headers = ["Op", "Granularity", "Latency (us)", "Avg power (kW)"]
        notes = (
            "Paper §V-B: core-granular throttling (future architectures) gives\n"
            "more savings without slowing the leader."
        )
        return headers, rows, notes

    return SweepPlan(cells, assemble)


def plan_ext_racks(nbytes: int = 1 << 20) -> SweepPlan:
    """Paper §VIII future work: rack-aware power-aware broadcast on a
    4-rack / 16-node / 128-core cluster with 2:1 oversubscribed uplinks."""
    spec = ClusterSpec(nodes=16, racks=4)
    cells = [
        _collective_cell(
            "ext-racks", "bcast", nbytes, 128, mode=mode, iterations=4,
            cluster_spec=spec, keep_segments=True, link_flow_prefix="rack_up",
            label=f"bcast/{bytes_label(nbytes)}/racks/{mode.value}",
        )
        for mode in MODES
    ]

    def assemble(results):
        rows = [
            (
                MODE_LABELS[mode],
                r.duration_s / 4 * 1e6,
                r.average_power_w / 1e3,
                r.extra["link_flows"],
            )
            for mode, r in zip(MODES, results)
        ]
        headers = ["Scheme", "Latency (us)", "Avg power (kW)", "Uplink flows"]
        notes = (
            "Whole racks are throttled while only the 4 rack leaders cross the\n"
            "spine — the §VIII vision, one hierarchy level above Fig 4."
        )
        return headers, rows, notes

    return SweepPlan(cells, assemble)


def _mixed_cell(experiment: str, sizes: Sequence[int], mode: PowerMode,
                governor=None, scheme: str = "") -> SweepCell:
    params: Dict[str, Any] = {
        "sizes": list(sizes),
        "n_ranks": 64,
        "mode": mode.value,
        "keep_segments": False,
    }
    if governor is not None:
        params["governor"] = governor
    return SweepCell(
        experiment=experiment,
        kind="mixed",
        params=params,
        label=f"mixed/{scheme or mode.value}",
    )


def plan_ext_adaptive(
    sizes: Sequence[int] = (16 << 10, 64 << 10, 256 << 10, 1 << 20)
) -> SweepPlan:
    """Extension: the ADAPTIVE per-call policy vs the paper's static
    schemes on a mixed-size alltoall workload (one call per size)."""
    all_modes = (*MODES, PowerMode.ADAPTIVE)
    cells = [_mixed_cell("ext-adaptive", sizes, mode) for mode in all_modes]

    def assemble(results):
        rows = [
            (
                MODE_LABELS.get(mode, "Adaptive"),
                r.duration_s * 1e3,
                r.energy_j,
                r.throttle_transitions,
            )
            for mode, r in zip(all_modes, results)
        ]
        headers = ["Scheme", "Total (ms)", "Energy (J)", "Throttle ops"]
        notes = (
            "Adaptive engages the proposed schedule only when eq (1) predicts\n"
            "the call amortises the transitions: near-best energy at every mix."
        )
        return headers, rows, notes

    return SweepPlan(cells, assemble)


# ---------------------------------------------------------------------
# Extension: the online governor runtime (repro.runtime)
# ---------------------------------------------------------------------
#: Governor policies compared against the paper's static schemes.
GOVERNOR_POLICIES = ("countdown", "predictive")
GOVERNOR_LABELS = {"countdown": "Countdown", "predictive": "Predictive"}


def _governor_params(policy: str) -> Dict[str, Any]:
    """The plain-data GovernorConfig a governed cell carries."""
    from ..runtime import GovernorConfig, GovernorPolicy

    return GovernorConfig(policy=GovernorPolicy(policy)).to_dict()


def plan_ext_governor_alltoall(
    sizes: Sequence[int] = (64 << 10, 256 << 10, 1 << 20),
    iterations: int = 3,
    n_ranks: int = 64,
) -> SweepPlan:
    """Extension: online governor policies vs the paper's static schemes
    on OSU-style alltoall loops (countdown should track No-Power latency
    while shaving wait energy; predictive should track Proposed energy)."""
    cells = []
    for nbytes in sizes:
        for mode in MODES:
            cells.append(
                _collective_cell(
                    "ext-governor-alltoall", "alltoall", nbytes, n_ranks,
                    mode=mode, iterations=iterations,
                )
            )
        for policy in GOVERNOR_POLICIES:
            cells.append(
                _collective_cell(
                    "ext-governor-alltoall", "alltoall", nbytes, n_ranks,
                    iterations=iterations, governor=_governor_params(policy),
                    label=f"alltoall/{bytes_label(nbytes)}/{policy}",
                )
            )

    def assemble(results):
        schemes = [MODE_LABELS[m] for m in MODES] + [
            GOVERNOR_LABELS[p] for p in GOVERNOR_POLICIES
        ]
        rows: List[Tuple] = []
        per_size = len(schemes)
        for i, nbytes in enumerate(sizes):
            for j, scheme in enumerate(schemes):
                r = results[per_size * i + j]
                drops = r.governor["drops"] if r.governor is not None else 0
                rows.append(
                    (
                        bytes_label(nbytes),
                        scheme,
                        _mean_latency_us(r, iterations),
                        r.energy_j,
                        drops,
                    )
                )
        headers = ["Size", "Scheme", "Latency (us)", "Energy (J)", "Drops"]
        notes = (
            "Countdown throttles T-states only (the NIC rating follows core\n"
            "frequency, not duty), so its latency hugs No-Power; predictive\n"
            "pre-scales to fmin and lands near the Proposed energy point."
        )
        return headers, rows, notes

    return SweepPlan(cells, assemble)


def plan_ext_governor_mixed(
    sizes: Sequence[int] = (16 << 10, 64 << 10, 256 << 10, 1 << 20)
) -> SweepPlan:
    """Extension: the governor vs the per-call ADAPTIVE scheme on the
    mixed-size workload of :func:`plan_ext_adaptive`."""
    static_modes = (*MODES, PowerMode.ADAPTIVE)
    cells = [
        _mixed_cell("ext-governor-mixed", sizes, mode) for mode in static_modes
    ] + [
        _mixed_cell(
            "ext-governor-mixed", sizes, PowerMode.NONE,
            governor=_governor_params(policy), scheme=policy,
        )
        for policy in GOVERNOR_POLICIES
    ]

    def assemble(results):
        rows: List[Tuple] = []
        for mode, r in zip(static_modes, results):
            rows.append(
                (
                    MODE_LABELS.get(mode, "Adaptive"),
                    r.duration_s * 1e3,
                    r.energy_j,
                    r.dvfs_transitions + r.throttle_transitions,
                )
            )
        for policy, r in zip(GOVERNOR_POLICIES, results[len(static_modes):]):
            rows.append(
                (
                    GOVERNOR_LABELS[policy],
                    r.duration_s * 1e3,
                    r.energy_j,
                    r.governor["drops"] + r.governor["prescales"],
                )
            )
        headers = ["Scheme", "Total (ms)", "Energy (J)", "Power ops"]
        notes = (
            "Power ops counts DVFS+throttle transitions for static schemes and\n"
            "governor drops+pre-scales for the online policies.  The online\n"
            "policies need no per-algorithm schedule yet beat ADAPTIVE's energy."
        )
        return headers, rows, notes

    return SweepPlan(cells, assemble)


def plan_ext_governor_apps(include_nas: bool = True) -> SweepPlan:
    """Extension: governor policies on the application traces (CPMD water
    + NAS FT) against the paper's static schemes — the acceptance
    surface: countdown ≤ 1.05x best static energy at ≤ 2% added
    communication latency."""
    apps = [("cpmd-wat1", 64)]
    if include_nas:
        apps.append(("nas-ft", 64))
    cells = []
    for app, ranks in apps:
        for mode in MODES:
            cells.append(_app_cell("ext-governor-apps", app, ranks, mode))
        for policy in GOVERNOR_POLICIES:
            cells.append(
                _app_cell(
                    "ext-governor-apps", app, ranks, PowerMode.NONE,
                    governor=_governor_params(policy), scheme=policy,
                )
            )

    def assemble(results):
        schemes = [MODE_LABELS[m] for m in MODES] + [
            GOVERNOR_LABELS[p] for p in GOVERNOR_POLICIES
        ]
        rows: List[Tuple] = []
        per_app = len(schemes)
        for i, (app, _ranks) in enumerate(apps):
            for j, scheme in enumerate(schemes):
                r = results[per_app * i + j]
                rows.append(
                    (
                        APPS[app].name,
                        scheme,
                        r.app["total_time_s"],
                        r.app["alltoall_time_s"],
                        r.app["energy_kj"],
                    )
                )
        headers = ["App", "Scheme", "Total (s)", "Alltoall (s)", "Energy (kJ)"]
        notes = (
            "Countdown's T-state-only drops keep the alltoall phase within 2%\n"
            "of No-Power while recovering most of the wait energy; predictive\n"
            "pre-scaling beats every static scheme on total energy."
        )
        return headers, rows, notes

    return SweepPlan(cells, assemble)


# ---------------------------------------------------------------------
# Extension: fault injection (repro.faults) — robustness of the governor
# ---------------------------------------------------------------------
#: The "mild noise" perturbation of the fault study: a quarter of the
#: nodes at 60% NIC bandwidth plus OS noise on a quarter of the cores.
DEFAULT_FAULT_SPEC = (
    "degrade:factor=0.6,frac=0.25;noise:period=500us,pulse=20us,frac=0.25"
)


def plan_ext_faults(
    sizes: Sequence[int] = (64 << 10, 256 << 10),
    iterations: int = 3,
    n_ranks: int = 64,
    fault_spec: str = DEFAULT_FAULT_SPEC,
    seed: int = 7,
) -> SweepPlan:
    """Extension: governor policies on a quiet vs a perturbed machine.

    Each loop iteration computes briefly and then alltoalls, so every
    injector class matters: stragglers/noise stretch the compute,
    degraded NICs stretch the collective.  The acceptance claim is that
    countdown's envelope survives mild perturbation — latency hugging
    the (equally perturbed) No-Power baseline while still saving energy.
    """
    from ..faults import parse_fault_spec

    fault_params = parse_fault_spec(fault_spec, seed=seed).to_dict()
    schemes = ("No-Power", *GOVERNOR_LABELS.values())
    fault_labels = ("quiet", "mild")
    cells = []
    for nbytes in sizes:
        for fault_label in fault_labels:
            for scheme in schemes:
                governor = None
                if scheme != "No-Power":
                    policy = next(
                        p for p, label in GOVERNOR_LABELS.items()
                        if label == scheme
                    )
                    governor = _governor_params(policy)
                cells.append(
                    _collective_cell(
                        "ext-faults", "alltoall", nbytes, n_ranks,
                        iterations=iterations, compute_s=200e-6,
                        governor=governor,
                        faults=fault_params if fault_label == "mild" else None,
                        label=(
                            f"alltoall/{bytes_label(nbytes)}"
                            f"/{fault_label}/{scheme}"
                        ),
                    )
                )

    def assemble(results):
        rows: List[Tuple] = []
        i = 0
        for nbytes in sizes:
            for fault_label in fault_labels:
                for scheme in schemes:
                    r = results[i]
                    i += 1
                    drops = r.governor["drops"] if r.governor is not None else 0
                    rows.append(
                        (
                            bytes_label(nbytes),
                            fault_label,
                            scheme,
                            r.duration_s * 1e3,
                            r.energy_j,
                            drops,
                        )
                    )
        headers = ["Size", "Faults", "Scheme", "Total (ms)", "Energy (J)", "Drops"]
        notes = (
            "'mild' = " + fault_spec + f" (seed {seed}).\n"
            "Countdown must keep its envelope under perturbation: latency\n"
            "within 2% of the equally-faulted No-Power run, energy below it."
        )
        return headers, rows, notes

    return SweepPlan(cells, assemble)


def plan_ablation_scaling(
    nbytes: int = 256 << 10, node_counts=(2, 4, 8, 16)
) -> SweepPlan:
    """Scaling study: the proposed alltoall across cluster sizes.

    Equation (3) predicts overhead 2·Odvfs + N·Othrottle — linear in the
    node count — while the power saving fraction stays constant.  This
    sweep exercises both claims beyond the paper's 8-node testbed.
    """
    cells = []
    for n_nodes in node_counts:
        spec = ClusterSpec(nodes=n_nodes)
        n_ranks = n_nodes * 8
        for mode in (PowerMode.NONE, PowerMode.PROPOSED):
            cells.append(
                _collective_cell(
                    "ablation-scaling", "alltoall", nbytes, n_ranks, mode=mode,
                    cluster_spec=spec,
                    label=f"alltoall/{n_nodes}n/{mode.value}",
                )
            )

    def assemble(results):
        rows = []
        for i, n_nodes in enumerate(node_counts):
            r_def, r_prop = results[2 * i], results[2 * i + 1]
            rows.append(
                (
                    n_nodes,
                    n_nodes * 8,
                    r_def.duration_s * 1e6,
                    r_prop.duration_s * 1e6,
                    r_prop.duration_s / r_def.duration_s - 1.0,
                    1.0 - r_prop.average_power_w / r_def.average_power_w,
                )
            )
        headers = [
            "Nodes",
            "Ranks",
            "Default (us)",
            "Proposed (us)",
            "Overhead",
            "Power saving",
        ]
        notes = (
            "Eq (3): the throttle-transition overhead grows with N, but the\n"
            "relative power saving (~30%) is size-independent."
        )
        return headers, rows, notes

    return SweepPlan(cells, assemble)


def plan_ablation_fmin(nbytes: int = 1 << 20) -> SweepPlan:
    """Which DVFS target frequency minimises collective energy?

    The paper always drops to the floor (1.6 GHz); this sweep justifies
    that choice: communication is not CPU-bound, so energy decreases
    monotonically down the P-state ladder while latency grows only via the
    uncore/NIC coupling.
    """
    from ..cluster.specs import DEFAULT_PSTATES

    cells = []
    for f_target in DEFAULT_PSTATES:
        cpu = CpuSpec(pstates_ghz=tuple(f for f in DEFAULT_PSTATES if f >= f_target))
        spec = ClusterSpec(nodes=8, node=NodeSpec(cpu=cpu))
        cells.append(
            _collective_cell(
                "ablation-fmin", "alltoall", nbytes, 64, mode=PowerMode.DVFS,
                cluster_spec=spec,
                label=f"alltoall/{bytes_label(nbytes)}/fmin={f_target}",
            )
        )

    def assemble(results):
        rows = [
            (f_target, r.duration_s * 1e6, r.average_power_w / 1e3, r.energy_j)
            for f_target, r in zip(DEFAULT_PSTATES, results)
        ]
        headers = ["DVFS target (GHz)", "Latency (us)", "Avg power (kW)", "Energy (J)"]
        notes = (
            "Energy falls monotonically toward fmin — the paper's choice of\n"
            "'the minimum possible frequency' (§V) is energy-optimal for\n"
            "communication phases."
        )
        return headers, rows, notes

    return SweepPlan(cells, assemble)


def plan_ablation_overheads(
    nbytes: int = 256 << 10, overheads_us: Sequence[float] = (0.0, 12.0, 50.0, 200.0)
) -> SweepPlan:
    """§VI-A2: sensitivity of the proposed alltoall to Odvfs/Othrottle."""
    cells = []
    for ov in overheads_us:
        cpu = CpuSpec(dvfs_latency_s=ov * 1e-6, throttle_latency_s=ov * 1e-6)
        spec = ClusterSpec(nodes=8, node=NodeSpec(cpu=cpu))
        cells.append(
            _collective_cell(
                "ablation-overheads", "alltoall", nbytes, 64,
                mode=PowerMode.PROPOSED, cluster_spec=spec,
                label=f"alltoall/{bytes_label(nbytes)}/ov={ov}us",
            )
        )

    def assemble(results):
        rows = [(ov, r.duration_s * 1e6) for ov, r in zip(overheads_us, results)]
        headers = ["Odvfs=Othrottle (us)", "Proposed alltoall (us)"]
        notes = (
            "Paper §VI-A2: the overhead term 2·Odvfs + N·Othrottle grows\n"
            "linearly with the transition cost; Nehalem's ~12us keeps it small."
        )
        return headers, rows, notes

    return SweepPlan(cells, assemble)


# ---------------------------------------------------------------------
# Extension: cluster power-budget arbiter (repro.runtime.arbiter)
# ---------------------------------------------------------------------
#: Per-node cap (W) of the default capped scenario: between the node's
#: fmin demand (~225 W all-polling) and its fmax demand (~287.5 W), so
#: the uniform split clamps every node below fmax while redistribution
#: can push critical nodes back up with donated headroom.
ARBITER_CAP_PER_NODE_W = 250.0


def _arbiter_params(policy: str, power_cap_w: float) -> Dict[str, Any]:
    from ..runtime.arbiter import ArbiterConfig, ArbiterPolicy

    return ArbiterConfig(
        policy=ArbiterPolicy(policy), power_cap_w=power_cap_w
    ).to_dict()


def _multijob_cell(
    experiment: str,
    jobs: Sequence[Dict[str, Any]],
    cluster_spec: ClusterSpec,
    policy: Optional[str] = None,
    power_cap_w: float = 0.0,
    label: str = "",
) -> SweepCell:
    params: Dict[str, Any] = {
        "jobs": [dict(j) for j in jobs],
        "cluster": cluster_spec.to_dict(),
        "progress": ProgressMode.POLLING.value,
    }
    if policy is not None:
        params["arbiter"] = _arbiter_params(policy, power_cap_w)
    return SweepCell(
        experiment=experiment, kind="multijob", params=params,
        label=label or f"multijob/{policy or 'no-cap'}",
    )


def plan_ext_arbiter(
    n_nodes: int = 16,
    cap_per_node_w: float = ARBITER_CAP_PER_NODE_W,
    comm_nbytes: int = 64 << 10,
    comm_iterations: int = 2,
    compute_s: float = 10e-3,
    compute_iterations: int = 3,
) -> SweepPlan:
    """Extension: the cluster power-budget arbiter on a two-job scenario
    (no-cap / uniform / redistribute at one global cap) — redistribute
    should beat uniform on makespan at the same cap.

    Job A (first half of the nodes) is communication-bound — alltoall
    loops whose ranks spend most time in MPI waits, so under the
    ``redistribute`` policy its nodes become budget donors.  Job B
    (second half) is compute-bound and sets the makespan; the donated
    headroom lets its nodes run a higher P-state than the uniform split
    allows at the same global cap.
    """
    spec = ClusterSpec.with_shape(nodes=n_nodes, sockets=2, cores_per_socket=4)
    cores = 8
    half = n_nodes // 2
    jobs = [
        {
            "n_ranks": half * cores, "node_offset": 0,
            "op": "alltoall", "nbytes": comm_nbytes,
            "iterations": comm_iterations,
        },
        {
            "n_ranks": half * cores, "node_offset": half,
            "op": "allreduce", "nbytes": 1 << 10,
            "iterations": compute_iterations, "compute_s": compute_s,
        },
    ]
    cap = cap_per_node_w * n_nodes
    schemes = (("no-cap", None), ("uniform", "uniform"),
               ("redistribute", "redistribute"))
    cells = [
        _multijob_cell(
            "ext-arbiter", jobs, spec, policy=policy, power_cap_w=cap,
            label=f"multijob/{name}",
        )
        for name, policy in schemes
    ]

    def assemble(results):
        rows: List[Tuple] = []
        for (name, _policy), r in zip(schemes, results):
            job_a, job_b = r.extra["jobs"]
            arb = r.arbiter or {}
            rows.append(
                (
                    name,
                    r.duration_s * 1e3,
                    job_a["duration_s"] * 1e3,
                    job_b["duration_s"] * 1e3,
                    r.energy_j,
                    arb.get("donated_j", 0.0),
                )
            )
        headers = [
            "Scheme", "Makespan (ms)", "Job A (ms)", "Job B (ms)",
            "Energy (J)", "Donated (J)",
        ]
        notes = (
            "Equal global cap for uniform and redistribute; job A's alltoall\n"
            "slack funds job B's higher P-state under redistribution, so the\n"
            "compute-bound makespan drops without exceeding the cap."
        )
        return headers, rows, notes

    return SweepPlan(cells, assemble)


#: Experiment name → plan producer: the one experiment registry.  Each
#: producer's defaults are the experiment's paper parameterisation, and
#: the first line of its docstring is its ``repro experiments`` summary.
CELL_PLANS: Dict[str, Callable[..., SweepPlan]] = {
    "fig2a": plan_fig2a,
    "fig2b": plan_fig2b,
    "fig2c": plan_fig2c,
    "fig6a": plan_fig6a,
    "fig6b": plan_fig6b,
    "fig7a": plan_fig7a,
    "fig7b": plan_fig7b,
    "fig8a": plan_fig8a,
    "fig8b": plan_fig8b,
    "fig9": plan_fig9,
    "fig10": plan_fig10,
    "table1": plan_table1,
    "table2": plan_table2,
    "models": plan_models_validation,
    "alltoallv": plan_alltoallv,
    "ablation-granularity": plan_ablation_granularity,
    "ablation-overheads": plan_ablation_overheads,
    "ablation-fmin": plan_ablation_fmin,
    "ablation-scaling": plan_ablation_scaling,
    "ext-racks": plan_ext_racks,
    "ext-rack-topology": plan_ext_racks,
    "ext-adaptive": plan_ext_adaptive,
    "ext-governor": plan_ext_governor_alltoall,
    "ext-governor-alltoall": plan_ext_governor_alltoall,
    "ext-governor-mixed": plan_ext_governor_mixed,
    "ext-governor-apps": plan_ext_governor_apps,
    "ext-faults": plan_ext_faults,
    "ext-arbiter": plan_ext_arbiter,
}
