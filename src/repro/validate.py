"""Configuration validation and sanity reporting.

``validate_configuration`` cross-checks a (cluster, network, power) triple
for the physical-consistency conditions the simulator's accuracy relies
on, returning human-readable findings instead of failing deep inside a
run.  ``python -m repro validate`` exposes it on the command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .cluster.specs import ClusterSpec
from .network.params import NetworkSpec
from .power.model import PowerModel, PowerModelParams


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" | "warning" | "info"
    message: str

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"[{self.severity}] {self.message}"


def validate_configuration(
    cluster: Optional[ClusterSpec] = None,
    network: Optional[NetworkSpec] = None,
    power: Optional[PowerModelParams] = None,
) -> List[Finding]:
    """Check a configuration triple; returns findings (empty = all good).

    Dataclass ``__post_init__`` hooks already reject malformed values;
    this layer checks *cross-parameter* physics.
    """
    from .sim.session import check_session_specs

    cluster = cluster or ClusterSpec()
    network = network or NetworkSpec()
    power = power or PowerModelParams()
    model = PowerModel(power)
    findings: List[Finding] = []

    # -- structural cluster/network mismatches (SimSession refuses these) --
    for problem in check_session_specs(cluster, network):
        findings.append(Finding("error", problem))

    # -- cluster ----------------------------------------------------------
    cpu = cluster.node.cpu
    if cpu.fmin == cpu.fmax:
        findings.append(
            Finding("warning", "single P-state: DVFS schemes will be no-ops")
        )
    if cpu.dvfs_latency_s > 1e-3:
        findings.append(
            Finding(
                "warning",
                f"Odvfs={cpu.dvfs_latency_s * 1e6:.0f}us is far above the "
                "Nehalem-class 10-15us the per-call schemes assume",
            )
        )
    if cluster.node.sockets != 2:
        findings.append(
            Finding(
                "info",
                f"{cluster.node.sockets} sockets/node: the proposed alltoall "
                "requires exactly 2 and will fall back to Freq-Scaling",
            )
        )

    # -- network ------------------------------------------------------------
    if network.shm_bw <= network.nic_bw / 2:
        findings.append(
            Finding(
                "warning",
                "shared-memory bandwidth below half the NIC rate: intra-node "
                "phases would dominate, contradicting the Fig 2(b) premise",
            )
        )
    if network.cpu_feed_bw < network.nic_bw:
        findings.append(
            Finding(
                "warning",
                "per-flow CPU feed cap below line rate: even unthrottled "
                "cores cannot saturate the HCA",
            )
        )
    if network.eager_threshold > 1 << 20:
        findings.append(
            Finding("warning", "eager threshold above 1MB is unrealistic")
        )
    # -- power ---------------------------------------------------------------
    p_fmax = model.full_core_power(cpu.fmax)
    p_fmin = model.full_core_power(cpu.fmin)
    if cpu.fmin < cpu.fmax and p_fmin >= p_fmax:
        findings.append(
            Finding("error", "core power not increasing with frequency")
        )
    idle_factor = power.activity_factors.get(
        next(a for a in power.activity_factors if a.value == "idle"), 0.3
    )
    if idle_factor >= 1.0:
        findings.append(
            Finding("error", "idle activity factor must be below active (1.0)")
        )
    system_w = (
        power.node_base_w * cluster.nodes + cluster.total_cores * p_fmax
    )
    per_core_total = system_w / max(cluster.total_cores, 1)
    if per_core_total > 100.0:
        findings.append(
            Finding(
                "warning",
                f"{per_core_total:.0f} W per core including overheads — "
                "outside the 2008-2012 Xeon envelope the calibration targets",
            )
        )
    return findings


def is_valid(findings: List[Finding]) -> bool:
    """True when no *errors* were found (warnings/info allowed)."""
    return not any(f.severity == "error" for f in findings)
