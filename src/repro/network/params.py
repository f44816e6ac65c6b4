"""Network and message-engine parameters.

Defaults model the paper's testbed: InfiniBand QDR (40 Gbit/s signalled,
8b/10b encoded → 32 Gbit/s raw; ≈3 GB/s achievable MPI payload bandwidth)
through one Mellanox QDR switch (non-blocking crossbar, so contention
concentrates at the per-node HCA links), plus MVAPICH2-like software costs.

Two knobs tie the network to the power machinery:

* ``dvfs_io_alpha`` — on Nehalem the uncore (IMC/QPI/PCIe feed) clocks down
  with the core P-state, so a node whose cores run at fmin cannot feed its
  HCA at full rate.  Effective NIC capacity = nic_bw · (α + (1−α)·f/fmax).
  With α = 0.72 a node at 1.6 GHz reaches ≈91 % of line rate — this is the
  physical origin of the ≈10 % "Freq-Scaling" overhead in Figs 7a/8a.
* ``cpu_feed_bw`` — a single *flow's* rate is additionally capped by the
  sending core's ability to progress the rendezvous pipeline, which scales
  with the core's speed factor (frequency × duty).  At fmax the cap is far
  above line rate, so it only binds for heavily throttled cores (the
  paper's ``Cthrottle``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

#: ``(fields, predicate, requirement)`` checked at construction, so a bad
#: value fails here with its field name instead of stalling, dividing by
#: zero or scheduling a negative delay deep inside a run.  Cross-spec
#: rules (e.g. a racked cluster needs ``rack_uplink_factor > 0``) live in
#: :func:`repro.sim.session.check_session_specs`.
_RULES = (
    (
        ("nic_bw", "shm_bw", "shm_bw_cross_socket", "mem_bw_node",
         "reduce_bw", "cpu_feed_bw"),
        lambda v: math.isfinite(v) and v > 0,
        "finite and positive",
    ),
    (
        ("inter_node_latency", "shm_latency", "o_send", "o_recv",
         "rndv_rtt_factor", "spin_window", "interrupt_latency",
         "resched_latency", "rack_uplink_factor", "flow_congestion",
         "flow_congestion_saturation"),
        lambda v: math.isfinite(v) and v >= 0,
        "finite and non-negative",
    ),
    # inf is the non-blocking crossbar; NaN fails the comparison.
    (("switch_oversubscription",), lambda v: v > 0,
     "positive (inf for a non-blocking switch)"),
    (("dvfs_io_alpha", "mem_dvfs_alpha"), lambda v: 0.0 <= v <= 1.0,
     "in [0, 1]"),
    (("blocking_nic_factor",), lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    (("blocking_chunk",), lambda v: v > 0, "positive"),
    (("eager_threshold",), lambda v: v >= 0, ">= 0"),
)


@dataclass(frozen=True)
class NetworkSpec:
    """All tunables of the fabric + message engine."""

    # -- InfiniBand QDR fabric --------------------------------------------
    #: Achievable MPI payload bandwidth per HCA port (B/s).
    nic_bw: float = 3.0e9
    #: One-way inter-node MPI latency (s).
    inter_node_latency: float = 1.5e-6
    #: Switch backplane aggregate capacity in units of per-port bandwidth;
    #: a non-blocking crossbar has >= n_ports (we default to effectively ∞).
    switch_oversubscription: float = float("inf")

    #: Rack uplink capacity in units of one HCA's bandwidth (only used when
    #: the cluster spec has racks > 1).  E.g. 2.0 = two QDR links from each
    #: leaf switch to the spine; with 4 nodes/rack that is 2:1
    #: oversubscription for inter-rack traffic.
    rack_uplink_factor: float = 2.0

    # -- intra-node (shared memory) path -----------------------------------
    #: Startup cost of a shared-memory message (s).
    shm_latency: float = 0.4e-6
    #: Pairwise shared-memory copy bandwidth at fmax (B/s) when both ranks
    #: share a socket (same last-level cache / memory controller).
    shm_bw: float = 4.5e9
    #: Cross-socket pair bandwidth: the copy crosses the QPI interconnect
    #: between the two Nehalem packages (paper Fig 5's A↔B boundary).
    shm_bw_cross_socket: float = 3.2e9
    #: Aggregate memory bandwidth per node shared by concurrent copies (B/s).
    mem_bw_node: float = 18.0e9

    # -- software (MVAPICH2-like) costs ------------------------------------
    #: Eager→rendezvous switch point (B).
    eager_threshold: int = 12 * 1024
    #: Per-message CPU send overhead at fmax/T0 (s).
    o_send: float = 0.35e-6
    #: Per-message CPU receive/match overhead at fmax/T0 (s).
    o_recv: float = 0.35e-6
    #: Rendezvous handshake adds one extra round trip.
    rndv_rtt_factor: float = 2.0
    #: Local reduction throughput at fmax (B/s) — cost of combining two
    #: buffers in MPI_Reduce/Allreduce.
    reduce_bw: float = 4.0e9

    #: Per-link congestion inefficiency: a link carrying n concurrent flows
    #: delivers capacity/(1 + p·(n−1)).  This is the paper's observation
    #: that contention has a super-linear cost (QP thrashing, HOL blocking)
    #: — and the reason its phased alltoall, which halves the flows per HCA,
    #: wins back bandwidth ("we expect the network contention to improve by
    #: 50 %", §VI-A2).  Set 0.0 for an ideal fair-sharing fabric.
    flow_congestion: float = 0.05
    #: The congestion penalty saturates at this many extra flows: beyond
    #: ~8 concurrent streams the HCA's scheduling overhead stops growing
    #: (keeps heavily-windowed transfers from collapsing unrealistically).
    flow_congestion_saturation: int = 7

    # -- DVFS / throttling coupling ----------------------------------------
    #: Uncore floor for NIC feed rate (see module docstring).
    dvfs_io_alpha: float = 0.72
    #: Frequency-sensitivity floor of shared-memory copies: memcpy is
    #: partially memory-bound, so a core at fmin still reaches
    #: α + (1−α)·f/fmax of its copy bandwidth (T-state duty still scales
    #: it linearly — gated clocks stall the copy loop outright).
    mem_dvfs_alpha: float = 0.60

    def shm_copy_factor(self, freq_ratio: float, duty: float) -> float:
        """Copy-bandwidth multiplier for a core at f/fmax = ``freq_ratio``
        and T-state duty cycle ``duty``."""
        return duty * (self.mem_dvfs_alpha + (1.0 - self.mem_dvfs_alpha) * freq_ratio)
    #: Per-flow CPU pipeline feed cap at fmax/T0 (B/s).
    cpu_feed_bw: float = 8.0e9

    # -- blocking progression mode (§II-B) ----------------------------------
    #: How long a blocking-mode process spins before yielding the CPU (s).
    spin_window: float = 20e-6
    #: HCA interrupt service latency (s).
    interrupt_latency: float = 8e-6
    #: OS re-schedule latency after wake-up (s).
    resched_latency: float = 10e-6
    #: Rendezvous pipeline chunk size; each chunk costs one wake-up when the
    #: receiver sleeps, which halves effective large-message bandwidth.
    blocking_chunk: int = 64 * 1024
    #: Node HCA utilisation when all ranks progress via interrupts: with every
    #: rank sleeping between events the send queues drain dry, roughly
    #: halving the achievable node bandwidth (Fig 6a's ≈2x gap).
    blocking_nic_factor: float = 0.55

    def __post_init__(self) -> None:
        for names, ok, requirement in _RULES:
            for name in names:
                value = getattr(self, name)
                try:
                    valid = ok(value)
                except TypeError:
                    valid = False
                if not valid:
                    raise ValueError(
                        f"NetworkSpec.{name} must be {requirement}, "
                        f"got {value!r}"
                    )

    def to_dict(self) -> dict:
        """Plain-data form for sweep cells and cache keys (flat floats/
        ints/bools; ``inf`` survives the JSON round trip as ``Infinity``).

        Carries ``"incremental_rerate": true`` as a constant: the key
        predates the removal of whole-fabric re-rating, and the result
        cache's environment signature hashes this dict, so dropping it
        would orphan every cached cell.
        """
        data = {}
        for name, value in asdict(self).items():
            data[name] = value
            if name == "cpu_feed_bw":
                data["incremental_rerate"] = True
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkSpec":
        """Inverse of :meth:`to_dict` (omitted keys take defaults)."""
        data = dict(data)
        if data.pop("incremental_rerate", True) is not True:
            raise ValueError(
                "NetworkSpec: incremental_rerate=false is no longer "
                "supported; whole-fabric re-rating was removed (the "
                "component-local re-rate gives the same rates)"
            )
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(
                f"NetworkSpec: unknown keys {', '.join(unknown)}"
            )
        return cls(**data)

    def nic_dvfs_factor(self, mean_freq_ratio: float) -> float:
        """Effective NIC capacity multiplier for a node whose cores run at
        ``mean_freq_ratio`` = mean(f)/fmax."""
        return self.dvfs_io_alpha + (1.0 - self.dvfs_io_alpha) * mean_freq_ratio

    def blocking_bw_penalty(self) -> float:
        """Serial per-byte cost (s/B) added to large transfers when the
        receiver sleeps between pipeline chunks (blocking mode)."""
        wake = self.interrupt_latency + self.resched_latency
        return wake / self.blocking_chunk
