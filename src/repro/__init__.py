"""repro — reproduction of "Designing Power-Aware Collective Communication
Algorithms for InfiniBand Clusters" (Kandalla et al., ICPP 2010).

The package simulates an InfiniBand multi-core cluster (discrete-event),
implements the paper's default and power-aware collective algorithms, its
analytical performance/power models, and the NAS/CPMD application workloads
used in the evaluation.

Quick start::

    from repro import (CollectiveConfig, CollectiveEngine, MpiJob,
                       PowerMode, SimSession)

    session = SimSession()          # env + cluster + fabric + power + tracer
    job = MpiJob(64, session=session, collectives=CollectiveEngine(
        CollectiveConfig(power_mode=PowerMode.PROPOSED)))

    def program(ctx):
        yield from ctx.alltoall(1 << 20)

    result = job.run(program)
    print(result.duration_s, result.energy_kj)
"""

from .cluster import (
    AffinityPolicy,
    Cluster,
    ClusterSpec,
    CpuSpec,
    NodeSpec,
    ThrottleGranularity,
)
from .collectives import CollectiveConfig, CollectiveEngine, PowerMode
from .faults import (
    FaultPlan,
    FaultSpecError,
    LinkDegrade,
    LinkFlap,
    OsNoise,
    Straggler,
    TransitionJitter,
    parse_fault_spec,
)
from .mpi import JobResult, MpiJob, ProgressMode, RankContext, run_collective_once
from .network import NetworkSpec
from .power import EnergyAccountant, PowerMeter, PowerModel, PowerModelParams
from .runtime import (
    ArbiterConfig,
    ArbiterPolicy,
    ArbiterReport,
    Governor,
    GovernorConfig,
    GovernorPolicy,
    GovernorReport,
    PowerArbiter,
)
from .sim import (
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    SessionConfigError,
    SimSession,
    Tracer,
)

__version__ = "0.1.0"

__all__ = [
    "AffinityPolicy",
    "ArbiterConfig",
    "ArbiterPolicy",
    "ArbiterReport",
    "Cluster",
    "ClusterSpec",
    "CollectiveConfig",
    "CollectiveEngine",
    "CpuSpec",
    "EnergyAccountant",
    "FaultPlan",
    "FaultSpecError",
    "Governor",
    "GovernorConfig",
    "GovernorPolicy",
    "GovernorReport",
    "JobResult",
    "JsonlTracer",
    "LinkDegrade",
    "LinkFlap",
    "MpiJob",
    "NetworkSpec",
    "NodeSpec",
    "NullTracer",
    "OsNoise",
    "PowerMeter",
    "PowerMode",
    "PowerArbiter",
    "PowerModel",
    "PowerModelParams",
    "ProgressMode",
    "RankContext",
    "RecordingTracer",
    "SessionConfigError",
    "SimSession",
    "Straggler",
    "ThrottleGranularity",
    "Tracer",
    "TransitionJitter",
    "parse_fault_spec",
    "run_collective_once",
    "__version__",
]
