"""Job runner: executes one rank-program across all ranks on a
:class:`~repro.sim.session.SimSession` substrate.

Typical use::

    job = MpiJob(n_ranks=64)
    result = job.run(my_program, arg1, arg2)
    print(result.duration_s, result.energy_kj)

A job runs on the session it is given (``SimSession()``, the paper
testbed, when none is): the session owns env + cluster + fabric + power
model + tracer and the instruments; the job adds the MPI-side machinery
(affinity, message engine, communicators, rank contexts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..cluster.affinity import AffinityMap, AffinityPolicy
from ..cluster.cpu import Activity
from ..power.accounting import EnergyAccountant
from ..power.meter import PowerMeter, PowerTrace
from ..sim import Event
from ..sim.session import SimSession
from .communicator import CommLayout, CommunicatorFactory
from .context import RankContext
from .p2p import MessageEngine, ProgressMode

#: A rank program: generator function taking (ctx, *args, **kwargs).
RankProgram = Callable[..., Any]


@dataclass
class JobStats:
    """Counters accumulated over a run."""

    dvfs_transitions: int = 0
    throttle_transitions: int = 0
    #: Accumulated wall time per instrumented collective phase, e.g.
    #: "bcast.network" (used for Fig 2b/2c reproduction).
    phase_times: Dict[str, float] = field(default_factory=dict)

    def add_phase(self, name: str, dt: float) -> None:
        self.phase_times[name] = self.phase_times.get(name, 0.0) + dt


@dataclass
class JobResult:
    """Outcome of :meth:`MpiJob.run`."""

    duration_s: float
    rank_finish_times: List[float]
    returns: List[Any]
    energy_j: float
    accountant: EnergyAccountant
    stats: JobStats
    job: "MpiJob"

    @property
    def energy_kj(self) -> float:
        return self.energy_j / 1e3

    @property
    def average_power_w(self) -> float:
        return self.energy_j / self.duration_s if self.duration_s > 0 else 0.0

    def power_trace(self, interval_s: float = PowerMeter.DEFAULT_INTERVAL_S) -> PowerTrace:
        """Sampled system power over the run (the paper's meter view)."""
        return PowerMeter(interval_s).sample(self.accountant)


class MpiJob:
    """One simulated MPI execution on a :class:`SimSession`."""

    def __init__(
        self,
        n_ranks: int,
        affinity: AffinityPolicy = AffinityPolicy.BUNCH,
        progress: ProgressMode = ProgressMode.POLLING,
        collectives: Optional["CollectiveEngine"] = None,  # noqa: F821
        session: Optional[SimSession] = None,
        node_offset: int = 0,
    ):
        from ..collectives.registry import CollectiveEngine  # local: avoid cycle

        self.n_ranks = n_ranks
        if session is None:
            session = SimSession()
        self.session = session
        #: Optional online power governor (None = zero-overhead path).
        self.governor = session.governor
        #: Live fault-injection state (None = unperturbed, zero overhead).
        self.faults = session.faults
        #: Optional cluster power-budget arbiter (owned by the session).
        self.arbiter = session.arbiter
        self.env = session.env
        self.cluster = session.cluster
        self.affinity = AffinityMap(
            self.cluster, n_ranks, policy=affinity, node_offset=node_offset
        )
        self.net = session.net
        self.progress = progress
        if progress is ProgressMode.BLOCKING:
            self.net.set_progress_factor(self.net.spec.blocking_nic_factor)
        self.power_model = session.power_model
        self.accountant = session.accountant
        self.engine = MessageEngine(
            self.env, self.net, self.affinity, progress, governor=self.governor
        )
        self._comm_factory = CommunicatorFactory()
        self.layout = CommLayout.build(self._comm_factory, self.affinity)
        self.collectives = collectives or CollectiveEngine()
        self.stats = JobStats()
        self.contexts = [RankContext(self, r) for r in range(n_ranks)]
        self._flags: Dict[Tuple[int, str], Event] = {}
        self._flag_counts: Dict[Tuple[int, str], int] = {}
        self._splits: Dict[Tuple[int, int], Dict] = {}
        self._ran = False

    # -- node-local flags (shared-memory words used for phase coordination) ----
    def node_flag(self, node_id: int, name: str) -> Event:
        key = (node_id, name)
        if key not in self._flags:
            self._flags[key] = self.env.event()
        return self._flags[key]

    def register_split(self, comm, seq: int, world_rank: int, color, key):
        """Collect one rank's (color, key) for an MPI_Comm_split; once all
        members have arrived, build the sub-communicators and fire the
        completion event.  Returns the shared split record."""
        split_key = (comm.comm_id, seq)
        record = self._splits.setdefault(
            split_key, {"event": self.env.event(), "members": {}, "comms": {}}
        )
        if world_rank in record["members"]:  # pragma: no cover - defensive
            raise RuntimeError("rank arrived twice at the same comm_split")
        record["members"][world_rank] = (color, key)
        if len(record["members"]) == comm.size:
            by_color: Dict = {}
            for rank, (col, k) in record["members"].items():
                if col is None:
                    continue
                by_color.setdefault(col, []).append((k, rank))
            for col, entries in sorted(by_color.items(), key=lambda kv: str(kv[0])):
                ranks = [rank for _, rank in sorted(entries)]
                new_comm = self._comm_factory.create(
                    ranks, name=f"{comm.name}.split{seq}.{col}"
                )
                for rank in ranks:
                    record["comms"][rank] = new_comm
            record["event"].succeed()
        return record

    def node_flag_arrive(self, node_id: int, name: str, expected: int) -> None:
        """Counting flag: fires once ``expected`` ranks have arrived."""
        key = (node_id, name)
        count = self._flag_counts.get(key, 0) + 1
        self._flag_counts[key] = count
        if count == expected:
            self.node_flag(node_id, name).succeed(self.env.now)
        elif count > expected:  # pragma: no cover - defensive
            raise RuntimeError(f"flag {key} over-arrived")

    # -- execution ----------------------------------------------------------------
    @property
    def launched(self) -> bool:
        """True once :meth:`launch` (or :meth:`run`) queued the ranks."""
        return self._ran

    def launch(self, program: RankProgram, *args: Any, **kwargs: Any) -> "MpiJob":
        """Queue ``program`` on every rank without driving the simulation.

        The multi-job half of :meth:`run`: several jobs sharing one
        :class:`~repro.sim.session.SimSession` each ``launch()``, then
        :meth:`SimSession.run_jobs` drains the shared event queue once and
        :meth:`collect` builds each job's result.  Single-job callers keep
        using :meth:`run`, which composes the two around ``env.run()``.
        """
        if self._ran:
            raise RuntimeError("an MpiJob can only run once; build a new one")
        self._ran = True
        self._finish_times = [0.0] * self.n_ranks
        # Completion is tracked apart from the finish time: finishing at
        # t = 0 is legal, and a stuck rank must not pass for one.
        self._finished = [False] * self.n_ranks
        self._returns: List[Any] = [None] * self.n_ranks
        arbiter = self.arbiter

        def wrapper(ctx: RankContext):
            ctx.core.set_activity(Activity.POLLING, self.env.now)
            value = yield from program(ctx, *args, **kwargs)
            ctx.core.set_activity(Activity.IDLE, self.env.now)
            self._finish_times[ctx.rank] = self.env.now
            self._finished[ctx.rank] = True
            self._returns[ctx.rank] = value
            if arbiter is not None:
                arbiter.rank_finished()

        for ctx in self.contexts:
            self.env.process(wrapper(ctx), name=f"rank{ctx.rank}")
        if arbiter is not None:
            arbiter.job_started(self)
        tracer = self.session.tracer
        if tracer.enabled:
            tracer.mark(
                self.env.now, "job.begin",
                ranks=self.n_ranks,
                node_offset=self.affinity.node_offset,
                nodes=self.affinity.n_nodes_used,
            )
        return self

    def collect(self) -> JobResult:
        """Build this job's :class:`JobResult` after the event queue drained.

        Requires the session to be settled
        (:meth:`~repro.sim.session.SimSession.finish_run`) so the
        accountant is finalized.  ``energy_j`` here is the *whole-system*
        total — :meth:`SimSession.run_jobs` overwrites it with the
        per-job attribution when several jobs share the session.
        """
        if not self.engine.quiescent():
            raise RuntimeError(
                "job finished with unmatched messages (deadlock or missing recv)"
            )
        unfinished = [r for r, done in enumerate(self._finished) if not done]
        if unfinished:
            shown = ", ".join(map(str, unfinished[:16]))
            more = f" (+{len(unfinished) - 16} more)" if len(unfinished) > 16 else ""
            raise RuntimeError(
                f"job ended with {len(unfinished)} of {self.n_ranks} ranks "
                f"unfinished: ranks {shown}{more} never returned (a wait on "
                "an event that never fires?)"
            )
        end = max(self._finish_times) if self._finish_times else self.env.now
        return JobResult(
            duration_s=end,
            rank_finish_times=self._finish_times,
            returns=self._returns,
            energy_j=self.accountant.total_energy_j(),
            accountant=self.accountant,
            stats=self.stats,
            job=self,
        )

    def run(self, program: RankProgram, *args: Any, **kwargs: Any) -> JobResult:
        """Run ``program`` on every rank and account time + energy."""
        self.launch(program, *args, **kwargs)
        return self.session._drain([self])[0]


def run_collective_once(
    op: str,
    nbytes: int,
    n_ranks: int = 64,
    **job_kwargs: Any,
) -> JobResult:
    """Convenience: run a single collective of ``nbytes`` across ``n_ranks``.

    ``op`` is any collective name on :class:`RankContext` (e.g. "alltoall",
    "bcast").  Used heavily by tests and benchmarks.
    """
    job = MpiJob(n_ranks, **job_kwargs)

    def program(ctx: RankContext):
        yield from getattr(ctx, op)(nbytes)

    return job.run(program)
