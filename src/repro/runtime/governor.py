"""The online power governor: per-core policy state machines.

The paper's schemes (§V) hard-code power transitions into each
collective's schedule; the governor instead *observes* MPI behaviour at
runtime — through the same entry/exit and wait begin/end sites the tracer
sees — and drives DVFS/T-state actuation itself, COUNTDOWN-style
(Cesarini et al., arXiv:1806.07258).  Three policies:

``none``
    Observe-only passthrough.  The slack monitor records, nothing is
    actuated, no timers are armed: the event timeline and energy totals
    are bit-identical to a session with no governor at all (the
    determinism guard in ``tests/runtime`` asserts exactly this).

``countdown``
    The timeout-θ rule: once a core has been inside one continuous MPI
    wait for θ µs, drop it to the low-power state; restore (paying the
    transition latency) when the wait completes.  The drop is T-state
    only by default: T-states gate the power of a *polling* core by ~2×
    without touching its DVFS point, so the node's NIC rating — which
    follows the mean core frequency — is unaffected, keeping the added
    communication latency within the paper's tolerance.

``predictive``
    Uses the slack monitor's per-(collective, size) duration history to
    pre-scale the core to fmin *before* a call predicted to amortise the
    transitions, falling back to the paper's analytic model (eq. 1/2,
    the same rule the static ADAPTIVE scheme uses) while the history is
    cold.  Waits inside an engaged call throttle on a shorter countdown.

Actuation respects the hardware throttle granularity: on the paper's
Nehalem (socket-granular) a socket is throttled only once *every* core
on it is past θ in a wait, and restored as soon as any of them wakes.
A core whose drop would starve an incoming RDMA transfer is restored by
the message engine the moment the transfer starts (see
:meth:`Governor.transfer_starting`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..cluster.specs import ThrottleGranularity
from ..collectives.power_control import T_FULL, T_LOW
from ..sim.engine import CoalescedTimers
from .slack import SlackMonitor
from .telemetry import GovernorReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cpu import Core
    from ..sim.events import Timer
    from ..sim.session import SimSession

__all__ = [
    "Governor",
    "GovernorConfig",
    "GovernorPolicy",
]

#: Operations the predictive policy may pre-scale (collectives; blocking
#: p2p is observed for slack but never pre-scaled — fmin would slow the
#: sender's own feed path for no amortisable gain).
_PRESCALABLE_OPS = frozenset(
    {
        "alltoall",
        "alltoallv",
        "bcast",
        "reduce",
        "allreduce",
        "allgather",
        "reduce_scatter",
        "scatter",
        "gather",
        "scan",
    }
)


class GovernorPolicy(enum.Enum):
    """Which policy state machine drives each core."""

    NONE = "none"
    COUNTDOWN = "countdown"
    PREDICTIVE = "predictive"


@dataclass(frozen=True)
class GovernorConfig:
    """Tunables for the governor (defaults follow the paper's testbed)."""

    policy: GovernorPolicy = GovernorPolicy.NONE
    #: Countdown threshold θ: continuous wait time before a core drops.
    theta_s: float = 200e-6
    #: Countdown inside a predictively engaged call (the call is already
    #: known to be long, so throttle its waits more eagerly).
    predictive_theta_s: float = 50e-6
    #: T-state applied on drop (T7 = 12% duty on the paper's Nehalem).
    drop_tstate: int = T_LOW
    #: Also DVFS a countdown-dropped core to fmin.  Off by default: the
    #: node NIC rating follows mean core frequency, so frequency drops in
    #: waits would tax in-flight neighbours' bandwidth; T-states do not.
    drop_to_fmin: bool = False
    #: Minimum per-call payload for predictive engagement (paper §VI-C
    #: gates power-aware schedules at 8 KB as well).
    min_bytes: int = 8192
    #: Predicted duration must exceed ``gain ×`` transition overhead.
    predictive_gain: float = 3.5
    #: EWMA smoothing for the slack monitor.
    ewma_alpha: float = 0.25
    #: Samples before a (collective, size) history entry is warm.
    warm_calls: int = 2

    def __post_init__(self) -> None:
        if self.theta_s <= 0 or self.predictive_theta_s <= 0:
            raise ValueError("countdown thresholds must be > 0")
        if self.predictive_gain <= 0:
            raise ValueError("predictive_gain must be > 0")

    def to_dict(self) -> dict:
        """Plain-data form (JSON-able) — lets a sweep cell carry its
        governor across a process boundary and into a cache key."""
        return {
            "policy": self.policy.value,
            "theta_s": self.theta_s,
            "predictive_theta_s": self.predictive_theta_s,
            "drop_tstate": self.drop_tstate,
            "drop_to_fmin": self.drop_to_fmin,
            "min_bytes": self.min_bytes,
            "predictive_gain": self.predictive_gain,
            "ewma_alpha": self.ewma_alpha,
            "warm_calls": self.warm_calls,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GovernorConfig":
        """Inverse of :meth:`to_dict` (omitted keys take defaults)."""
        kwargs = dict(data)
        if "policy" in kwargs:
            kwargs["policy"] = GovernorPolicy(kwargs["policy"])
        return cls(**kwargs)


class _CoreFsm:
    """Per-core governor state (one FSM instance per physical core)."""

    __slots__ = (
        "core",
        "socket",
        "depth",
        "engaged",
        "predropped",
        "waiting",
        "wait_t0",
        "timer",
        "dropped",
        "drop_t0",
        "p_before",
        "call_op",
        "call_nbytes",
        "call_t0",
        "freq_dropped",
        "on_theta",
    )

    def __init__(self, core: "Core", socket) -> None:
        self.core = core
        self.socket = socket
        #: Nesting depth of MPI calls (collectives issue p2p internally).
        self.depth = 0
        #: Current top-level call is governed (predictive engagement).
        self.engaged = False
        #: Core pre-scaled to fmin for the current call (predictive).
        self.predropped = False
        self.waiting = False
        self.wait_t0 = 0.0
        self.timer: Optional["Timer"] = None
        #: θ fired during the current wait: the core is (marked) dropped.
        self.dropped = False
        self.drop_t0 = 0.0
        self.p_before = 0.0
        self.call_op = ""
        self.call_nbytes = 0
        self.call_t0 = 0.0
        #: Countdown also dropped the frequency (drop_to_fmin).
        self.freq_dropped = False
        #: The θ-countdown's timer callback (set once by Governor.bind).
        self.on_theta = None


class _SocketFsm:
    """Per-socket aggregate: throttle only when all cores are dropped."""

    __slots__ = ("socket", "n_cores", "dropped_waiting", "throttled")

    def __init__(self, socket) -> None:
        self.socket = socket
        self.n_cores = len(socket.cores)
        self.dropped_waiting = 0
        self.throttled = False


class Governor:
    """Session-wide policy engine; owns one :class:`_CoreFsm` per core.

    Lifecycle: construct with a :class:`GovernorConfig`, then
    :meth:`bind` to a :class:`~repro.sim.session.SimSession` (the session
    does this automatically when it owns the governor).  The MPI layer
    calls the notification hooks; :meth:`finish_run` seals the report.
    """

    def __init__(self, config: Optional[GovernorConfig] = None):
        self.config = config or GovernorConfig()
        self.monitor = SlackMonitor(
            alpha=self.config.ewma_alpha, warm_calls=self.config.warm_calls
        )
        self.session: Optional["SimSession"] = None
        self._cores: Dict[int, _CoreFsm] = {}
        self._sockets: Dict[int, _SocketFsm] = {}
        self._granularity = ThrottleGranularity.SOCKET
        # Telemetry counters (folded into the report).
        self.timers_armed = 0
        self.timers_cancelled = 0
        self.drops = 0
        self.restores = 0
        self.traffic_restores = 0
        self.socket_throttles = 0
        self.prescales = 0
        self.cold_decisions = 0
        self.mispredictions = 0
        self.missed_engagements = 0
        self.penalty_s = 0.0
        self.estimated_saving_j = 0.0

    # -- wiring -------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True when the policy actuates (``none`` only observes)."""
        return self.config.policy is not GovernorPolicy.NONE

    def bind(self, session: "SimSession") -> None:
        """Attach to a session's substrate (idempotent for the same one)."""
        if self.session is session:
            return
        if self.session is not None:
            raise ValueError("a Governor can only bind to one SimSession")
        self.session = session
        self.env = session.env
        self.net = session.net
        self.power_model = session.power_model
        # θ-countdowns arm through a coalescing bank: a wave of ranks
        # entering waits at one timestamp shares heap entries per deadline
        # (one Environment.defer flush — the fabric kernel's re-rate
        # batching primitive) instead of pushing one Timer per rank.
        self._timers = CoalescedTimers(self.env)
        cluster = session.cluster
        self._granularity = cluster.spec.node.cpu.throttle_granularity
        theta_fired = self._theta_fired
        for node in cluster.nodes:
            for socket in node.sockets:
                self._sockets[socket.socket_id] = _SocketFsm(socket)
                for core in socket.cores:
                    st = self._cores[core.core_id] = _CoreFsm(core, socket)
                    st.on_theta = lambda _slot, st=st: theta_fired(st)

    def _dvfs_s(self, core: "Core") -> float:
        """Odvfs for this actuation (jittered under an active fault plan)."""
        faults = self.session.faults if self.session is not None else None
        return (core.spec.dvfs_latency_s if faults is None
                else faults.dvfs_latency_s(core))

    def _throttle_s(self, core: "Core") -> float:
        """Othrottle for this actuation (jittered under an active fault plan)."""
        faults = self.session.faults if self.session is not None else None
        return (core.spec.throttle_latency_s if faults is None
                else faults.throttle_latency_s(core))

    # -- call entry/exit ----------------------------------------------------
    def call_begin(self, ctx, op: str, nbytes: int) -> Optional[float]:
        """A rank enters a top-level MPI call.

        Returns None, or the DVFS transition seconds of a predictive
        pre-scale: the caller sleeps that long and then calls
        :meth:`call_prescaled`, which flips the core to fmin — the same
        two-step split as :meth:`wait_end` / :meth:`wait_restored`.
        """
        st = self._cores[ctx.core.core_id]
        st.depth += 1
        if st.depth > 1:
            return None
        st.call_op = op
        st.call_nbytes = nbytes
        st.call_t0 = self.env.now
        st.engaged = False
        if (
            self.config.policy is GovernorPolicy.PREDICTIVE
            and op in _PRESCALABLE_OPS
            and nbytes >= self.config.min_bytes
            and self._predict_engage(ctx, op, nbytes)
        ):
            st.engaged = True
            st.predropped = True
            self.prescales += 1
            latency = self._dvfs_s(ctx.core)
            self.penalty_s += latency
            return latency
        return None

    def call_prescaled(self, ctx) -> None:
        """The pre-scale transition elapsed: the core runs at fmin."""
        core = ctx.core
        core.set_frequency(core.spec.fmin, self.env.now)
        self.net.dvfs_changed(core.node_id)

    def call_end(self, ctx, op: str, nbytes: int) -> Optional[float]:
        """The matching call exit.

        Returns None, or the transition seconds of restoring a pre-scaled
        core: the caller sleeps that long and then calls
        :meth:`call_restored`.
        """
        st = self._cores[ctx.core.core_id]
        st.depth -= 1
        if st.depth > 0:
            return None
        duration = self.env.now - st.call_t0
        self.monitor.record_call(op, nbytes, duration)
        if self.config.policy is GovernorPolicy.PREDICTIVE:
            self._grade_prediction(ctx, st, op, duration)
        if st.predropped:
            st.predropped = False
            latency = self._dvfs_s(ctx.core)
            self.penalty_s += latency
            return latency
        st.engaged = False
        return None

    def call_restored(self, ctx) -> None:
        """The restore transition elapsed: the core is back at fmax."""
        core = ctx.core
        core.set_frequency(core.spec.fmax, self.env.now)
        self.net.dvfs_changed(core.node_id)
        self._cores[core.core_id].engaged = False

    # -- wait entry/exit ----------------------------------------------------
    def wait_begin(self, ctx) -> None:
        """A rank starts blocking/polling inside ``RankContext._wait``."""
        st = self._cores[ctx.core.core_id]
        st.waiting = True
        st.wait_t0 = self.env.now
        policy = self.config.policy
        if policy is GovernorPolicy.COUNTDOWN:
            theta = self.config.theta_s
        elif policy is GovernorPolicy.PREDICTIVE and st.engaged:
            theta = self.config.predictive_theta_s
        else:
            return
        self.timers_armed += 1
        st.timer = self._timers.call_after(theta, st.on_theta)

    def wait_end(self, ctx) -> float:
        """The wait completed; returns the restore penalty in seconds.

        A non-zero penalty means the caller must sleep that long and then
        call :meth:`wait_restored` — the power state flips only after the
        transition completes, exactly like the static schemes charge
        Odvfs/Othrottle.
        """
        st = self._cores[ctx.core.core_id]
        st.waiting = False
        wait_s = self.env.now - st.wait_t0
        self.monitor.record_wait(ctx.core.core_id, wait_s)
        tracer = self.session.tracer if self.session is not None else None
        if tracer is not None and tracer.enabled:
            # Publish the slack estimate on the trace bus so repro.obs
            # can chart governor behaviour without coupling to it.
            # Observes only (marks never steer): timelines stay
            # byte-identical with tracing on or off.
            tracer.mark(
                self.env.now, "governor.slack",
                core=ctx.core.core_id, wait_s=wait_s,
                ewma_s=self.monitor.mean_wait_s(ctx.core.core_id),
            )
        if st.timer is not None:
            st.timer.cancel()
            st.timer = None
            self.timers_cancelled += 1
        if not st.dropped:
            return 0.0
        penalty = 0.0
        sock = self._sockets[st.core.socket_id]
        if self._granularity is ThrottleGranularity.SOCKET:
            if sock.throttled:
                sock.throttled = False  # claim the restore for this core
                penalty += self._throttle_s(ctx.core)
        elif st.core.tstate != T_FULL:
            penalty += self._throttle_s(ctx.core)
        if st.freq_dropped:
            penalty += self._dvfs_s(ctx.core)
        if penalty == 0.0:
            # Nothing was actually actuated (e.g. the socket never filled
            # up, or a sibling already restored it): bookkeeping only.
            self._finish_restore(st, unthrottle_socket=False)
        else:
            self.penalty_s += penalty
        return penalty

    def wait_restored(self, ctx) -> None:
        """Called after the restore penalty elapsed: flip the state back."""
        st = self._cores[ctx.core.core_id]
        self._finish_restore(st, unthrottle_socket=True)

    # -- message-engine hook ------------------------------------------------
    def transfer_starting(self, src_core: "Core", dst_core: "Core") -> float:
        """A transfer is about to sample its endpoints' CPU feed rates.

        RDMA needs both endpoints' feed paths un-throttled at flow start
        (the engine fixes ``cpu_cap`` then); a dropped endpoint is woken
        here.  Returns the transition seconds the transfer must absorb
        before starting (0.0 when neither endpoint was dropped).
        """
        delay = 0.0
        for core in (src_core, dst_core):
            st = self._cores.get(core.core_id)
            if st is None or not st.dropped:
                continue
            sock = self._sockets[core.socket_id]
            if self._granularity is ThrottleGranularity.SOCKET:
                if sock.throttled:
                    sock.throttled = False
                    delay += self._throttle_s(core)
            elif core.tstate != T_FULL:
                delay += self._throttle_s(core)
            if st.freq_dropped:
                delay += self._dvfs_s(core)
            self._finish_restore(st, unthrottle_socket=True)
            self.traffic_restores += 1
        if delay:
            self.penalty_s += delay
        return delay

    # -- internals ----------------------------------------------------------
    def _theta_fired(self, st: _CoreFsm) -> None:
        """θ of continuous wait elapsed: drop the core."""
        st.timer = None
        if not st.waiting or st.dropped:  # pragma: no cover - defensive
            return
        now = self.env.now
        st.dropped = True
        st.drop_t0 = now
        st.p_before = self.power_model.core_power(st.core)
        self.drops += 1
        if self.config.drop_to_fmin and not st.predropped:
            st.freq_dropped = True
            st.core.set_frequency(st.core.spec.fmin, now)
            self.net.dvfs_changed(st.core.node_id)
        if self._granularity is ThrottleGranularity.SOCKET:
            sock = self._sockets[st.core.socket_id]
            sock.dropped_waiting += 1
            if sock.dropped_waiting == sock.n_cores and not sock.throttled:
                sock.socket.set_tstate(self.config.drop_tstate, now)
                sock.throttled = True
                self.socket_throttles += 1
        else:
            st.core.set_tstate(self.config.drop_tstate, now)

    def _finish_restore(self, st: _CoreFsm, unthrottle_socket: bool) -> None:
        """Undo a drop's actuation and bookkeeping for one core."""
        if not st.dropped:
            # Already restored — e.g. a traffic restore fired during the
            # penalty sleep between wait_end and wait_restored.
            return
        now = self.env.now
        p_during = self.power_model.core_power(st.core)
        self.estimated_saving_j += max(0.0, st.p_before - p_during) * (
            now - st.drop_t0
        )
        st.dropped = False
        self.restores += 1
        if self._granularity is ThrottleGranularity.SOCKET:
            sock = self._sockets[st.core.socket_id]
            sock.dropped_waiting -= 1
            if unthrottle_socket and st.core.tstate != T_FULL:
                sock.socket.set_tstate(T_FULL, now)
                sock.throttled = False
        elif st.core.tstate != T_FULL:
            st.core.set_tstate(T_FULL, now)
        if st.freq_dropped:
            st.freq_dropped = False
            st.core.set_frequency(st.core.spec.fmax, now)
            self.net.dvfs_changed(st.core.node_id)

    def _predict_engage(self, ctx, op: str, nbytes: int) -> bool:
        """Predictive decision: is this call long enough to pre-scale?"""
        predicted = self.monitor.predicted_call_seconds(op, nbytes)
        if predicted is None:
            # Cold history: fall back to the paper's analytic estimate —
            # the same eq (1)/(2) rule the static ADAPTIVE scheme applies.
            predicted = self._analytic_call_seconds(ctx, op, nbytes)
            self.cold_decisions += 1
        spec = ctx.core.spec
        overhead = 2 * spec.dvfs_latency_s + 2 * spec.throttle_latency_s
        return predicted > self.config.predictive_gain * overhead

    def _grade_prediction(self, ctx, st: _CoreFsm, op: str, duration: float) -> None:
        if op not in _PRESCALABLE_OPS or st.call_nbytes < self.config.min_bytes:
            return
        spec = ctx.core.spec
        overhead = 2 * spec.dvfs_latency_s + 2 * spec.throttle_latency_s
        worth_it = duration > self.config.predictive_gain * overhead
        if st.engaged and not worth_it:
            self.mispredictions += 1
        elif not st.engaged and worth_it:
            self.missed_engagements += 1

    @staticmethod
    def _analytic_call_seconds(ctx, op: str, nbytes: int) -> float:
        """Paper §VI estimates (eq. 1/2 shapes) of a collective's duration."""
        aff = ctx.affinity
        net = ctx.spec
        n = max(aff.n_nodes_used, 1)
        c = aff.cores_per_node
        p = aff.n_ranks
        tw = 1.0 / net.nic_bw
        if op in ("alltoall", "alltoallv"):
            return tw * (p - c) * c * nbytes  # eq (1), Cnet = ranks/HCA
        if op in ("bcast", "reduce"):
            return nbytes * (n - 1) * tw * (1 + 1 / n)  # eq (2)
        return nbytes * max(p - 1, 1) * tw

    # -- reporting ----------------------------------------------------------
    def finish_run(self) -> GovernorReport:
        """Seal the run: force-restore any leftover drops (a program that
        ends mid-wait) and return the report."""
        for st in self._cores.values():
            if st.timer is not None:
                st.timer.cancel()
                st.timer = None
                self.timers_cancelled += 1
            if st.dropped:
                # End-of-run restores pay the same Odvfs/Othrottle the
                # wait_end / transfer_starting paths charge — a program
                # ending mid-drop must not under-report penalty seconds.
                # Socket granularity charges once per still-throttled
                # socket (claimed by clearing the flag, like wait_end).
                penalty = 0.0
                sock = self._sockets[st.core.socket_id]
                if self._granularity is ThrottleGranularity.SOCKET:
                    if sock.throttled:
                        sock.throttled = False
                        penalty += self._throttle_s(st.core)
                elif st.core.tstate != T_FULL:
                    penalty += self._throttle_s(st.core)
                if st.freq_dropped:
                    penalty += self._dvfs_s(st.core)
                self.penalty_s += penalty
                self._finish_restore(st, unthrottle_socket=True)
        return self.report()

    def report(self) -> GovernorReport:
        """Snapshot of the governor's telemetry."""
        return GovernorReport(
            policy=self.config.policy.value,
            theta_us=self.config.theta_s * 1e6,
            calls_observed=self.monitor.calls_observed,
            waits_observed=self.monitor.waits_observed,
            total_wait_s=self.monitor.total_wait_s,
            timers_armed=self.timers_armed,
            timers_cancelled=self.timers_cancelled,
            drops=self.drops,
            restores=self.restores,
            traffic_restores=self.traffic_restores,
            socket_throttles=self.socket_throttles,
            prescales=self.prescales,
            cold_decisions=self.cold_decisions,
            mispredictions=self.mispredictions,
            missed_engagements=self.missed_engagements,
            penalty_s=self.penalty_s,
            estimated_saving_j=self.estimated_saving_j,
            monitor=self.monitor.summary(),
        )

