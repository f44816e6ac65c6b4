"""Core / socket state machines: frequency (P-state), throttle (T-state)
and activity, with observer hooks for energy accounting.

A :class:`Core` holds the *current* state; every mutation first notifies the
registered listeners (giving them a chance to integrate power over the
segment that just ended) and then applies the change.  The
:class:`repro.power.accounting.EnergyAccountant` is the canonical listener.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, List, Optional

from ..sim.trace import NULL_TRACER, Tracer
from .specs import CpuSpec, NUM_TSTATES, ThrottleGranularity, tstate_duty


class Activity(enum.Enum):
    """What a core is doing; selects the activity factor of the power model."""

    #: Nothing scheduled (deep idle / C-state).
    IDLE = "idle"
    #: Spinning on the MPI progress engine (paper "polling" mode) — fully busy.
    POLLING = "polling"
    #: Application computation — fully busy.
    COMPUTE = "compute"
    #: Sleeping in the kernel waiting for an HCA interrupt ("blocking" mode).
    BLOCKED = "blocked"

    # Members are singletons and compare by identity, so the identity hash
    # is a valid (and C-level) replacement for Enum's per-call
    # ``hash(self._name_)`` — Activity appears in the memoized power-model
    # key, making this hash part of the accounting hot path.
    __hash__ = object.__hash__


#: Listener signature: called *before* a state change with (core, now).
StateListener = Callable[["Core", float], None]

#: Duty cycle per T-state, so a state change reads it instead of
#: re-checking the level's range in :func:`tstate_duty`.
_DUTY = tuple(tstate_duty(level) for level in range(NUM_TSTATES))


class Core:
    """One physical core with mutable (frequency, tstate, activity) state."""

    __slots__ = (
        "core_id",
        "os_id",
        "node_id",
        "socket_id",
        "spec",
        "frequency_ghz",
        "tstate",
        "activity",
        "speed_factor",
        "_listeners",
        "tracer",
        "nic_links",
    )

    def __init__(
        self,
        core_id: int,
        os_id: int,
        node_id: int,
        socket_id: int,
        spec: CpuSpec,
    ):
        #: Global sequential id across the cluster.
        self.core_id = core_id
        #: OS core number within the node (Nehalem interleaved numbering).
        self.os_id = os_id
        self.node_id = node_id
        #: Global socket id (node_id * sockets_per_node + local socket index).
        self.socket_id = socket_id
        self.spec = spec
        self.frequency_ghz = spec.fmax
        self.tstate = 0
        self.activity = Activity.IDLE
        self._update_speed()
        self._listeners: List[StateListener] = []
        self.tracer: Tracer = NULL_TRACER
        #: Links whose capacity follows this core's frequency (see
        #: ``Node.nic_links``); a frequency change drops their cached
        #: capacity, whoever makes it.
        self.nic_links: Iterable = ()

    # -- observation -------------------------------------------------------
    def add_listener(self, listener: StateListener) -> None:
        """Register a callback invoked before every state mutation."""
        self._listeners.append(listener)

    def remove_listener(self, listener: StateListener) -> None:
        self._listeners.remove(listener)

    def _notify(self, now: float) -> None:
        for listener in self._listeners:
            listener(self, now)

    # -- state mutation ----------------------------------------------------
    # The listener loop is inlined in each setter: state changes are the
    # energy-accounting hot path and a `_notify` frame per mutation is
    # measurable on governed runs.

    def set_frequency(self, freq_ghz: float, now: float) -> None:
        """Apply a DVFS change (snapped to the nearest supported P-state).

        The *transition latency* is charged by the caller (see
        :class:`repro.collectives.power_control.PowerControl`); this method
        only flips the state at time ``now``.
        """
        snapped = self.spec.nearest_pstate(freq_ghz)
        if snapped == self.frequency_ghz:
            return
        for listener in self._listeners:
            listener(self, now)
        if self.tracer.enabled:
            self.tracer.power_state(
                now, self.core_id, self.node_id, "frequency",
                self.frequency_ghz, snapped,
            )
        self.frequency_ghz = snapped
        self._update_speed()
        for link in self.nic_links:
            link.invalidate()

    def set_tstate(self, level: int, now: float) -> None:
        """Apply a throttle change (T0..T7)."""
        if not 0 <= level < NUM_TSTATES:
            raise ValueError(f"invalid T-state {level}")
        if level == self.tstate:
            return
        for listener in self._listeners:
            listener(self, now)
        if self.tracer.enabled:
            self.tracer.power_state(
                now, self.core_id, self.node_id, "tstate", self.tstate, level
            )
        self.tstate = level
        self._update_speed()

    def set_activity(self, activity: Activity, now: float) -> None:
        if activity == self.activity:
            return
        for listener in self._listeners:
            listener(self, now)
        if self.tracer.enabled:
            self.tracer.core_activity(
                now, self.core_id, self.node_id,
                self.activity.value, activity.value,
            )
        self.activity = activity

    # -- derived quantities --------------------------------------------------
    @property
    def duty(self) -> float:
        """Fraction of active cycles under the current T-state."""
        return _DUTY[self.tstate]

    def _update_speed(self) -> None:
        """Refresh ``speed_factor``: relative instruction throughput vs.
        an unthrottled core at fmax.  CPU-bound work (message posting,
        shared-memory copies) takes ``1 / speed_factor`` times longer on
        a scaled/throttled core.  Called by the only two writers of its
        inputs, :meth:`set_frequency` and :meth:`set_tstate`, so reads
        (twice per message, once per CPU overhead) cost nothing."""
        self.speed_factor = (self.frequency_ghz / self.spec.fmax) * _DUTY[self.tstate]

    def cpu_time(self, seconds_at_peak: float) -> float:
        """Wall time needed for work that takes ``seconds_at_peak`` at
        fmax/T0 on this core in its current state."""
        return seconds_at_peak / self.speed_factor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Core {self.core_id} node={self.node_id} sock={self.socket_id} "
            f"f={self.frequency_ghz}GHz T{self.tstate} {self.activity.value}>"
        )


class Socket:
    """A CPU package grouping ``cores``; the throttling unit on Nehalem."""

    __slots__ = ("socket_id", "node_id", "local_index", "cores", "spec")

    def __init__(
        self,
        socket_id: int,
        node_id: int,
        local_index: int,
        cores: List[Core],
        spec: CpuSpec,
    ):
        self.socket_id = socket_id
        self.node_id = node_id
        #: 0 for "socket A", 1 for "socket B" (paper Fig 5 terminology).
        self.local_index = local_index
        self.cores = cores
        self.spec = spec

    def set_tstate(self, level: int, now: float) -> None:
        """Throttle the whole package (the only legal unit when the spec says
        SOCKET granularity)."""
        for core in self.cores:
            core.set_tstate(level, now)

    def set_frequency(self, freq_ghz: float, now: float) -> None:
        for core in self.cores:
            core.set_frequency(freq_ghz, now)

    @property
    def tstate(self) -> int:
        """The package T-state (max of core states, i.e. most throttled,
        for reporting; under socket granularity all cores agree)."""
        return max(core.tstate for core in self.cores)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        side = "AB"[self.local_index] if self.local_index < 2 else str(self.local_index)
        return f"<Socket {side} node={self.node_id} cores={len(self.cores)}>"


class ThrottleDomain:
    """Resolves the unit at which a T-state request is applied.

    Under :attr:`ThrottleGranularity.SOCKET` (the paper's hardware), asking
    to throttle one core throttles its whole socket.  Under CORE granularity
    (future architectures, §V-B) only that core changes.
    """

    def __init__(self, spec: CpuSpec):
        self.spec = spec

    def apply(self, core: Core, socket: Optional[Socket], level: int, now: float) -> None:
        if self.spec.throttle_granularity is ThrottleGranularity.CORE:
            core.set_tstate(level, now)
        else:
            if socket is None:
                raise ValueError("socket required for socket-granular throttling")
            socket.set_tstate(level, now)
