"""Per-rank programming interface.

A rank program is a generator function ``def program(ctx, ...)`` that
``yield from``-s the context's operations::

    def program(ctx):
        yield from ctx.compute(1e-3)              # 1 ms of work at fmax
        yield from ctx.alltoall(1 << 20)          # collective on COMM_WORLD
        yield from ctx.send(dst=1, nbytes=4096)   # p2p

Power-management operations (``scale_frequency`` / ``throttle``) mirror
what the paper's MVAPICH2 modifications do around and inside collectives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..cluster.cpu import Activity
from ..sim import Event
from ..sim.events import _PENDING, _PROCESSED, URGENT
from .communicator import Communicator
from .p2p import ANY_SOURCE, ANY_TAG, ProgressMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .job import MpiJob


class Exchange(Event):
    """One blocking point-to-point call: the continuations that post its
    requests, and the counted join its rank parks on.

    The CPU overheads ``o_send`` and ``o_recv`` are timers whose
    callbacks post the send and the receive (a zero overhead posts
    inline), so the rank parks once, here, instead of resuming after
    each overhead.  Each timer takes the heap entry the overhead's
    ``Timeout`` would: the same time, priority and sequence point.

    Once posted, the join counts the requests as they complete (the
    message engine only ever succeeds them).  A pair triggers it with
    the URGENT heap entry an ``AllOf`` over the two would push; a single
    request releases the waiters in place, inside its own dispatch, as
    if the rank had parked on it directly.  The value is the receive's
    (the send's for a send).  In blocking progress the posting
    continuation instead resumes the rank in place, which then spins
    and sleeps on the join (:meth:`RankContext._block_on`).
    """

    __slots__ = ("ctx", "comm", "nbytes", "dst", "tag", "src", "recv_tag",
                 "send", "recv", "_left", "wait_start")

    def __init__(self, ctx: "RankContext", comm: Communicator, nbytes: int,
                 dst, tag, src, recv_tag):
        self.env = env = ctx.env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = _PENDING
        self._defused = False
        self.ctx = ctx
        self.comm = comm
        self.nbytes = nbytes
        self.dst = dst
        self.tag = tag
        self.src = src
        self.recv_tag = recv_tag
        self.send = self.recv = None
        #: Posting time, the start of the wait; None until posted.
        self.wait_start = None
        if dst is None:
            self._arm_recv(None)
            return
        o_send = ctx.job.net.spec.o_send
        if o_send > 0:
            env.call_after(ctx.core.cpu_time(o_send), self._post_send)
        else:
            self._post_send(None)

    # The posting chain.  ``timer`` is the overhead timer that ran the
    # step, or None while posting inline on the rank's own resume.
    def _post_send(self, timer) -> None:
        ctx = self.ctx
        comm = self.comm
        self.send = ctx.job.engine.post_send(
            ctx.rank, comm.world_rank(self.dst), self.nbytes, self.tag, comm
        )
        if self.src is None:
            self._posted(timer)
        else:
            self._arm_recv(timer)

    def _arm_recv(self, timer) -> None:
        ctx = self.ctx
        o_recv = ctx.job.net.spec.o_recv
        if o_recv > 0:
            self.env.call_after(ctx.core.cpu_time(o_recv), self._post_recv)
        else:
            self._post_recv(timer)

    def _post_recv(self, timer) -> None:
        ctx = self.ctx
        comm = self.comm
        src = self.src
        self.recv = ctx.job.engine.post_recv(
            ctx.rank, src if src == ANY_SOURCE else comm.world_rank(src),
            self.recv_tag, comm,
        )
        self._posted(timer)

    def _posted(self, timer) -> None:
        """Every request is posted: count them in and start the wait."""
        send, recv = self.send, self.recv
        if send is None or recv is None:
            self._left = 1
            (recv if send is None else send).callbacks.append(self._part_done)
        else:
            # The send may have completed during the o_recv overhead.
            self._left = 2
            for request in (send, recv):
                if request.callbacks is None:
                    self._left -= 1
                else:
                    request.callbacks.append(self._part_done)
        ctx = self.ctx
        job = ctx.job
        if job.governor is not None:
            job.governor.wait_begin(ctx)
        self.wait_start = self.env.now
        if timer is not None and job.progress is not ProgressMode.POLLING:
            # Resume the parked rank in place, as the overhead's Timeout
            # did; it goes on to spin on the join.
            waiters, self.callbacks = self.callbacks, []
            for waiter in waiters:
                waiter(timer)

    def _part_done(self, request: Event) -> None:
        self._left -= 1
        if self._left:
            return
        if self.send is not None and self.recv is not None:
            self.succeed(self.recv._value, URGENT)
            return
        self._value = request._value
        self._state = _PROCESSED
        waiters, self.callbacks = self.callbacks, None
        for waiter in waiters:
            waiter(self)


class RankContext:
    """Everything one MPI rank can see and do."""

    def __init__(self, job: "MpiJob", rank: int):
        self.job = job
        self.rank = rank
        self.env = job.env
        self.core = job.affinity.core_of(rank)
        self.socket = job.affinity.socket_of(rank)
        self.node_id = job.affinity.node_of(rank)
        self._coll_seq: dict = {}

    # -- group facts ---------------------------------------------------------
    @property
    def size(self) -> int:
        return self.job.n_ranks

    @property
    def world(self) -> Communicator:
        return self.job.layout.world

    @property
    def shared_comm(self) -> Communicator:
        """This node's shared-memory communicator (Fig 1)."""
        return self.job.layout.shared[self.node_id]

    @property
    def leader_comm(self) -> Communicator:
        return self.job.layout.leaders

    @property
    def affinity(self):
        return self.job.affinity

    @property
    def spec(self):
        return self.job.net.spec

    def is_node_leader(self) -> bool:
        return self.job.affinity.is_leader(self.rank)

    def next_seq(self, comm: Communicator) -> int:
        """Per-communicator collective sequence number (SPMD programs call
        collectives in the same order, so counters agree across ranks).
        Used to keep the tag spaces of successive collectives disjoint."""
        seq = self._coll_seq.get(comm.comm_id, 0)
        self._coll_seq[comm.comm_id] = seq + 1
        return seq

    def now(self) -> float:
        return self.env.now

    # -- internal helpers ----------------------------------------------------
    def _overhead(self, seconds_at_peak: float):
        """CPU cost scaled by the core's current speed factor."""
        if seconds_at_peak > 0:
            yield self.env.timeout(self.core.cpu_time(seconds_at_peak))

    def _wait(self, event: Event):
        """Wait for ``event`` honouring the progress mode.

        Polling: spin (core stays busy).  Blocking: spin for the spin
        window, then sleep (core → BLOCKED) and pay interrupt + re-schedule
        latency on wake-up.

        When a governor is installed this is its sensing/actuation point:
        wait begin arms the countdown, wait end measures the slack and, if
        the core was dropped mid-wait, pays the restore transition before
        the program continues (mirroring how the static schemes charge
        Odvfs/Othrottle).  :meth:`_p2p` inlines the same sequence.
        """
        job = self.job
        governor = job.governor
        if governor is not None:
            governor.wait_begin(self)
        wait_start = self.env.now
        if job.progress is ProgressMode.POLLING:
            value = yield event
        else:
            value = yield from self._block_on(event)
        penalty = self._wait_end(wait_start)
        if penalty > 0.0:
            yield self.env.timeout(penalty)
            governor.wait_restored(self)
        return value

    def _block_on(self, event: Event):
        """Blocking-mode wait: spin for the spin window, then sleep until
        ``event`` fires and pay the wake-up latency."""
        env = self.env
        spec = self.spec
        spin = env.timeout(spec.spin_window)
        yield env.any_of([event, spin])
        if event.triggered:
            return event.value
        self.core.set_activity(Activity.BLOCKED, env.now)
        value = yield event
        self.core.set_activity(Activity.POLLING, env.now)
        yield env.timeout(spec.interrupt_latency + spec.resched_latency)
        return value

    def _wait_end(self, wait_start: float) -> float:
        """Report a finished wait; returns the governor's restore penalty
        (the caller sleeps it, then calls ``governor.wait_restored``)."""
        job = self.job
        arbiter = job.arbiter
        if arbiter is not None:
            # The redistribute policy's slack signal: how long this core
            # sat in MPI waits (communication-bound nodes donate budget).
            arbiter.record_wait(self.core.core_id, self.env.now - wait_start)
        governor = job.governor
        if governor is None:
            return 0.0
        return governor.wait_end(self)

    def _governed(self, op: str, nbytes: int, inner):
        """``inner`` (an operation generator) itself when no governor is
        installed, else wrapped between the governor's entry/exit
        notifications.  The governor tracks call nesting itself, so the
        p2p issued *inside* a wrapped collective stays subordinate."""
        governor = self.job.governor
        if governor is None:
            return inner
        return self._governed_call(governor, op, nbytes, inner)

    def _governed_call(self, governor, op: str, nbytes: int, inner):
        delay = governor.call_begin(self, op, nbytes)
        if delay is not None:
            yield self.env.timeout(delay)
            governor.call_prescaled(self)
        value = yield from inner
        delay = governor.call_end(self, op, nbytes)
        if delay is not None:
            yield self.env.timeout(delay)
            governor.call_restored(self)
        return value

    def _p2p(self, op, nbytes, comm, dst, tag, src, recv_tag):
        """Blocking point-to-point call as one generator.

        Sends ``nbytes`` to ``dst`` unless ``dst`` is None, receives from
        ``src`` unless ``src`` is None, and waits for both requests: the
        sequence of :meth:`_governed` around :meth:`isend`,
        :meth:`irecv` and :meth:`_wait`, with the posting run by an
        :class:`Exchange` so the rank resumes once per call.  Returns the
        receive's value, else the send's.
        """
        env = self.env
        job = self.job
        governor = job.governor
        if governor is not None:
            delay = governor.call_begin(self, op, nbytes)
            if delay is not None:
                yield env.timeout(delay)
                governor.call_prescaled(self)
        join = Exchange(self, comm, nbytes, dst, tag, src, recv_tag)
        if job.progress is ProgressMode.POLLING:
            value = yield join
        else:
            if join.wait_start is None:
                yield join  # resumed in place once posted
            value = yield from self._block_on(join)
        penalty = self._wait_end(join.wait_start)
        if penalty > 0.0:
            yield env.timeout(penalty)
            governor.wait_restored(self)
        if governor is not None:
            delay = governor.call_end(self, op, nbytes)
            if delay is not None:
                yield env.timeout(delay)
                governor.call_restored(self)
        return value

    # -- point-to-point ---------------------------------------------------------
    def isend(
        self,
        dst: int,
        nbytes: int,
        tag: int = 0,
        comm: Optional[Communicator] = None,
    ):
        """Start a send; returns the request event (pays the CPU overhead)."""
        comm = comm or self.world
        yield from self._overhead(self.spec.o_send)
        dst_world = comm.world_rank(dst)
        return self.job.engine.post_send(self.rank, dst_world, nbytes, tag, comm)

    def irecv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Optional[Communicator] = None,
    ):
        """Post a receive; returns the request event."""
        comm = comm or self.world
        yield from self._overhead(self.spec.o_recv)
        src_world = src if src == ANY_SOURCE else comm.world_rank(src)
        return self.job.engine.post_recv(self.rank, src_world, tag, comm)

    def send(self, dst, nbytes, tag=0, comm=None):
        """Blocking send: returns when the message engine releases the sender
        (immediately for eager, at transfer completion for rendezvous)."""
        return self._p2p("send", nbytes, comm or self.world, dst, tag, None, None)

    def recv(self, src=ANY_SOURCE, tag=ANY_TAG, comm=None):
        """Blocking receive; returns (src_world, tag, nbytes)."""
        return self._p2p("recv", 0, comm or self.world, None, None, src, tag)

    def waitall(self, requests):
        """Wait for every request in ``requests``; returns their values."""
        requests = list(requests)
        yield from self._wait(self.env.all_of(requests))
        return [req.value for req in requests]

    def waitany(self, requests):
        """Wait until at least one request completes; returns the index and
        value of the first completed request (by list order)."""
        requests = list(requests)
        if not requests:
            raise ValueError("waitany needs at least one request")
        yield from self._wait(self.env.any_of(requests))
        for i, req in enumerate(requests):
            if req.triggered:
                return i, req.value
        raise AssertionError("any_of fired with no triggered request")

    def sendrecv(self, dst, nbytes, src=None, tag=0, comm=None, recv_tag=None):
        """Simultaneous exchange (the workhorse of pairwise alltoall)."""
        return self._p2p(
            "sendrecv", nbytes, comm or self.world, dst, tag,
            dst if src is None else src, tag if recv_tag is None else recv_tag,
        )

    # -- computation ---------------------------------------------------------------
    def compute(self, seconds_at_peak: float):
        """Run application computation costing ``seconds_at_peak`` at fmax/T0;
        slower under DVFS/throttling (and under injected stragglers/OS
        noise when a fault plan is active)."""
        if seconds_at_peak < 0:
            raise ValueError("compute time must be >= 0")
        if seconds_at_peak == 0:
            return
        faults = self.job.faults
        if faults is not None:
            seconds_at_peak = faults.perturb_compute(self.core, seconds_at_peak)
        self.core.set_activity(Activity.COMPUTE, self.env.now)
        yield self.env.timeout(self.core.cpu_time(seconds_at_peak))
        self.core.set_activity(Activity.POLLING, self.env.now)

    def idle(self, seconds: float):
        """Park the core (used by failure-injection and app tests)."""
        self.core.set_activity(Activity.IDLE, self.env.now)
        yield self.env.timeout(seconds)
        self.core.set_activity(Activity.POLLING, self.env.now)

    # -- power management ----------------------------------------------------------
    def scale_frequency(self, freq_ghz: float, charge: bool = True):
        """DVFS this rank's core (pays ``Odvfs`` unless ``charge=False``)."""
        if charge:
            faults = self.job.faults
            yield self.env.timeout(
                self.core.spec.dvfs_latency_s if faults is None
                else faults.dvfs_latency_s(self.core)
            )
        self.core.set_frequency(freq_ghz, self.env.now)
        self.job.net.dvfs_changed(self.core.node_id)
        self.job.stats.dvfs_transitions += 1

    def throttle(self, level: int, charge: bool = True):
        """Throttle this rank's core at the architecture's granularity
        (socket-wide on the paper's Nehalem; pays ``Othrottle``).

        A no-op (already at ``level``) costs nothing — callers may safely
        re-assert the state they need.
        """
        if self.core.tstate == level:
            return
        if charge:
            faults = self.job.faults
            yield self.env.timeout(
                self.core.spec.throttle_latency_s if faults is None
                else faults.throttle_latency_s(self.core)
            )
        self.job.cluster.throttle_domain.apply(
            self.core, self.socket, level, self.env.now
        )
        self.job.stats.throttle_transitions += 1

    # -- node-local coordination -----------------------------------------------------
    def notify(self, name: str) -> None:
        """Fire the node-local flag ``name`` (a shared-memory word write)."""
        self.job.node_flag(self.node_id, name).succeed(self.env.now)

    def arrive(self, name: str, expected: int) -> None:
        """Counting variant of :meth:`notify`: the flag fires once
        ``expected`` ranks of this node have arrived."""
        self.job.node_flag_arrive(self.node_id, name, expected)

    def flag(self, name: str) -> Event:
        """The node-local flag event (yield it to wait; idempotent lookup)."""
        return self.job.node_flag(self.node_id, name)

    # -- communicator management -------------------------------------------------------
    def comm_split(self, color, key=None, comm: Optional[Communicator] = None):
        """MPI_Comm_split: partition ``comm`` by ``color``; within each new
        communicator ranks are ordered by (key, old rank).

        ``color=None`` (MPI_UNDEFINED) returns ``None`` for this rank.
        Costs one barrier on ``comm`` (the color allgather).
        """
        comm = comm or self.world
        # The color exchange costs a small collective.
        yield from self.barrier(comm)
        key = comm.rank_of(self.rank) if key is None else key
        seq = self.next_seq(comm)
        result = self.job.register_split(comm, seq, self.rank, color, key)
        yield result["event"]
        return result["comms"].get(self.rank)

    # -- collectives (dispatched through the registry) ---------------------------------
    def alltoall(self, nbytes: int, comm: Optional[Communicator] = None):
        """MPI_Alltoall with per-peer message size ``nbytes``."""
        return self._governed(
            "alltoall", nbytes,
            self.job.collectives.alltoall(self, nbytes, comm or self.world),
        )

    def alltoallv(self, send_counts, comm: Optional[Communicator] = None):
        """MPI_Alltoallv: ``send_counts[d]`` bytes to each peer d."""
        peak = max(send_counts) if send_counts else 0
        return self._governed(
            "alltoallv", peak,
            self.job.collectives.alltoallv(self, send_counts, comm or self.world),
        )

    def bcast(self, nbytes: int, root: int = 0, comm: Optional[Communicator] = None):
        return self._governed(
            "bcast", nbytes,
            self.job.collectives.bcast(self, nbytes, root, comm or self.world),
        )

    def reduce(self, nbytes: int, root: int = 0, comm: Optional[Communicator] = None):
        return self._governed(
            "reduce", nbytes,
            self.job.collectives.reduce(self, nbytes, root, comm or self.world),
        )

    def allreduce(self, nbytes: int, comm: Optional[Communicator] = None):
        return self._governed(
            "allreduce", nbytes,
            self.job.collectives.allreduce(self, nbytes, comm or self.world),
        )

    def allgather(self, nbytes: int, comm: Optional[Communicator] = None):
        return self._governed(
            "allgather", nbytes,
            self.job.collectives.allgather(self, nbytes, comm or self.world),
        )

    def scatter(self, nbytes: int, root: int = 0, comm: Optional[Communicator] = None):
        return self._governed(
            "scatter", nbytes,
            self.job.collectives.scatter(self, nbytes, root, comm or self.world),
        )

    def gather(self, nbytes: int, root: int = 0, comm: Optional[Communicator] = None):
        return self._governed(
            "gather", nbytes,
            self.job.collectives.gather(self, nbytes, root, comm or self.world),
        )

    def reduce_scatter(self, nbytes: int, comm: Optional[Communicator] = None):
        """MPI_Reduce_scatter_block: each rank ends with an ``nbytes``
        block of the reduction."""
        return self._governed(
            "reduce_scatter", nbytes,
            self.job.collectives.reduce_scatter(self, nbytes, comm or self.world),
        )

    def scan(self, nbytes: int, comm: Optional[Communicator] = None):
        """MPI_Scan (inclusive prefix reduction)."""
        return self._governed(
            "scan", nbytes,
            self.job.collectives.scan(self, nbytes, comm or self.world),
        )

    def barrier(self, comm: Optional[Communicator] = None):
        return self._governed(
            "barrier", 0, self.job.collectives.barrier(self, comm or self.world)
        )
