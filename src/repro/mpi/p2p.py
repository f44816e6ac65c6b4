"""Point-to-point messaging: matching, eager/rendezvous protocols, timing.

The engine reproduces MVAPICH2's two-protocol design:

* **eager** (≤ ``eager_threshold``): the sender fires and forgets; the
  payload travels immediately and is queued as *unexpected* if no receive
  is posted yet.
* **rendezvous** (large): sender and receiver must both arrive; an RTS/CTS
  round-trip precedes the bulk transfer, and both sides complete when the
  RDMA transfer does.

Intra-node messages use the shared-memory channel in polling mode; in
blocking mode they fall back to the HCA loopback (paper §II-B: blocking
mode "falls back to the network loop-back based communication instead of
using the shared-memory channels").

A message in flight is not a simulation process: its protocol steps are
event continuations chained through :class:`_Send` (see its docstring).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from ..cluster.affinity import AffinityMap
from ..network.ibnet import IBNetwork
from ..sim import Environment, Event
from ..sim.events import URGENT
from .communicator import Communicator

ANY_SOURCE = -1
ANY_TAG = -1


class ProgressMode(enum.Enum):
    """Message progression strategy (§II-B)."""

    POLLING = "polling"
    BLOCKING = "blocking"


class _Send:
    """One message: the matching record plus its in-flight protocol.

    Once a message is launched (:meth:`launch`: at post time for eager,
    at the match for rendezvous) its steps run as event continuations,
    each occupying the heap slot a process step would:

    1. an URGENT start event at launch time — the governor may wake
       dropped endpoints, and their transition delay is slept through a
       timer;
    2. the path is resolved and the wire latency (eager) or RTS/CTS
       round trip (rendezvous) is a timer;
    3. the fabric transfer's completion event runs :meth:`_delivered`.

    Nothing waits for the message as a whole, so unlike a process it
    has no finish event: three events of its own (four with a governor
    wake), plus the two request events it triggers.
    """

    __slots__ = ("engine", "src", "dst", "tag", "comm_id", "nbytes",
                 "done", "recv", "links", "cap")

    def __init__(self, engine, src, dst, tag, comm_id, nbytes, done):
        self.engine = engine
        self.src = src
        self.dst = dst
        self.tag = tag
        self.comm_id = comm_id
        self.nbytes = nbytes
        self.done = done
        #: The matched receive (rendezvous); None for an eager message,
        #: which is matched on arrival.
        self.recv: Optional["_Recv"] = None
        self.links = None
        self.cap = 0.0

    def launch(self, recv: Optional["_Recv"]) -> None:
        """Schedule the protocol's start (the eager delivery when
        ``recv`` is None, else the rendezvous with ``recv``); without a
        governor there is no endpoint to wake, so it starts at
        :meth:`_woken`."""
        self.recv = recv
        engine = self.engine
        start = Event(engine.env)
        start.callbacks.append(
            self._woken if engine.governor is None else self._start
        )
        start.succeed(None, URGENT)

    def _start(self, _event: Event) -> None:
        engine = self.engine
        # Restore dropped endpoint cores before _path_params samples
        # their feed rates; the transfer absorbs the transition.
        cores = engine.affinity.rank_cores
        delay = engine.governor.transfer_starting(
            cores[self.src], cores[self.dst]
        )
        if delay > 0.0:
            engine.env.call_after(delay, self._woken)
            return
        self._woken(None)

    def _woken(self, _timer) -> None:
        engine = self.engine
        latency, self.links, self.cap = engine._path_params(self)
        if self.recv is not None:
            # RTS/CTS handshake round-trip before the bulk transfer.
            latency *= engine.spec.rndv_rtt_factor
        engine.env.call_after(latency, self._transfer)

    def _transfer(self, _timer) -> None:
        nbytes = self.nbytes
        if self.recv is None:
            if nbytes <= 0:
                self._delivered(None)
                return
            label = f"e{self.src}->{self.dst}"
        else:
            label = f"r{self.src}->{self.dst}"
        event = self.engine.net.fabric.transfer(
            self.links, nbytes, cpu_cap=self.cap, label=label
        )
        event.callbacks.append(self._delivered)

    def _delivered(self, _event) -> None:
        engine = self.engine
        recv = self.recv
        if recv is not None:
            self.done.succeed(engine.env.now)
        else:
            recv = engine._match_posted_recv(self)
            if recv is None:
                key = (self.comm_id, self.dst)
                engine._unexpected.setdefault(key, []).append(self)
                return
        recv.done.succeed((self.src, self.tag, self.nbytes))


class _Recv:
    __slots__ = ("src", "dst", "tag", "comm_id", "done")

    def __init__(self, src, dst, tag, comm_id, done):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.comm_id = comm_id
        self.done = done


class MessageEngine:
    """Per-job matching engine and transfer scheduler."""

    def __init__(
        self,
        env: Environment,
        net: IBNetwork,
        affinity: AffinityMap,
        progress: ProgressMode = ProgressMode.POLLING,
        governor=None,
    ):
        self.env = env
        self.net = net
        self.spec = net.spec
        self.affinity = affinity
        self.progress = progress
        #: Optional online power governor (repro.runtime): notified right
        #: before a transfer samples its endpoints' CPU feed rates, so a
        #: countdown-dropped endpoint can be woken (RDMA needs its feed
        #: path) instead of crippling the flow for its whole lifetime.
        self.governor = governor
        # Keyed by (comm_id, dst_world_rank).
        self._posted_recvs: Dict[Tuple[int, int], List[_Recv]] = {}
        self._unexpected: Dict[Tuple[int, int], List[_Send]] = {}
        self._pending_rndv: Dict[Tuple[int, int], List[_Send]] = {}
        #: Message counter for observability/tests.
        self.messages_sent = 0

    # -- public API ----------------------------------------------------------
    def post_send(
        self, src: int, dst: int, nbytes: int, tag: int, comm: Communicator
    ) -> Event:
        """Register a send; returns the sender-completion event."""
        members = comm.members
        if src not in members or dst not in members:
            raise ValueError(f"ranks {src}->{dst} not both in {comm.name}")
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if tag < 0:
            raise ValueError("send tag must be >= 0")
        done = Event(self.env)
        send = _Send(self, src, dst, tag, comm.comm_id, nbytes, done)
        self.messages_sent += 1
        if nbytes <= self.spec.eager_threshold:
            # Eager: sender completes immediately; payload travels now.
            done.succeed(self.env.now)
            send.launch(None)
        else:
            recv = self._match_posted_recv(send)
            if recv is not None:
                send.launch(recv)
            else:
                key = (send.comm_id, send.dst)
                self._pending_rndv.setdefault(key, []).append(send)
        return done

    def post_recv(
        self, dst: int, src: int, tag: int, comm: Communicator
    ) -> Event:
        """Register a receive; the event fires with (src, tag, nbytes)."""
        members = comm.members
        if dst not in members:
            raise ValueError(f"rank {dst} not in {comm.name}")
        if src != ANY_SOURCE and src not in members:
            raise ValueError(f"source {src} not in {comm.name}")
        if tag < 0 and tag != ANY_TAG:
            # Sends reject negative tags, so such a receive could never
            # match: fail here, not as a deadlock at the end of the run.
            raise ValueError(
                f"receive tag {tag} is negative (only ANY_TAG={ANY_TAG} is)"
            )
        done = Event(self.env)
        recv = _Recv(src, dst, tag, comm.comm_id, done)
        key = (comm.comm_id, dst)
        any_src = src == ANY_SOURCE
        any_tag = tag == ANY_TAG
        # 1. Already-arrived eager message?
        arrived = self._unexpected.get(key, ())
        for i, send in enumerate(arrived):
            if (any_src or send.src == src) and (any_tag or send.tag == tag):
                arrived.pop(i)
                done.succeed((send.src, send.tag, send.nbytes))
                return done
        # 2. Waiting rendezvous sender?
        rndv = self._pending_rndv.get(key, ())
        for i, send in enumerate(rndv):
            if (any_src or send.src == src) and (any_tag or send.tag == tag):
                rndv.pop(i)
                send.launch(recv)
                return done
        # 3. Park.
        self._posted_recvs.setdefault(key, []).append(recv)
        return done

    # -- matching helpers ------------------------------------------------------
    def _match_posted_recv(self, send: _Send) -> Optional[_Recv]:
        posted = self._posted_recvs.get((send.comm_id, send.dst))
        if posted:
            src = send.src
            tag = send.tag
            for i, recv in enumerate(posted):
                rsrc = recv.src
                rtag = recv.tag
                if ((rsrc == src or rsrc == ANY_SOURCE)
                        and (rtag == tag or rtag == ANY_TAG)):
                    return posted.pop(i)
        return None

    # -- timing ------------------------------------------------------------------
    def _path_params(self, send: _Send):
        """Resolve (latency, links, cpu_cap) for a message."""
        cores = self.affinity.rank_cores
        src_core = cores[send.src]
        dst_core = cores[send.dst]
        src_node = src_core.node_id
        dst_node = dst_core.node_id
        spec = self.spec
        if src_node == dst_node and self.progress is ProgressMode.POLLING:
            fmax = src_core.spec.fmax
            copy_factor = min(
                spec.shm_copy_factor(src_core.frequency_ghz / fmax, src_core.duty),
                spec.shm_copy_factor(dst_core.frequency_ghz / fmax, dst_core.duty),
            )
            # Cross-socket pairs pay the QPI hop (Nehalem NUMA).
            pair_bw = (
                spec.shm_bw
                if src_core.socket_id == dst_core.socket_id
                else spec.shm_bw_cross_socket
            )
            return spec.shm_latency, self.net.shm_path(src_node), pair_bw * copy_factor
        if src_node == dst_node:
            # Blocking mode: HCA loopback.
            links = self.net.loopback_path(src_node)
        else:
            links = self.net.inter_node_path(src_node, dst_node)
        cap = spec.cpu_feed_bw * min(src_core.speed_factor, dst_core.speed_factor)
        return spec.inter_node_latency, links, cap

    # -- introspection -------------------------------------------------------------
    def quiescent(self) -> bool:
        """True when no unmatched sends or receives remain (end-of-job check)."""
        return (
            all(not v for v in self._posted_recvs.values())
            and all(not v for v in self._unexpected.values())
            and all(not v for v in self._pending_rndv.values())
        )
