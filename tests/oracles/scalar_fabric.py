"""Scalar reference kernel for :class:`repro.network.fabric.Fabric`.

The fabric's original object-graph implementation: every flow is a
:class:`Flow` record, completion predictions sit on a min-heap guarded by
per-flow epochs, and every fabric event (admission, completion, capacity
change) immediately re-runs :func:`~repro.network.fabric.maxmin_rates`
over the affected connected component.  It shares the production
kernel's canonical fold order — components walked in admission (``seq``)
order, each link's frozen demand subtracted once per round, due flows
settled before any completes, completions in ``(finish, seq)`` order —
so per-flow rates and completion times agree bit for bit.

``full_recompute=True`` re-rates every active flow on every event instead
of the affected component: the whole-fabric baseline the incremental
re-rater is measured against.
"""

from __future__ import annotations

import heapq
import math
import operator
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.network.fabric import _EPSILON_BYTES, Link, maxmin_rates
from repro.network.params import NetworkSpec
from repro.sim import Environment, Event
from repro.sim.events import Timer

_seq_of = operator.attrgetter("seq")


class Flow:
    """One in-flight bulk transfer (scalar-kernel state layout).

    Also the plain flow record the filler tests hand to ``maxmin_rates``.
    """

    __slots__ = (
        "links",
        "nbytes",
        "remaining",
        "rate",
        "cap",
        "event",
        "label",
        "seq",
        "started_at",
        "updated_at",
        "_epoch",
    )

    def __init__(
        self,
        links: Tuple[Link, ...],
        nbytes: float,
        cap: float,
        event: Event,
        label: str = "",
    ):
        self.links = links
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.cap = cap
        self.event = event
        self.label = label
        #: Fabric-assigned admission number (deterministic tie-break).
        self.seq = -1
        self.started_at = 0.0
        #: Simulation time up to which ``remaining`` has been settled.
        self.updated_at = 0.0
        #: Bumped on every rate change; stale finish-time predictions in
        #: the completion heap carry an older epoch and are skipped.
        self._epoch = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Flow {self.label} rem={self.remaining:.0f}B rate={self.rate / 1e9:.2f}GB/s>"


class ScalarFabric:
    """Reference kernel: per-flow objects, a completion min-heap guarded
    by per-flow epochs, one water-filling pass per fabric event.

    Same public surface as :class:`repro.network.fabric.Fabric`
    (``add_link``, ``link``, ``transfer``, ``capacities_changed``,
    ``active_flows`` and the byte/re-rate counters).
    """

    def __init__(
        self, env: Environment, spec: NetworkSpec, full_recompute: bool = False
    ):
        self.env = env
        self.spec = spec
        self.full_recompute = full_recompute
        self._links: Dict[str, Link] = {}
        #: Active flows in admission order (ordered set).
        self._flows: Dict[Flow, None] = {}
        #: link → active flows crossing it (ordered set per link).
        self._flows_on: Dict[Link, Dict[Flow, None]] = {}
        self._timer: Optional[Timer] = None
        self._seq = 0
        #: Flows whose last water-filling left them at rate 0; every
        #: re-rate re-seeds their links (see ``Fabric._stalled``).
        self._stalled: Dict[Flow, None] = {}
        self.rerate_calls = 0
        self.flows_rerated = 0
        self.bytes_delivered = 0.0
        self.link_flows: Dict[str, int] = {}
        #: Min-heap of (finish_time, seq, epoch, flow) predictions; entries
        #: whose epoch lags the flow's are stale and skipped on pop.
        self._completions: List[Tuple[float, int, int, Flow]] = []
        #: Per-link bytes *delivered* (settled with ``bytes_delivered``).
        self.link_bytes: Dict[str, float] = {}

    # -- link management -----------------------------------------------------
    def add_link(
        self,
        name: str,
        capacity: float,
        capacity_fn: Optional[Callable[[], float]] = None,
    ) -> Link:
        if name in self._links:
            raise ValueError(f"duplicate link {name}")
        link = Link(name, capacity, capacity_fn)
        self._links[name] = link
        self._flows_on[link] = {}
        self.link_flows[name] = 0
        self.link_bytes[name] = 0.0
        return link

    def link(self, name: str) -> Link:
        return self._links[name]

    @property
    def active_flows(self) -> List[Flow]:
        return list(self._flows)

    # -- transfers -------------------------------------------------------------
    def transfer(
        self,
        links: Sequence[Link],
        nbytes: float,
        cpu_cap: float = math.inf,
        label: str = "",
    ) -> Event:
        """Start a bulk transfer; the returned event fires at completion
        with the completion time as its value."""
        env = self.env
        event = Event(env)
        if nbytes <= 0:
            event.succeed(env.now)
            return event
        if not links:
            raise ValueError("a transfer needs at least one link")
        now = env.now
        flow = Flow(tuple(links), nbytes, cpu_cap, event, label=label)
        flow.seq = self._seq
        self._seq += 1
        flow.started_at = now
        flow.updated_at = now
        self._flows[flow] = None
        link_flows = self.link_flows
        for link in flow.links:
            self._flows_on[link][flow] = None
            link_flows[link.name] += 1
        tracer = env.tracer
        if tracer.enabled:
            tracer.flow_start(
                now, label, float(nbytes), [lk.name for lk in flow.links],
                seq=flow.seq,
            )
        self._rerate(flow.links)
        return event

    def capacities_changed(self, links: Optional[Iterable[Link]] = None) -> None:
        """Re-read link capacities (call after DVFS transitions).

        Drops the cached capacity of ``links`` (of every registered link
        when None), then re-rates the components touching those links;
        without ``links``, every link currently carrying flows is treated
        as changed.
        """
        if links is None:
            for link in self._links.values():
                link.invalidate()
        else:
            links = tuple(links)
            for link in links:
                link.invalidate()
        if not self._flows:
            return
        if links is None:
            links = [lk for lk, flows_on in self._flows_on.items() if flows_on]
        self._rerate(links)

    # -- internals ---------------------------------------------------------------
    def _component(self, seed_links: Iterable[Link]) -> List[Flow]:
        """All active flows transitively sharing links with ``seed_links``,
        in admission (``seq``) order."""
        component: Dict[Flow, None] = {}
        seen_links = set()
        stack: List[Link] = []
        for link in seed_links:
            if link not in seen_links:
                seen_links.add(link)
                stack.append(link)
        while stack:
            link = stack.pop()
            for flow in self._flows_on.get(link, ()):
                if flow in component:
                    continue
                component[flow] = None
                for other in flow.links:
                    if other not in seen_links:
                        seen_links.add(other)
                        stack.append(other)
        flows = list(component)
        flows.sort(key=_seq_of)
        return flows

    def _settle_flow(self, flow: Flow, now: float) -> None:
        """Drain bytes at the current rate since the flow's last update."""
        dt = now - flow.updated_at
        if dt > 0.0 and flow.rate > 0.0:
            moved = flow.rate * dt
            if moved > flow.remaining:
                moved = flow.remaining
            flow.remaining -= moved
            self.bytes_delivered += moved
            if moved > 0.0:
                link_bytes = self.link_bytes
                for link in flow.links:
                    link_bytes[link.name] += moved
        flow.updated_at = now

    def _rerate(self, changed_links: Iterable[Link]) -> None:
        """Settle and re-run water-filling over the affected component."""
        if not self._flows:
            self._arm_timer()
            return
        if self._stalled:
            changed_links = list(changed_links) + [
                lk for flow in self._stalled for lk in flow.links
            ]
        if self.full_recompute:
            component = list(self._flows)  # admission order == seq order
        else:
            component = self._component(changed_links)
        if not component:
            self._arm_timer()
            return
        self.rerate_calls += 1
        self.flows_rerated += len(component)
        now = self.env.now
        capacities: Dict[Link, float] = {}
        for flow in component:
            self._settle_flow(flow, now)
            for link in flow.links:
                if link not in capacities:
                    capacities[link] = link.capacity
        rates = maxmin_rates(
            component,
            capacities,
            self.spec.flow_congestion,
            self.spec.flow_congestion_saturation,
        )
        stalled = self._stalled
        for flow in component:
            rate = rates[flow]
            flow.rate = rate
            flow._epoch += 1
            if rate > 0.0:
                if stalled:
                    stalled.pop(flow, None)
                finish = flow.updated_at + flow.remaining / rate
                heapq.heappush(
                    self._completions, (finish, flow.seq, flow._epoch, flow)
                )
            else:
                # Fully faulted bottleneck: no completion prediction.
                # Tracked so the next component event re-rates it instead
                # of dropping it forever.
                stalled[flow] = None
        self._arm_timer()

    def _arm_timer(self) -> None:
        """Point the (single, cancellable) wake-up at the next prediction."""
        heap = self._completions
        while heap:
            _, _, epoch, flow = heap[0]
            if flow in self._flows and epoch == flow._epoch:
                break
            heapq.heappop(heap)
        if not heap:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            return
        t_next = heap[0][0]
        if self._timer is not None:
            if not self._timer.cancelled and self._timer.at <= t_next:
                return  # fires at or before the new prediction; re-arms itself
            self._timer.cancel()
        self._timer = self.env.call_at(max(t_next, self.env.now), self._on_timer)

    def _on_timer(self, _timer: Timer) -> None:
        self._timer = None
        now = self.env.now
        heap = self._completions
        due: List[Flow] = []
        while heap and heap[0][0] <= now:
            _, _, epoch, flow = heapq.heappop(heap)
            if flow in self._flows and epoch == flow._epoch:
                due.append(flow)
        # Settle all due flows first, then process completions — two
        # passes so the byte-counter fold order matches the production
        # kernel's batched settle + batched completion credit.
        for flow in due:
            self._settle_flow(flow, now)
        freed: Dict[Link, None] = {}
        tracer = self.env.tracer
        for flow in due:
            if flow.remaining <= _EPSILON_BYTES:
                tail = flow.remaining
                self.bytes_delivered += tail
                if tail > 0.0:
                    link_bytes = self.link_bytes
                    for link in flow.links:
                        link_bytes[link.name] += tail
                flow.remaining = 0.0
                del self._flows[flow]
                for link in flow.links:
                    del self._flows_on[link][flow]
                    freed[link] = None
                if tracer.enabled:
                    tracer.flow_finish(
                        now,
                        flow.label,
                        flow.nbytes,
                        flow.started_at,
                        [lk.name for lk in flow.links],
                        seq=flow.seq,
                        delivered=flow.nbytes,
                    )
                flow.event.succeed(now)
            else:
                # Prediction landed a shade early (float slack): repush.
                flow._epoch += 1
                if flow.rate > 0.0:
                    finish = flow.updated_at + flow.remaining / flow.rate
                    heapq.heappush(heap, (finish, flow.seq, flow._epoch, flow))
                else:
                    # Re-rated to zero between prediction and wake-up:
                    # park it with the stalled set rather than dropping
                    # the flow with no prediction at all.
                    self._stalled[flow] = None
        if freed:
            self._rerate(freed)
        else:
            self._arm_timer()
