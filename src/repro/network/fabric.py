"""Flow-level network fabric with max-min fair bandwidth sharing.

Every bulk transfer is a :class:`Flow` across an ordered set of
:class:`Link` s (e.g. source NIC uplink → destination NIC downlink; or the
node's memory link for shared-memory copies).  Whenever the flow population
or a link capacity changes, flow rates are recomputed with the classic
max-min water-filling algorithm (respecting per-flow caps, which model the
sending CPU's pipeline feed limit).

Re-rating is *incremental*: the fabric keeps a link → flows index and,
when a flow arrives/finishes or a link's capacity moves, re-runs
water-filling only over the affected **connected component** — the flows
transitively sharing links with a changed link.  Components share no
links, so their allocations are independent and the untouched ones keep
their rates (this is exact, not an approximation).  Byte progress is
settled lazily per flow.

:class:`Fabric` keeps the mutable flow state in slot-addressed columns of
Python floats (:class:`FlowTable`), so the per-flow scalar paths pay no
numpy boxing, and gathers arrays only for large re-rates (DESIGN.md §12):

* **Admission batching** — ``transfer()`` writes the flow's table row
  and appends it to a pending wave, arming a zero-delay flush via
  ``env.defer``; the flush rates every same-timestamp admission at
  once.  Water-filling is memoryless (rates depend only on the current
  population), so one re-rate per touched component, taken once the
  whole wave is admitted, gives exactly the rates a re-rate after every
  single admission would end on.
* **Fillers with one answer** — re-rates of at most
  :attr:`Fabric.SMALL_BATCH` flows are solved in scalar code on the flow
  objects: in closed form when every flow of a component crosses the
  same links (:func:`single_path_rates`) or when its flows form
  link-disjoint single-path groups that no cap can bind
  (:func:`disjoint_path_rates`), else by :func:`maxmin_rates`; larger
  re-rates run :func:`waterfill`, whole rounds of the share/freeze loop
  as array ops over a links×flows incidence relation in COO form.  All
  of them fold floating-point sums in one canonical order (components
  in admission order, each link's frozen demand summed then subtracted
  once per round), so they agree bit for bit.
* **One settle, one completion path** — every re-rate settles its flows
  through the same scalar loop, and predicted finish times live in one
  column: the single wake-up timer is armed from its ``min()``, and the
  due flows are settled and retired in ``(finish, seq)`` order.
* **Cached capacities** — :attr:`Link.capacity` is computed once per
  change of its inputs (see :class:`Link`), not on every re-rate.

The reference kernel — per-flow objects, a completion heap, one re-rate
per fabric event — lives in ``tests/oracles/scalar_fabric.py``; the
differential tests hold this kernel to it with bit-identical per-flow
completion times.  Aggregate byte counters (``bytes_delivered``,
``link_bytes``) can differ from it at the last ulp in rare
same-timestamp component-bridging interleavings, where the reference
settles partially-overlapping components request by request.

This is where the paper's contention parameter ``Cnet`` comes from in our
reproduction: it is *emergent* — eight ranks per node draining through one
QDR HCA simply share 3 GB/s — rather than a fitted constant.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..sim import Environment, Event
from ..sim.events import Timer
from .params import NetworkSpec

#: Residual bytes below which a flow is considered complete (far smaller
#: than any datatype we transfer).
_EPSILON_BYTES = 0.5

#: Tight-link detection tolerance for water-filling: a link is at the
#: current water level when its fair share ``s`` satisfies
#: ``s <= max(level·(1+REL), level + ABS)``.  The relative term absorbs
#: accumulated rounding at physical bandwidths; the absolute term keeps
#: equal-share links tie-breaking consistently when the level itself is
#: ~0 (heavily faulted links), where a purely relative tolerance
#: degenerates to exact comparison.  ABS is far below any physically
#: meaningful rate (1e-24 B/s ≈ one byte per 3e7 ages of the universe).
_TIGHT_REL = 1e-12
_TIGHT_ABS = 1e-24

_seq_of = operator.attrgetter("seq")


def _tight_limit(level: float) -> float:
    """Shares at or below this value count as tight at ``level``."""
    rel = level * (1.0 + _TIGHT_REL)
    ab = level + _TIGHT_ABS
    return ab if ab > rel else rel


class Link:
    """A unidirectional capacity-constrained resource.

    ``capacity`` is cached and written through.  It is computed on the
    first read after an invalidation from ``capacity_fn`` (if given) or
    ``base_capacity``, times ``fault_factor``, and every writer of an
    input drops it: the ``fault_factor`` setter, ``Core.set_frequency``
    for its node's NIC links (their ``capacity_fn`` follows the node's
    DVFS level), ``IBNetwork.set_progress_factor``, and
    :meth:`Fabric.capacities_changed`, the hook for any other
    ``capacity_fn`` input.  ``fault_factor`` is the fault layer's
    multiplicative degradation (see :mod:`repro.faults`); it stays
    exactly 1.0, and therefore bit-invisible, unless a fault plan is
    active.
    """

    __slots__ = (
        "name", "base_capacity", "capacity_fn", "_fault_factor", "_capacity",
        "__weakref__",
    )

    def __init__(
        self,
        name: str,
        base_capacity: float,
        capacity_fn: Optional[Callable[[], float]] = None,
    ):
        if base_capacity <= 0:
            raise ValueError(f"link {name}: capacity must be positive")
        self.name = name
        self.base_capacity = base_capacity
        self.capacity_fn = capacity_fn
        self._fault_factor = 1.0
        self._capacity: Optional[float] = None

    @property
    def capacity(self) -> float:
        cap = self._capacity
        if cap is None:
            cap = (
                self.capacity_fn() if self.capacity_fn is not None
                else self.base_capacity
            )
            if self._fault_factor != 1.0:
                cap *= self._fault_factor
            self._capacity = cap
        return cap

    @property
    def fault_factor(self) -> float:
        return self._fault_factor

    @fault_factor.setter
    def fault_factor(self, factor: float) -> None:
        self._fault_factor = factor
        self._capacity = None

    def invalidate(self) -> None:
        """Drop the cached capacity; the next read recomputes it."""
        self._capacity = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.capacity / 1e9:.2f} GB/s>"


def maxmin_rates(
    flows: Sequence[Flow],
    capacities: Dict[Link, float],
    congestion: float = 0.0,
    congestion_saturation: int = 7,
) -> Dict[Flow, float]:
    """Max-min fair allocation with per-flow caps (water-filling).

    ``flows`` are any objects with ``links`` and ``cap`` attributes; the
    result maps each to its rate.  Repeatedly finds the most constrained resource — either a link whose
    fair share is smallest or a flow whose cap binds first — freezes the
    affected flows at that rate, removes their demand, and iterates.
    The per-link membership index and the cap-sorted cursor are maintained
    across rounds, so freezing a flow is O(path length) instead of the
    former O(n) list removal plus per-round full count rebuilds.

    ``congestion`` degrades a link carrying n flows to
    ``capacity / (1 + congestion·min(n−1, congestion_saturation))``
    before sharing.

    Floating-point folds are canonical (see module docstring): the flows
    frozen in a round are processed in their position order within
    ``flows``, and each link's residual is reduced once per round by the
    summed demand of that round's frozen flows — bit-for-bit what
    :func:`waterfill`'s ``np.add.at`` accumulation computes.
    """
    rates: Dict[Flow, float] = {}
    if not flows:
        return rates
    if congestion > 0.0:
        load: Dict[Link, int] = {}
        for flow in flows:
            for link in flow.links:
                load[link] = load.get(link, 0) + 1
        capacities = {
            link: cap
            / (1.0 + congestion * min(load.get(link, 1) - 1, congestion_saturation))
            for link, cap in capacities.items()
        }
    residual = dict(capacities)
    # Insertion-ordered structures keep every iteration deterministic
    # (plain sets would walk in id() order, which varies between runs).
    unfrozen: Dict[Flow, None] = dict.fromkeys(flows)
    members: Dict[Link, Dict[Flow, None]] = {}
    for flow in unfrozen:
        for link in flow.links:
            members.setdefault(link, {})[flow] = None
    flow_list = list(unfrozen)
    order = {flow: i for i, flow in enumerate(flow_list)}
    by_cap = sorted(range(len(flow_list)), key=lambda i: (flow_list[i].cap, i))
    cap_ptr = 0
    while unfrozen:
        while cap_ptr < len(by_cap) and flow_list[by_cap[cap_ptr]] not in unfrozen:
            cap_ptr += 1
        min_cap = (
            flow_list[by_cap[cap_ptr]].cap if cap_ptr < len(by_cap) else math.inf
        )
        link_share: Dict[Link, float] = {}
        for link, flows_on in members.items():
            if flows_on:
                link_share[link] = residual[link] / len(flows_on)
        bottleneck_share = min(link_share.values()) if link_share else math.inf
        if min_cap < bottleneck_share:
            # Cap binds first: freeze all flows at that cap level.
            level = min_cap
            frozen: List[Flow] = []
            j = cap_ptr
            while j < len(by_cap):
                flow = flow_list[by_cap[j]]
                if flow.cap > level:
                    break
                if flow in unfrozen:
                    frozen.append(flow)
                j += 1
        else:
            level = bottleneck_share
            limit = _tight_limit(level)
            tight = [lk for lk, s in link_share.items() if s <= limit]
            frozen_set: Dict[Flow, None] = {}
            for link in tight:
                for flow in members[link]:
                    frozen_set[flow] = None
            frozen = list(frozen_set)
        frozen.sort(key=order.__getitem__)
        delta: Dict[Link, float] = {}
        for flow in frozen:
            rate = min(level, flow.cap)
            rates[flow] = rate
            for link in flow.links:
                delta[link] = delta.get(link, 0.0) + rate
                del members[link][flow]
            del unfrozen[flow]
        for link, d in delta.items():
            residual[link] = max(0.0, residual[link] - d)
    return rates


def single_path_rates(
    caps: Sequence[float],
    capacities: Iterable[float],
    congestion: float = 0.0,
    congestion_saturation: int = 7,
) -> List[float]:
    """Max-min rates of flows that all cross the same links, in closed form.

    ``caps`` are the flows' caps in component order and ``capacities``
    their shared links' capacities; the result lists the rates in
    ``caps`` order, bit for bit what :func:`maxmin_rates` gives.  Every
    link carries every unfrozen flow and every round subtracts the same
    demand from every link, so the tightest link stays tightest
    (subtraction, ``max(0, ·)`` and division by the member count are
    all monotone under rounding) and only its residual is tracked.
    Rounds are replayed as :func:`maxmin_rates` runs them: a cap round
    freezes the flows tied at the smallest cap and subtracts their
    demand, folded from 0.0 in flow order; the first share round
    freezes everything left at the fair share.
    """
    n = len(caps)
    residual = min(capacities)
    if congestion > 0.0:
        residual = residual / (
            1.0 + congestion * min(n - 1, congestion_saturation)
        )
    level = residual / n
    if not min(caps) < level:
        return [min(level, cap) for cap in caps]
    by_cap = sorted(range(n), key=caps.__getitem__)
    rates = [0.0] * n
    pos = 0
    while pos < n:
        level = caps[by_cap[pos]]
        share = residual / (n - pos)
        if not level < share:
            for i in by_cap[pos:]:
                rates[i] = min(share, caps[i])
            break
        demand = 0.0
        while pos < n and caps[by_cap[pos]] <= level:
            rate = min(level, caps[by_cap[pos]])
            rates[by_cap[pos]] = rate
            demand += rate
            pos += 1
        residual = max(0.0, residual - demand)
    return rates


def disjoint_path_rates(
    paths: Sequence[Tuple[Sequence[float], int]],
    min_cap: float,
    congestion: float = 0.0,
    congestion_saturation: int = 7,
) -> Optional[List[float]]:
    """Max-min rates of link-disjoint single-path groups, in closed form.

    ``paths`` gives each group's link capacities and flow count, and
    ``min_cap`` is the smallest cap of any flow; the result lists one
    rate per group (every flow of a group gets it), bit for bit what
    :func:`maxmin_rates` gives on the union.  Returns None when
    ``min_cap`` lies below the largest group share: a cap may then
    bind, and the union needs :func:`maxmin_rates`.

    No link carries two groups, so a group's share — its tightest
    link's capacity over the congestion factor for its flow count, over
    its flow count — is its links' smallest share in every round until
    it freezes (division is monotone under rounding).  With no cap
    binding, each :func:`maxmin_rates` round sets the level to the
    smallest share left and freezes every group whose share lies
    within :func:`_tight_limit` of it, the tolerance coupling across
    groups included; walking the sorted shares replays those rounds.
    """
    shares = []
    for capacities, n in paths:
        residual = min(capacities)
        if congestion > 0.0:
            residual = residual / (
                1.0 + congestion * min(n - 1, congestion_saturation)
            )
        shares.append(residual / n)
    if min_cap < max(shares):
        return None
    order = sorted(range(len(shares)), key=shares.__getitem__)
    n = len(order)
    rates = [0.0] * n
    pos = 0
    while pos < n:
        level = shares[order[pos]]
        limit = _tight_limit(level)
        end = pos + 1
        while end < n and shares[order[end]] <= limit:
            end += 1
        for k in order[pos:end]:
            rates[k] = level
        pos = end
    return rates


def waterfill(
    n_links: int,
    caps: np.ndarray,
    flow_cap: np.ndarray,
    seg: np.ndarray,
    n_segs: int,
    rep_flow: np.ndarray,
    rep_link: np.ndarray,
    congestion: float = 0.0,
    congestion_saturation: int = 7,
) -> np.ndarray:
    """Segmented max-min water-filling as whole-round array ops.

    Solves ``n_segs`` *disjoint* allocation problems (connected
    components) in one call.  Flows are rows of the concatenated batch;
    ``seg[i]`` names flow ``i``'s component, and the links×flows
    incidence is given in COO form: entry ``k`` says flow ``rep_flow[k]``
    crosses link ``rep_link[k]`` (global link ids ``< n_links``).  The
    ``caps`` array is indexed by global link id; only entries for links
    that actually appear in ``rep_link`` are read.

    Per-segment water levels (``np.minimum.at`` over the link shares)
    keep the segments numerically independent — solving components
    jointly is bit-identical to solving each alone, which is what makes
    batching admission waves safe.  Freeze order and residual updates
    replicate the canonical folds of :func:`maxmin_rates`: ``np.add.at``
    accumulates each link's frozen demand over COO entries in flow-major
    (admission) order, then the residual is reduced by that sum once.
    """
    n = flow_cap.shape[0]
    load = np.bincount(rep_link, minlength=n_links)
    member = load > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        if congestion > 0.0:
            penalty = 1.0 + congestion * np.minimum(load - 1, congestion_saturation)
            residual = np.where(member, caps / penalty, np.inf)
        else:
            residual = np.where(member, caps, np.inf)
    link_seg = np.zeros(n_links, dtype=np.int64)
    link_seg[rep_link] = seg[rep_flow]

    rates = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    while alive.any():
        alive_rep = alive[rep_flow]
        counts = np.bincount(rep_link[alive_rep], minlength=n_links)
        has = counts > 0
        shares = np.full(n_links, np.inf)
        np.divide(residual, counts, out=shares, where=has)
        seg_share = np.full(n_segs, np.inf)
        np.minimum.at(seg_share, link_seg[has], shares[has])
        seg_cap = np.full(n_segs, np.inf)
        np.minimum.at(seg_cap, seg[alive], flow_cap[alive])
        cap_binds = seg_cap < seg_share
        seg_level = np.where(cap_binds, seg_cap, seg_share)
        lvl_flow = seg_level[seg]
        capb_flow = cap_binds[seg]
        # Tight links at this round's level (only for share-bound segments).
        lk_level = seg_level[link_seg]
        limit = np.maximum(lk_level * (1.0 + _TIGHT_REL), lk_level + _TIGHT_ABS)
        tight = has & ~cap_binds[link_seg] & (shares <= limit)
        on_tight = np.zeros(n, dtype=bool)
        sel = alive_rep & tight[rep_link]
        on_tight[rep_flow[sel]] = True
        freeze = alive & (
            (capb_flow & (flow_cap <= lvl_flow)) | (~capb_flow & on_tight)
        )
        if not freeze.any():  # pragma: no cover - every live segment freezes
            break
        rates = np.where(freeze, np.minimum(lvl_flow, flow_cap), rates)
        freeze_rep = freeze[rep_flow]
        delta = np.zeros(n_links)
        np.add.at(delta, rep_link[freeze_rep], rates[rep_flow[freeze_rep]])
        residual = np.maximum(0.0, residual - delta)
        alive &= ~freeze
    return rates


class Flow:
    """Handle of one in-flight bulk transfer.

    Identity and immutable metadata live on the object; mutable state
    (remaining bytes, rate, settle time) lives in the owning fabric's
    :class:`FlowTable` row addressed by ``idx`` (−1 once complete).  The
    properties read that row for observability code and tests.
    """

    __slots__ = (
        "links",
        "link_ids",
        "nbytes",
        "cap",
        "event",
        "label",
        "seq",
        "started_at",
        "idx",
        "_table",
    )

    def __init__(
        self,
        links: Tuple[Link, ...],
        link_ids: Tuple[int, ...],
        nbytes: float,
        cap: float,
        event: Event,
        label: str,
        seq: int,
        started_at: float,
        idx: int,
        table: "FlowTable",
    ):
        self.links = links
        self.link_ids = link_ids
        self.nbytes = nbytes
        self.cap = cap
        self.event = event
        self.label = label
        #: Fabric-assigned admission number (deterministic tie-break).
        self.seq = seq
        self.started_at = started_at
        self.idx = idx
        self._table = table

    @property
    def remaining(self) -> float:
        return self._table.remaining[self.idx] if self.idx >= 0 else 0.0

    @property
    def rate(self) -> float:
        return self._table.rate[self.idx] if self.idx >= 0 else 0.0

    @property
    def updated_at(self) -> float:
        """Simulation time up to which ``remaining`` has been settled."""
        if self.idx >= 0:
            return self._table.updated[self.idx]
        return self.started_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Flow {self.label} rem={self.remaining:.0f}B "
            f"rate={self.rate / 1e9:.2f}GB/s>"
        )


class FlowTable:
    """Slot-addressed columns of Python floats holding all mutable flow
    state (scalar reads and writes skip numpy's boxing).

    Slots are recycled through a free list; a freed slot keeps
    ``finish = inf`` and ``rate = remaining = 0`` so whole-column scans
    (due-completion selection, timer arming) never see garbage.
    """

    __slots__ = ("capacity", "remaining", "rate", "updated", "finish", "_free")

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self.remaining = [0.0] * capacity
        self.rate = [0.0] * capacity
        self.updated = [0.0] * capacity
        self.finish = [math.inf] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))

    def alloc(self) -> int:
        if not self._free:
            self._grow()
        return self._free.pop()

    def _grow(self) -> None:
        old = self.capacity
        for column in (self.remaining, self.rate, self.updated):
            column.extend([0.0] * old)
        self.finish.extend([math.inf] * old)
        self._free.extend(range(2 * old - 1, old - 1, -1))
        self.capacity = 2 * old


class Fabric:
    """The flow-level fabric: link registry, batched admissions,
    component-local re-rating and one completion timer.

    See the module docstring for the batching contract.  ``rerate_calls``
    counts water-filling *groups*: an admission wave is one group however
    many flows it admitted.
    """

    #: At or below this many flows per re-rate, the scalar fillers on
    #: flow objects beat :func:`waterfill`'s numpy dispatch overhead.
    #: Both fillers are bit-identical, so this is purely a performance
    #: constant (small components dominate governed/DVFS-heavy runs; the
    #: split was profiled on governed alltoall cells in DESIGN.md §13 —
    #: the value sits on the measured plateau).
    SMALL_BATCH = 64

    def __init__(self, env: Environment, spec: NetworkSpec):
        self.env = env
        self.spec = spec
        self._links: Dict[str, Link] = {}
        #: Active flows in admission order (ordered set).
        self._flows: Dict[Flow, None] = {}
        #: link → active flows crossing it (ordered set per link).
        self._flows_on: Dict[Link, Dict[Flow, None]] = {}
        self._timer: Optional[Timer] = None
        self._seq = 0
        #: Flows whose last water-filling left them at rate 0 (their
        #: bottleneck link is fully faulted).  A zero-rated flow has no
        #: completion prediction, so nothing on its own links will ever
        #: wake it; every re-rate therefore extends its seed links with
        #: the stalled flows' links, re-rating them as soon as *any*
        #: component event fires (and immediately once capacity returns).
        self._stalled: Dict[Flow, None] = {}
        #: Components re-rated since construction (self-profiling metric:
        #: pairs with ``flows_rerated`` to show the incremental win).
        self.rerate_calls = 0
        self.flows_rerated = 0
        #: Total bytes ever *delivered* (observability / tests).
        self.bytes_delivered = 0.0
        #: Per-link flows-started counters (observability for topology
        #: studies — e.g. traffic over rack uplinks).  Credited at
        #: admission; per-link *bytes* (``link_bytes``) are settled at
        #: delivery time, alongside ``bytes_delivered``.
        self.link_flows: Dict[str, int] = {}
        self._table = FlowTable()
        self._slot_flow: List[Optional[Flow]] = [None] * self._table.capacity
        self._link_ids: Dict[Link, int] = {}
        self._link_list: List[Link] = []
        #: Delivered bytes per link, indexed by link id.
        self._link_bytes: List[float] = []
        self._pending: List[Flow] = []
        self._flush_timer = None
        #: Path → link-id tuple; collectives re-send the same few hundred
        #: routes thousands of times, so admissions skip the id lookup.
        self._path_ids: Dict[tuple, tuple] = {}

    # -- link registry -------------------------------------------------------
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
        self._link_ids[link] = len(self._link_list)
        self._link_list.append(link)
        self._link_bytes.append(0.0)
        return link

    def link(self, name: str) -> Link:
        return self._links[name]

    # -- observability -------------------------------------------------------
    @property
    def active_flows(self) -> List[Flow]:
        self._flush()
        return list(self._flows)

    @property
    def link_bytes(self) -> Dict[str, float]:
        """Per-link delivered bytes (settled with ``bytes_delivered``)."""
        self._flush()
        return {
            link.name: delivered
            for link, delivered in zip(self._link_list, self._link_bytes)
        }

    # -- admission -----------------------------------------------------------
    def transfer(
        self,
        links: Sequence[Link],
        nbytes: float,
        cpu_cap: float = math.inf,
        label: str = "",
    ) -> Event:
        """Start a bulk transfer; the returned event fires at completion
        with the completion time as its value.

        Admission only writes the flow's table row and appends it to the
        pending wave; the deferred flush does the rating.
        """
        env = self.env
        event = Event(env)
        if nbytes <= 0:
            event.succeed(env.now)
            return event
        if not links:
            raise ValueError("a transfer needs at least one link")
        now = env.now
        links = tuple(links)
        table = self._table
        free = table._free
        slot = free.pop() if free else table.alloc()
        slot_flow = self._slot_flow
        if slot >= len(slot_flow):
            slot_flow.extend([None] * (table.capacity - len(slot_flow)))
        path_ids = self._path_ids.get(links)
        if path_ids is None:
            path_ids = tuple(self._link_ids[lk] for lk in links)
            self._path_ids[links] = path_ids
        seq = self._seq
        self._seq = seq + 1
        nbytes = float(nbytes)
        flow = Flow(
            links, path_ids, nbytes, cpu_cap, event, label, seq,
            now, slot, table,
        )
        table.remaining[slot] = nbytes
        table.updated[slot] = now
        slot_flow[slot] = flow
        self._flows[flow] = None
        link_flows = self.link_flows
        flows_on = self._flows_on
        for link in links:
            flows_on[link][flow] = None
            link_flows[link.name] += 1
        tracer = env.tracer
        if tracer.enabled:
            tracer.flow_start(
                now, label, nbytes, [lk.name for lk in links], seq=seq
            )
        self._pending.append(flow)
        if self._flush_timer is None:
            self._flush_timer = env.defer(self._flush)
        return event

    def capacities_changed(self, links: Optional[Iterable[Link]] = None) -> None:
        """Re-read link capacities (call after DVFS transitions).

        Drops the cached capacity of ``links`` (of every registered link
        when None), then re-rates the components touching those links;
        without ``links``, every link currently carrying flows is treated
        as changed.
        """
        if links is None:
            for link in self._link_list:
                link.invalidate()
        else:
            links = tuple(links)
            for link in links:
                link.invalidate()
        if not self._flows:
            return
        self._flush()
        if links is None:
            links = [lk for lk, flows_on in self._flows_on.items() if flows_on]
        self._rerate_now(links)

    # -- re-rating -----------------------------------------------------------
    def _flush(self, _timer=None) -> None:
        """Rate every flow admitted at the current timestamp.

        For same-timestamp admissions only the *last* per-admission
        re-rate touching a component would determine its rates
        (water-filling is memoryless), and that re-rate sees exactly the
        component as it stands once the whole wave is admitted — so one
        re-rate per touched component gives the same rates bit-for-bit.
        Stalled-flow rescue widens the seed set per request, making the
        grouping request-order-dependent; that rare regime re-rates
        admission by admission.
        """
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        pending = self._pending
        if not pending:
            return
        self._pending = []
        if self._stalled:
            for flow in pending:
                if flow.idx >= 0:
                    self._rerate_now(flow.links)
            return
        if len(pending) == len(self._flows):
            # Full wave (no pre-existing flows): components are exactly
            # the connectivity classes of the pending flows, found by an
            # integer union-find over link ids — far cheaper than one
            # object-graph BFS per flow.  Group order is first-encounter
            # and members stay in admission (seq) order, matching the
            # BFS grouping below.
            parent: Dict[int, int] = {}

            def find(x: int) -> int:
                root = x
                while parent[root] != root:
                    root = parent[root]
                while parent[x] != root:
                    parent[x], x = root, parent[x]
                return root

            for flow in pending:
                ids = flow.link_ids
                first = ids[0]
                if first not in parent:
                    parent[first] = first
                root = find(first)
                for li in ids[1:]:
                    if li not in parent:
                        parent[li] = root
                    else:
                        parent[find(li)] = root
            by_root: Dict[int, List[Flow]] = {}
            for flow in pending:
                root = find(flow.link_ids[0])
                group = by_root.get(root)
                if group is None:
                    by_root[root] = [flow]
                else:
                    group.append(flow)
            self._apply(list(by_root.values()))
            return
        covered = set()
        groups: List[List[Flow]] = []
        for flow in pending:
            # A flow with any link covered lies entirely inside an
            # already-collected component (components are link-disjoint).
            if flow.idx < 0 or flow.links[0] in covered:
                continue
            component = self._component(flow.links)
            groups.append(component)
            for member in component:
                covered.update(member.links)
        if groups:
            self._apply(groups)

    def _component(self, seed_links: Iterable[Link]) -> List[Flow]:
        """All active flows transitively sharing links with ``seed_links``,
        in admission (``seq``) order — the canonical fold order flows are
        settled and water-filled in."""
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

    def _rerate_now(self, seed_links: Iterable[Link]) -> None:
        """One immediate component re-rate (completions / capacity
        changes) — the union of components touching the seeds is solved
        as a single water-fill, so cross-component tolerance coupling is
        that of one per-event re-rate."""
        if not self._flows:
            self._arm_timer()
            return
        seeds = list(seed_links)
        if self._stalled:
            seeds += [lk for flow in self._stalled for lk in flow.links]
        component = self._component(seeds)
        if not component:
            self._arm_timer()
            return
        self._apply([component])

    def _apply(self, groups: List[List[Flow]]) -> None:
        """Settle + water-fill + predict for a batch of disjoint groups."""
        now = self.env.now
        self.rerate_calls += len(groups)
        total = sum(len(g) for g in groups)
        self.flows_rerated += total
        if total <= self.SMALL_BATCH:
            for group in groups:
                self._apply_small(group, now)
        else:
            self._apply_batch(groups, total, now)
        self._arm_timer()

    def _apply_small(self, component: List[Flow], now: float) -> None:
        """Scalar filler for small components: the canonical folds
        without numpy dispatch.  Flows are grouped by path; one path is
        solved by :func:`single_path_rates`, link-disjoint paths by
        :func:`disjoint_path_rates` while no cap can bind, and anything
        else by :func:`maxmin_rates`."""
        rems = self._settle(component, now)
        spec = self.spec
        by_path: Dict[Tuple[int, ...], List[Flow]] = {}
        path_links = 0
        for flow in component:
            members = by_path.get(flow.link_ids)
            if members is None:
                by_path[flow.link_ids] = [flow]
                path_links += len(flow.link_ids)
            else:
                members.append(flow)
        rates = None
        if len(by_path) == 1:
            rates = single_path_rates(
                [flow.cap for flow in component],
                [link.capacity for link in component[0].links],
                spec.flow_congestion,
                spec.flow_congestion_saturation,
            )
        elif path_links == len(set().union(*by_path)):
            levels = disjoint_path_rates(
                [
                    ([link.capacity for link in members[0].links], len(members))
                    for members in by_path.values()
                ],
                min(flow.cap for flow in component),
                spec.flow_congestion,
                spec.flow_congestion_saturation,
            )
            if levels is not None:
                level_of = dict(zip(by_path, levels))
                rates = [level_of[flow.link_ids] for flow in component]
        if rates is None:
            capacities: Dict[Link, float] = {}
            for flow in component:
                for link in flow.links:
                    if link not in capacities:
                        capacities[link] = link.capacity
            by_flow = maxmin_rates(
                component,
                capacities,
                spec.flow_congestion,
                spec.flow_congestion_saturation,
            )
            rates = [by_flow[flow] for flow in component]
        self._predict(component, rates, rems, now)

    def _apply_batch(
        self, groups: List[List[Flow]], total: int, now: float
    ) -> None:
        """Array filler for large batches: settle as :meth:`_apply_small`
        does, then one :func:`waterfill` over the batch's incidence."""
        flat = [f for g in groups for f in g]
        rems = self._settle(flat, now)
        seg = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        rep_flow = np.repeat(np.arange(total), [len(f.link_ids) for f in flat])
        rep_link = np.array([li for f in flat for li in f.link_ids], dtype=np.int64)
        # Every registered link's capacity: fabrics hold at most a few
        # hundred links, so a straight attribute sweep beats finding the
        # touched subset.
        link_list = self._link_list
        rates = waterfill(
            len(link_list),
            np.array([link.capacity for link in link_list], dtype=float),
            np.array([f.cap for f in flat], dtype=float),
            seg,
            len(groups),
            rep_flow,
            rep_link,
            self.spec.flow_congestion,
            self.spec.flow_congestion_saturation,
        )
        self._predict(flat, rates.tolist(), rems, now)

    def _predict(
        self, flows: List[Flow], rates: List[float], rems: List[float], now: float
    ) -> None:
        """Store fresh rates and predict finish times; a zero-rated flow
        parks in the stalled set."""
        table = self._table
        rate_col = table.rate
        finish = table.finish
        stalled = self._stalled
        for flow, rate, rem in zip(flows, rates, rems):
            i = flow.idx
            rate_col[i] = rate
            if rate > 0.0:
                if stalled:
                    stalled.pop(flow, None)
                finish[i] = now + rem / rate
            else:
                finish[i] = math.inf
                stalled[flow] = None

    def _settle(self, flows: List[Flow], now: float) -> List[float]:
        """Lazy settle: drain bytes at the pre-change rates, folding the
        byte counters in ``flows`` order.  Returns the flows' settled
        remaining bytes."""
        table = self._table
        remaining = table.remaining
        rate_col = table.rate
        updated = table.updated
        link_bytes = self._link_bytes
        delivered = self.bytes_delivered
        rems: List[float] = []
        for flow in flows:
            i = flow.idx
            dt = now - updated[i]
            rate = rate_col[i]
            rem = remaining[i]
            if dt > 0.0 and rate > 0.0:
                moved = rate * dt
                if moved > rem:
                    moved = rem
                if moved > 0.0:
                    rem -= moved
                    remaining[i] = rem
                    delivered += moved
                    for li in flow.link_ids:
                        link_bytes[li] += moved
            updated[i] = now
            rems.append(rem)
        self.bytes_delivered = delivered
        return rems

    # -- completions ---------------------------------------------------------
    def _arm_timer(self) -> None:
        """Arm the single wake-up from the finish column's minimum (free
        and zero-rated slots hold ``inf``, so no purging is needed)."""
        t_next = min(self._table.finish)
        if t_next == math.inf:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            return
        if self._timer is not None:
            if not self._timer.cancelled and self._timer.at <= t_next:
                return  # fires at or before the new prediction; re-arms itself
            self._timer.cancel()
        self._timer = self.env.call_at(max(t_next, self.env.now), self._on_timer)

    def _on_timer(self, _timer) -> None:
        self._timer = None
        self._flush()  # admissions queued ahead of this timer at the same t
        now = self.env.now
        finish = self._table.finish
        due = [i for i, t in enumerate(finish) if t <= now]
        if not due:
            self._arm_timer()
            return
        freed = self._complete(due, now)
        if freed:
            self._rerate_now(freed)
        else:
            self._arm_timer()

    def _complete(self, slots: List[int], now: float) -> Dict[Link, None]:
        """Settle and retire the due flows in ``(finish, seq)`` order, all
        settles before any credit.  Returns the links the finished flows
        freed."""
        table = self._table
        remaining = table.remaining
        rate_col = table.rate
        finish = table.finish
        link_bytes = self._link_bytes
        slot_flow = self._slot_flow
        flows = [slot_flow[s] for s in slots]
        if len(flows) > 1:
            flows.sort(key=lambda f: (finish[f.idx], f.seq))
        rems = self._settle(flows, now)
        delivered = self.bytes_delivered
        freed: Dict[Link, None] = {}
        stalled = self._stalled
        free = table._free
        for flow, rem in zip(flows, rems):
            i = flow.idx
            if rem <= _EPSILON_BYTES:
                # Completion credit: the sub-epsilon residual tail.
                delivered += rem
                if rem > 0.0:
                    for li in flow.link_ids:
                        link_bytes[li] += rem
                remaining[i] = 0.0
                rate_col[i] = 0.0
                finish[i] = math.inf
                free.append(i)
                self._retire(flow, now, freed)
            else:
                # Prediction landed a shade early (float slack): re-predict;
                # a flow re-rated to zero in between parks with the stalled
                # set instead of being dropped.
                rate = rate_col[i]
                if rate > 0.0:
                    finish[i] = now + rem / rate
                else:
                    finish[i] = math.inf
                    stalled[flow] = None
        self.bytes_delivered = delivered
        return freed

    def _retire(self, flow: Flow, now: float, freed: Dict[Link, None]) -> None:
        """Unregister a finished flow whose table row is already cleared,
        note the links it frees, trace it and fire its event."""
        self._slot_flow[flow.idx] = None
        flow.idx = -1
        del self._flows[flow]
        flows_on = self._flows_on
        for link in flow.links:
            del flows_on[link][flow]
            freed[link] = None
        self._stalled.pop(flow, None)
        tracer = self.env.tracer
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
