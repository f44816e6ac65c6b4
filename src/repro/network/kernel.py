"""numpy array kernel for the fabric (DESIGN.md §12).

The scalar fabric spends its time in per-flow dict surgery: every
admission, completion, and capacity change walks Python objects, re-runs
water-filling over dicts, and pushes one heap entry per re-rated flow.
This module keeps the same *model* — lazy byte settling, component-local
max-min re-rating, a single wake-up timer — but stores all mutable flow
state in slot-addressed numpy arrays (:class:`FlowTable`) and turns each
hot operation into whole-array expressions:

* **Admission batching** — ``transfer()`` only appends the flow to a
  pending list and arms a zero-delay flush via ``env.defer``; the flush
  rates every same-timestamp admission wave in one segmented
  water-filling call (:func:`waterfill`).  Water-filling is memoryless
  (rates depend only on the current population), so intermediate
  same-timestamp re-rates the scalar kernel performs are pure waste —
  only the last one per component determines the rates.  The flush
  computes exactly that final re-rate per touched component.
* **Vector water-filling** — :func:`waterfill` runs whole rounds of the
  share/freeze loop as array ops over a links×flows incidence relation
  in COO form (``rep_flow``/``rep_link``): fair shares via
  ``np.bincount`` membership counts, cap-binding and tight-link
  detection via boolean masks, per-segment water levels via
  ``np.minimum.at`` so disjoint components solved in one call cannot
  couple numerically.
* **Batched completions** — predicted finish times live in one persistent
  vector; the single timer is armed from its ``min()`` and due flows are
  selected with one comparison, replacing the scalar kernel's
  heap-push-per-flow-per-re-rate.

Equivalence with the scalar oracle is exact, not approximate: both
kernels fold floating-point sums in one canonical order (components in
admission order, per-link frozen demand summed then subtracted once,
completions in ``(finish, seq)`` order), so per-flow rates, remaining
bytes, and completion times are bit-identical
(``tests/network/test_fabric_vectorized.py``).  Aggregate byte counters
(``bytes_delivered``, ``link_bytes``) can differ at the last ulp in rare
same-timestamp component-bridging interleavings, where the scalar kernel
settles partially-overlapping components request by request.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim import Environment, Event
from .fabric import (
    _EPSILON_BYTES,
    _TIGHT_ABS,
    _TIGHT_REL,
    FabricBase,
    Link,
    maxmin_rates,
)
from .params import NetworkSpec


class VectorFlow:
    """Flow handle for the vector kernel.

    Identity and immutable metadata live on the object; mutable state
    (remaining bytes, rate, settle time) lives in the owning fabric's
    :class:`FlowTable` row addressed by ``idx`` (−1 once complete).  The
    properties mirror the scalar :class:`~repro.network.fabric.Flow`
    attributes for observability code and tests.
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
        self.seq = seq
        self.started_at = started_at
        self.idx = idx
        self._table = table

    @property
    def remaining(self) -> float:
        return float(self._table.remaining[self.idx]) if self.idx >= 0 else 0.0

    @property
    def rate(self) -> float:
        return float(self._table.rate[self.idx]) if self.idx >= 0 else 0.0

    @property
    def updated_at(self) -> float:
        if self.idx >= 0:
            return float(self._table.updated[self.idx])
        return self.started_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VectorFlow {self.label} rem={self.remaining:.0f}B "
            f"rate={self.rate / 1e9:.2f}GB/s>"
        )


class FlowTable:
    """Slot-addressed structure-of-arrays holding all mutable flow state.

    Slots are recycled through a free list; a freed slot keeps
    ``finish = inf`` and ``rate = remaining = 0`` so whole-array scans
    (due-completion selection, timer arming) never see garbage.
    """

    __slots__ = (
        "capacity",
        "remaining",
        "rate",
        "cap",
        "updated",
        "finish",
        "seq",
        "_free",
    )

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self.remaining = np.zeros(capacity)
        self.rate = np.zeros(capacity)
        self.cap = np.zeros(capacity)
        self.updated = np.zeros(capacity)
        self.finish = np.full(capacity, np.inf)
        self.seq = np.zeros(capacity, dtype=np.int64)
        self._free: List[int] = list(range(capacity - 1, -1, -1))

    def alloc(self) -> int:
        if not self._free:
            self._grow()
        return self._free.pop()

    def free(self, slot: int) -> None:
        self.remaining[slot] = 0.0
        self.rate[slot] = 0.0
        self.finish[slot] = np.inf
        self._free.append(slot)

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        for name in ("remaining", "rate", "cap", "updated", "seq"):
            arr = getattr(self, name)
            grown = np.zeros(new, dtype=arr.dtype)
            grown[:old] = arr
            setattr(self, name, grown)
        finish = np.full(new, np.inf)
        finish[:old] = self.finish
        self.finish = finish
        self._free.extend(range(new - 1, old - 1, -1))
        self.capacity = new


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
    replicate the canonical scalar folds (see
    :func:`repro.network.fabric.maxmin_rates`): ``np.add.at``
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


def maxmin_rates_vectorized(
    flows: Sequence,
    capacities: Dict[Link, float],
    congestion: float = 0.0,
    congestion_saturation: int = 7,
) -> Dict[object, float]:
    """Array-kernel twin of :func:`repro.network.fabric.maxmin_rates`.

    Same signature over flow objects (anything with ``links`` and
    ``cap``), solved as one :func:`waterfill` segment — the differential
    tests compare the two for exact equality.
    """
    if not flows:
        return {}
    link_ids: Dict[Link, int] = {}
    for flow in flows:
        for link in flow.links:
            if link not in link_ids:
                link_ids[link] = len(link_ids)
    n_links = len(link_ids)
    caps = np.empty(n_links)
    for link, i in link_ids.items():
        caps[i] = capacities[link]
    n = len(flows)
    flow_cap = np.fromiter((f.cap for f in flows), dtype=np.float64, count=n)
    lens = np.fromiter((len(f.links) for f in flows), dtype=np.int64, count=n)
    rep_flow = np.repeat(np.arange(n), lens)
    rep_link = np.fromiter(
        (link_ids[lk] for f in flows for lk in f.links),
        dtype=np.int64,
        count=int(lens.sum()),
    )
    seg = np.zeros(n, dtype=np.int64)
    rates = waterfill(
        n_links, caps, flow_cap, seg, 1, rep_flow, rep_link,
        congestion, congestion_saturation,
    )
    return {flow: float(rates[i]) for i, flow in enumerate(flows)}


class VectorFabric(FabricBase):
    """numpy fabric kernel: array state, batched flushes, vector timers.

    Drop-in equivalent of :class:`~repro.network.fabric.ScalarFabric`
    (identical rates, completion times, and completion-event ordering);
    see the module docstring for the batching contract.  ``rerate_calls``
    counts water-filling *groups* here — an admission wave that the
    scalar kernel re-rates n times counts once — so kernel self-profiling
    metrics are comparable only within one kernel.
    """

    #: At or below this many flows per re-rate, the canonical scalar
    #: water-filler on flow objects beats numpy dispatch overhead.  Both
    #: paths are bit-identical, so this is purely a performance knob
    #: (small components dominate governed/DVFS-heavy runs; profiled on
    #: governed alltoall cells in DESIGN.md §13 — the value sits on the
    #: measured plateau).
    SMALL_BATCH = 64

    def __init__(self, env: Environment, spec: NetworkSpec):
        super().__init__(env, spec)
        self._table = FlowTable()
        self._slot_flow: List[Optional[VectorFlow]] = [None] * self._table.capacity
        self._link_ids: Dict[Link, int] = {}
        self._link_list: List[Link] = []
        self._link_bytes_arr = np.zeros(64)
        self._caps = np.ones(64)
        self._pending: List[VectorFlow] = []
        self._flush_timer = None
        #: Path → link-id tuple; collectives re-send the same few hundred
        #: routes thousands of times, so admissions skip the id lookup.
        self._path_ids: Dict[tuple, tuple] = {}

    # -- link registry -------------------------------------------------------
    def _register_link(self, link: Link) -> None:
        i = len(self._link_list)
        if i >= self._link_bytes_arr.shape[0]:
            grown = np.zeros(self._link_bytes_arr.shape[0] * 2)
            grown[:i] = self._link_bytes_arr
            self._link_bytes_arr = grown
            caps = np.ones(self._caps.shape[0] * 2)
            caps[:i] = self._caps
            self._caps = caps
        self._link_ids[link] = i
        self._link_list.append(link)

    # -- observability -------------------------------------------------------
    @property
    def active_flows(self) -> List[VectorFlow]:
        self._flush()
        return list(self._flows)

    @property
    def link_bytes(self) -> Dict[str, float]:
        """Per-link delivered bytes (settled with ``bytes_delivered``)."""
        self._flush()
        counters = self._link_bytes_arr
        return {
            link.name: float(counters[i])
            for i, link in enumerate(self._link_list)
        }

    # -- admission -----------------------------------------------------------
    def transfer(
        self,
        links: Sequence[Link],
        nbytes: float,
        cpu_cap: float = math.inf,
        label: str = "",
    ) -> Event:
        """Start a bulk transfer; the returned event fires at completion.

        Hot-path override of the :class:`FabricBase` template — same
        semantics and trace, but fully inlined (a transfer is the single
        most frequent fabric call) and admission only appends to the
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
        flow = VectorFlow(
            links, path_ids, float(nbytes), cpu_cap, event, label, seq,
            now, slot, table,
        )
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
                now, label, float(nbytes), [lk.name for lk in links], seq=seq
            )
        self._pending.append(flow)
        if self._flush_timer is None:
            self._flush_timer = env.defer(self._flush)
        return event

    def capacities_changed(self, links=None) -> None:
        """Re-read link capacities (call after DVFS transitions); same
        contract as the scalar kernel."""
        if not self._flows:
            return
        self._flush()
        if links is None:
            links = self._carrying_links()
        self._rerate_now(links)

    # -- re-rating -----------------------------------------------------------
    def _flush(self, _timer=None) -> None:
        """Rate every flow admitted at the current timestamp.

        For same-timestamp admissions only the *last* scalar re-rate
        touching a component determines its rates (water-filling is
        memoryless), and that re-rate sees exactly the component as it
        stands once the whole wave is admitted — so one re-rate per
        touched component reproduces the scalar results bit-for-bit.
        Stalled-flow rescue widens the seed set per request, making the
        grouping request-order-dependent; that rare regime replays the
        scalar per-admission sequence literally.
        """
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        pending = self._pending
        if not pending:
            return
        self._pending = []
        now = self.env.now
        table = self._table
        count = len(pending)
        idx = np.fromiter((f.idx for f in pending), dtype=np.int64, count=count)
        table.remaining[idx] = np.fromiter(
            (f.nbytes for f in pending), dtype=np.float64, count=count
        )
        table.cap[idx] = np.fromiter(
            (f.cap for f in pending), dtype=np.float64, count=count
        )
        table.seq[idx] = np.fromiter(
            (f.seq for f in pending), dtype=np.int64, count=count
        )
        table.updated[idx] = now
        if not self.spec.incremental_rerate:
            self._apply([list(self._flows)])
            return
        if self._stalled:
            for flow in pending:
                if flow.idx >= 0:
                    self._rerate_now(flow.links)
            return
        if count == len(self._flows):
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
            by_root: Dict[int, List[VectorFlow]] = {}
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
        groups: List[List[VectorFlow]] = []
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

    def _rerate_now(self, seed_links) -> None:
        """One immediate component re-rate (completions / capacity
        changes) — the union of components touching the seeds is solved
        as a single water-fill, mirroring the scalar kernel's grouping
        (and therefore its cross-component tolerance coupling) exactly."""
        if not self._flows:
            self._arm_timer()
            return
        seeds = list(seed_links)
        if self._stalled:
            seeds += self._stalled_links()
        if self.spec.incremental_rerate:
            component = self._component(seeds)
        else:
            component = list(self._flows)
        if not component:
            self._arm_timer()
            return
        self._apply([component])

    def _apply(self, groups: List[List[VectorFlow]]) -> None:
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

    def _apply_small(self, component: List[VectorFlow], now: float) -> None:
        """Scalar-shaped path for small components: same canonical folds
        (and the same ``maxmin_rates``), just without numpy dispatch."""
        table = self._table
        remaining = table.remaining
        rate_arr = table.rate
        updated = table.updated
        finish = table.finish
        link_bytes = self._link_bytes_arr
        capacities: Dict[Link, float] = {}
        for flow in component:
            i = flow.idx
            dt = now - float(updated[i])
            rate = float(rate_arr[i])
            if dt > 0.0 and rate > 0.0:
                moved = rate * dt
                rem = float(remaining[i])
                if moved > rem:
                    moved = rem
                remaining[i] = rem - moved
                self.bytes_delivered += moved
                if moved > 0.0:
                    for li in flow.link_ids:
                        link_bytes[li] += moved
            updated[i] = now
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
            i = flow.idx
            rate_arr[i] = rate
            if rate > 0.0:
                if stalled:
                    stalled.pop(flow, None)
                finish[i] = float(updated[i]) + float(remaining[i]) / rate
            else:
                finish[i] = np.inf
                stalled[flow] = None

    def _apply_batch(
        self, groups: List[List[VectorFlow]], total: int, now: float
    ) -> None:
        table = self._table
        flat = [f for g in groups for f in g]
        idx = np.fromiter((f.idx for f in flat), dtype=np.int64, count=total)
        seg = np.repeat(
            np.arange(len(groups)),
            np.fromiter((len(g) for g in groups), dtype=np.int64, count=len(groups)),
        )
        lens = np.fromiter(
            (len(f.link_ids) for f in flat), dtype=np.int64, count=total
        )
        rep_flow = np.repeat(np.arange(total), lens)
        rep_link = np.fromiter(
            (li for f in flat for li in f.link_ids),
            dtype=np.int64,
            count=int(lens.sum()),
        )
        self._settle_batch(idx, rep_flow, rep_link, now)
        # Refresh every registered link's capacity: fabrics hold at most a
        # few hundred links, so a straight attribute sweep beats sorting
        # the incidence column (np.unique) to find the touched subset.
        caps = self._caps
        link_list = self._link_list
        for li, link in enumerate(link_list):
            caps[li] = link.capacity
        rates = waterfill(
            len(link_list),
            caps[: len(link_list)],
            table.cap[idx],
            seg,
            len(groups),
            rep_flow,
            rep_link,
            self.spec.flow_congestion,
            self.spec.flow_congestion_saturation,
        )
        table.rate[idx] = rates
        positive = rates > 0.0
        fin = np.full(total, np.inf)
        rem_new = table.remaining[idx]
        fin[positive] = now + rem_new[positive] / rates[positive]
        table.finish[idx] = fin
        stalled = self._stalled
        if not positive.all():
            for k in np.nonzero(~positive)[0].tolist():
                stalled[flat[k]] = None
        if stalled:
            for k in np.nonzero(positive)[0].tolist():
                stalled.pop(flat[k], None)

    def _settle_batch(
        self,
        idx: np.ndarray,
        rep_flow: np.ndarray,
        rep_link: np.ndarray,
        now: float,
    ) -> None:
        """Vectorized lazy settle: drain bytes at the pre-change rates,
        folding byte counters in flow (admission/due) order."""
        table = self._table
        old_rate = table.rate[idx]
        dt = now - table.updated[idx]
        rem = table.remaining[idx]
        moved = np.where((dt > 0.0) & (old_rate > 0.0), old_rate * dt, 0.0)
        moved = np.where(moved > rem, rem, moved)
        table.remaining[idx] = rem - moved
        table.updated[idx] = now
        moving = moved > 0.0
        if moving.any():
            for value in moved[moving].tolist():
                self.bytes_delivered += value
            sel = moving[rep_flow]
            np.add.at(
                self._link_bytes_arr, rep_link[sel], moved[rep_flow[sel]]
            )

    # -- completions ---------------------------------------------------------
    def _arm_timer(self) -> None:
        """Arm the single wake-up from the finish vector's minimum (free
        and zero-rated slots hold ``inf``, so no purging is needed)."""
        t_next = float(self._table.finish.min())
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
        table = self._table
        now = self.env.now
        finish = table.finish
        due = np.nonzero(finish <= now)[0]
        if due.size == 0:
            self._arm_timer()
            return
        # Process in (finish, seq) order — the scalar heap's pop order.
        due = due[np.lexsort((table.seq[due], finish[due]))]
        flows = [self._slot_flow[s] for s in due.tolist()]
        count = len(flows)
        lens = np.fromiter(
            (len(f.link_ids) for f in flows), dtype=np.int64, count=count
        )
        rep_flow = np.repeat(np.arange(count), lens)
        rep_link = np.fromiter(
            (li for f in flows for li in f.link_ids),
            dtype=np.int64,
            count=int(lens.sum()),
        )
        self._settle_batch(due, rep_flow, rep_link, now)
        rem = table.remaining[due]
        done = rem <= _EPSILON_BYTES
        freed: Dict[Link, None] = {}
        tracer = self.env.tracer
        traced = tracer.enabled
        stalled = self._stalled
        if done.any():
            # Completion credit: the sub-epsilon residual tails.
            for value in rem[done].tolist():
                self.bytes_delivered += value
            done_rep = done[rep_flow]
            np.add.at(
                self._link_bytes_arr, rep_link[done_rep], rem[rep_flow[done_rep]]
            )
            # Clear the table rows in one array transaction (per-slot
            # ``table.free`` would pay three numpy scalar writes each).
            done_slots = due[done]
            table.remaining[done_slots] = 0.0
            table.rate[done_slots] = 0.0
            table.finish[done_slots] = np.inf
            table._free.extend(done_slots.tolist())
            flows_dict = self._flows
            flows_on = self._flows_on
            slot_flow = self._slot_flow
            for k in np.nonzero(done)[0].tolist():
                flow = flows[k]
                slot_flow[flow.idx] = None
                flow.idx = -1
                del flows_dict[flow]
                for link in flow.links:
                    del flows_on[link][flow]
                    freed[link] = None
                if stalled:
                    stalled.pop(flow, None)
                if traced:
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
        live = ~done
        if live.any():
            # Prediction landed a shade early (float slack): re-predict;
            # a flow re-rated to zero in between parks with the stalled
            # set instead of being dropped.
            remaining = table.remaining
            updated = table.updated
            rate_arr = table.rate
            for k in np.nonzero(live)[0].tolist():
                slot = int(due[k])
                rate = float(rate_arr[slot])
                if rate > 0.0:
                    finish[slot] = float(updated[slot]) + float(remaining[slot]) / rate
                else:
                    finish[slot] = np.inf
                    stalled[flows[k]] = None
        if freed:
            self._rerate_now(freed)
        else:
            self._arm_timer()
