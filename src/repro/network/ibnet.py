"""Cluster-shaped InfiniBand network: per-node HCA links on one switch.

Builds the link graph for a :class:`~repro.cluster.topology.Cluster`:

* ``nic_up:<n>`` / ``nic_dn:<n>`` — the node's HCA send/receive directions.
  Their capacity follows the node's DVFS level (uncore feed limit).
* ``mem:<n>`` — the node's aggregate memory bandwidth, shared by concurrent
  shared-memory copies (the intra-node phase of multi-core collectives).
* ``switch`` — optional aggregate backplane (∞ for a non-blocking crossbar).
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from ..cluster.topology import Cluster, Node
from ..sim import Environment, Event
from .fabric import Fabric, Link
from .params import NetworkSpec

#: A route: the links a transfer crosses, in order.  Routes are cached
#: per (src, dst) and per node and shared, hence immutable.
Path = Tuple[Link, ...]


class IBNetwork:
    """The fabric plus the cluster-specific link topology."""

    def __init__(self, env: Environment, cluster: Cluster, spec: Optional[NetworkSpec] = None):
        self.env = env
        self.cluster = cluster
        self.spec = spec or NetworkSpec()
        self.fabric = Fabric(env, self.spec)
        self._switch: Optional[Link] = None
        self._progress: Dict[int, float] = {node.node_id: 1.0 for node in cluster.nodes}
        #: Per-node HCA utilisation factor for interrupt-driven ("blocking")
        #: progression: sleeping ranks cannot keep the HCA queues full, so
        #: the achievable node bandwidth drops.  Read-only; the MPI job
        #: writes it through :meth:`set_progress_factor`.
        self.progress_factor: Mapping[int, float] = MappingProxyType(self._progress)
        #: node id → (nic_up, nic_dn, mem) links, loopback and
        #: shared-memory paths.
        self._node_links: Dict[int, Tuple[Link, Link, Link]] = {}
        self._loopbacks: Dict[int, Path] = {}
        self._shm_paths: Dict[int, Path] = {}
        for node in cluster.nodes:
            self._build_node_links(node)
        if not math.isinf(self.spec.switch_oversubscription):
            self._switch = self.fabric.add_link(
                "switch", self.spec.nic_bw * self.spec.switch_oversubscription
            )
        self.n_racks = cluster.spec.racks
        #: rack → (rack_up, rack_dn) leaf-to-spine uplinks.
        self._rack_links: Dict[int, Tuple[Link, Link]] = {}
        if self.n_racks > 1:
            cap = self.spec.nic_bw * self.spec.rack_uplink_factor
            for rack in range(self.n_racks):
                self._rack_links[rack] = (
                    self.fabric.add_link(f"rack_up:{rack}", cap),
                    self.fabric.add_link(f"rack_dn:{rack}", cap),
                )
        #: (src, dst) → inter-node path, built on first use.
        self._routes: Dict[Tuple[int, int], Path] = {}

    def _build_node_links(self, node: Node) -> None:
        spec = self.spec
        progress = self._progress

        def nic_capacity(node=node) -> float:
            return (
                spec.nic_bw
                * spec.nic_dvfs_factor(node.mean_dvfs_ratio)
                * progress[node.node_id]
            )

        up = self.fabric.add_link(f"nic_up:{node.node_id}", spec.nic_bw, nic_capacity)
        dn = self.fabric.add_link(f"nic_dn:{node.node_id}", spec.nic_bw, nic_capacity)
        mem = self.fabric.add_link(f"mem:{node.node_id}", spec.mem_bw_node)
        self._node_links[node.node_id] = (up, dn, mem)
        self._loopbacks[node.node_id] = (up, dn)
        self._shm_paths[node.node_id] = (mem,)
        # The node's cores drop these capacities on every frequency change.
        node.nic_links.update((up, dn))

    def set_progress_factor(self, factor: float) -> None:
        """Set every node's HCA progress factor.  Flows already in flight
        see it at their next re-rate."""
        for node_id, (up, dn, _mem) in self._node_links.items():
            self._progress[node_id] = factor
            up.invalidate()
            dn.invalidate()

    # -- link lookups ---------------------------------------------------------
    def nic_up(self, node_id: int) -> Link:
        return self._node_links[node_id][0]

    def nic_dn(self, node_id: int) -> Link:
        return self._node_links[node_id][1]

    def mem(self, node_id: int) -> Link:
        return self._node_links[node_id][2]

    def rack_up(self, rack: int) -> Link:
        return self._rack_links[rack][0]

    def rack_dn(self, rack: int) -> Link:
        return self._rack_links[rack][1]

    def inter_node_path(self, src_node: int, dst_node: int) -> Path:
        """Links a bulk transfer from ``src_node`` to ``dst_node`` crosses.

        Cross-rack traffic additionally traverses both racks' (typically
        oversubscribed) leaf-to-spine uplinks."""
        path = self._routes.get((src_node, dst_node))
        if path is None:
            hops = [self.nic_up(src_node), self.nic_dn(dst_node)]
            if self.n_racks > 1:
                src_rack = self.cluster.spec.rack_of_node(src_node)
                dst_rack = self.cluster.spec.rack_of_node(dst_node)
                if src_rack != dst_rack:
                    hops[1:1] = [self.rack_up(src_rack), self.rack_dn(dst_rack)]
            if self._switch is not None:
                hops.insert(1, self._switch)
            path = self._routes[(src_node, dst_node)] = tuple(hops)
        return path

    def loopback_path(self, node_id: int) -> Path:
        """HCA loopback (used intra-node in blocking mode, §II-B)."""
        return self._loopbacks[node_id]

    def shm_path(self, node_id: int) -> Path:
        """The node's memory link (shared-memory copies)."""
        return self._shm_paths[node_id]

    # -- transfers -------------------------------------------------------------
    def transfer_inter(
        self,
        src_node: int,
        dst_node: int,
        nbytes: float,
        cpu_cap: float = math.inf,
        label: str = "",
    ) -> Event:
        """Bulk transfer between two nodes (event fires at completion)."""
        if src_node == dst_node:
            path = self.loopback_path(src_node)
        else:
            path = self.inter_node_path(src_node, dst_node)
        return self.fabric.transfer(path, nbytes, cpu_cap=cpu_cap, label=label)

    def transfer_shm(
        self,
        node_id: int,
        nbytes: float,
        pair_cap: float,
        label: str = "",
    ) -> Event:
        """Shared-memory copy on ``node_id``: capped by the pair's copy
        bandwidth and sharing the node's memory link with other copies."""
        return self.fabric.transfer(
            self.shm_path(node_id), nbytes, cpu_cap=pair_cap, label=label
        )

    def dvfs_changed(self, node_id: Optional[int] = None) -> None:
        """Propagate a DVFS change into NIC capacities mid-flight.

        With ``node_id`` given, only that node's HCA links are marked
        changed, so the fabric re-rates just the flows touching them.
        """
        if node_id is None:
            self.fabric.capacities_changed()
        else:
            self.fabric.capacities_changed(
                [self.nic_up(node_id), self.nic_dn(node_id)]
            )
