"""Physical cluster construction: nodes → sockets → cores.

Core numbering inside a node follows the Intel Nehalem scheme the paper
shows in Fig 5: OS cores 0 2 4 6 live on socket A and 1 3 5 7 on socket B,
i.e. ``os_id = local_socket + n_sockets * index_within_socket``.
"""

from __future__ import annotations

import weakref
from typing import Dict, List

from ..numeric import left_sum
from .cpu import Core, Socket, ThrottleDomain
from .specs import ClusterSpec


class Node:
    """One compute node: sockets of cores plus one InfiniBand HCA."""

    __slots__ = ("node_id", "sockets", "cores", "_by_os_id", "nic_links")

    def __init__(self, node_id: int, sockets: List[Socket]):
        self.node_id = node_id
        self.sockets = sockets
        self.cores: List[Core] = [c for s in sockets for c in s.cores]
        self._by_os_id: Dict[int, Core] = {c.os_id: c for c in self.cores}
        #: The node's HCA links in every network built on the cluster;
        #: their capacity follows :attr:`mean_dvfs_ratio`, so every core
        #: of the node shares this set (see ``Core.nic_links``).  Held
        #: weakly: a link's capacity function refers to its node, and the
        #: cluster must not keep a network alive or form a cycle with it.
        self.nic_links: "weakref.WeakSet" = weakref.WeakSet()
        for core in self.cores:
            core.nic_links = self.nic_links

    def core_by_os_id(self, os_id: int) -> Core:
        """Look up a core by its OS number within this node."""
        return self._by_os_id[os_id]

    def socket_of(self, core: Core) -> Socket:
        for socket in self.sockets:
            if core in socket.cores:
                return socket
        raise ValueError(f"{core!r} is not on node {self.node_id}")

    @property
    def mean_dvfs_ratio(self) -> float:
        """Average f/fmax over the node's cores; drives the uncore/IO
        bandwidth degradation of the NIC links (see network.fabric)."""
        spec = self.cores[0].spec
        return left_sum(c.frequency_ghz for c in self.cores) / (
            len(self.cores) * spec.fmax
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id} sockets={len(self.sockets)}>"


class Cluster:
    """The full machine built from a :class:`ClusterSpec`."""

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        self.nodes: List[Node] = []
        self.cores: List[Core] = []
        self.throttle_domain = ThrottleDomain(spec.node.cpu)
        cpu = spec.node.cpu
        core_id = 0
        for node_id in range(spec.nodes):
            sockets: List[Socket] = []
            for local_socket in range(spec.node.sockets):
                cores: List[Core] = []
                for k in range(cpu.cores_per_socket):
                    os_id = local_socket + spec.node.sockets * k
                    core = Core(
                        core_id=core_id,
                        os_id=os_id,
                        node_id=node_id,
                        socket_id=node_id * spec.node.sockets + local_socket,
                        spec=cpu,
                    )
                    cores.append(core)
                    core_id += 1
                sockets.append(
                    Socket(
                        socket_id=node_id * spec.node.sockets + local_socket,
                        node_id=node_id,
                        local_index=local_socket,
                        cores=cores,
                        spec=cpu,
                    )
                )
            node = Node(node_id, sockets)
            self.nodes.append(node)
            self.cores.extend(node.cores)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def cores_per_node(self) -> int:
        return self.spec.node.cores_per_node

    def socket_of_core(self, core: Core) -> Socket:
        return self.nodes[core.node_id].socket_of(core)

    def add_listener(self, listener) -> None:
        """Attach a state listener (e.g. the energy accountant) to all cores."""
        for core in self.cores:
            core.add_listener(listener)

    def remove_listener(self, listener) -> None:
        """Detach a state listener from every core (inverse of
        :meth:`add_listener`); raises ``ValueError`` if it was never
        attached."""
        for core in self.cores:
            core.remove_listener(listener)

    def attach_tracer(self, tracer) -> None:
        """Point every core's instrumentation hook at ``tracer``."""
        for core in self.cores:
            core.tracer = tracer

    def set_all(self, now: float, frequency_ghz=None, tstate=None, activity=None) -> None:
        """Bulk state change, used for test setup and job teardown."""
        for core in self.cores:
            if frequency_ghz is not None:
                core.set_frequency(frequency_ghz, now)
            if tstate is not None:
                core.set_tstate(tstate, now)
            if activity is not None:
                core.set_activity(activity, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cluster {self.n_nodes}x{self.cores_per_node}>"
