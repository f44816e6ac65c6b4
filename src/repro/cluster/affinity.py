"""Process-to-core affinity policies (paper §V-C).

MVAPICH2's default ("bunch") binding places ranks 0..c/2-1 of a node on
socket A and the rest on socket B, block-distributing ranks across nodes.
The power-aware algorithms rely on this mapping to know which ranks share a
socket; alternative policies are provided to study what happens when the
assumption is violated (the paper notes the algorithms "may need to be
adjusted" then).
"""

from __future__ import annotations

import enum
from typing import Dict, List

from .cpu import Core, Socket
from .topology import Cluster


class AffinityPolicy(enum.Enum):
    """Rank-to-core binding policies (paper §V-C)."""

    #: MVAPICH2 default: block ranks across nodes, fill socket A then B.
    BUNCH = "bunch"
    #: Round-robin ranks across sockets within the node (0→A, 1→B, 2→A, …).
    SCATTER = "scatter"
    #: Bind rank r to OS core (r mod c) directly — interleaves sockets on
    #: Nehalem numbering; deliberately breaks the socket-group assumption.
    SEQUENTIAL = "sequential"


class AffinityMap:
    """Resolved binding of ``n_ranks`` MPI ranks onto a :class:`Cluster`.

    Ranks are block-distributed across nodes: rank r runs on node
    ``node_offset + r // cores_per_node`` (one process per core, fully
    subscribed nodes), which is how all the paper's experiments are laid
    out.  ``node_offset`` lets several co-scheduled jobs occupy disjoint
    contiguous node ranges of one cluster (the multi-job scenario);
    single-job callers leave it at 0 and see the historical mapping.
    """

    def __init__(
        self,
        cluster: Cluster,
        n_ranks: int,
        policy: AffinityPolicy = AffinityPolicy.BUNCH,
        node_offset: int = 0,
    ):
        c = cluster.cores_per_node
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        if node_offset < 0:
            raise ValueError("node_offset must be >= 0")
        if node_offset * c + n_ranks > cluster.n_nodes * c:
            raise ValueError(
                f"{n_ranks} ranks starting at node {node_offset} exceed "
                f"{cluster.n_nodes * c} cores"
            )
        if n_ranks % c != 0:
            raise ValueError(
                f"ranks ({n_ranks}) must fully populate nodes of {c} cores "
                "(the paper always runs fully-subscribed nodes)"
            )
        self.cluster = cluster
        self.n_ranks = n_ranks
        self.policy = policy
        self.cores_per_node = c
        self.node_offset = node_offset
        self.n_nodes_used = n_ranks // c
        #: rank -> the core it is bound to.
        self.rank_cores: List[Core] = []
        self._core_to_rank: Dict[int, int] = {}
        #: Sockets never move, so each rank's is resolved once here.
        self._rank_to_socket: List[Socket] = []
        for rank in range(n_ranks):
            node = cluster.nodes[node_offset + rank // c]
            local = rank % c
            os_id = self._local_rank_to_os_id(local, node)
            core = node.core_by_os_id(os_id)
            self.rank_cores.append(core)
            self._core_to_rank[core.core_id] = rank
            self._rank_to_socket.append(cluster.socket_of_core(core))

    def _local_rank_to_os_id(self, local: int, node) -> int:
        n_sockets = len(node.sockets)
        per_socket = self.cores_per_node // n_sockets
        if self.policy is AffinityPolicy.BUNCH:
            socket = local // per_socket
            within = local % per_socket
            return socket + n_sockets * within
        if self.policy is AffinityPolicy.SCATTER:
            socket = local % n_sockets
            within = local // n_sockets
            return socket + n_sockets * within
        # SEQUENTIAL: take OS ids in numeric order.
        return local

    # -- lookups -------------------------------------------------------------
    def core_of(self, rank: int) -> Core:
        return self.rank_cores[rank]

    def socket_of(self, rank: int) -> Socket:
        return self._rank_to_socket[rank]

    def rank_of_core(self, core: Core) -> int:
        return self._core_to_rank[core.core_id]

    def node_of(self, rank: int) -> int:
        return self.rank_cores[rank].node_id

    def local_rank(self, rank: int) -> int:
        """Rank index within its node (0 .. cores_per_node-1)."""
        return rank % self.cores_per_node

    def ranks_on_node(self, node_id: int) -> List[int]:
        base = (node_id - self.node_offset) * self.cores_per_node
        return list(range(base, base + self.cores_per_node))

    def node_leader(self, node_id: int) -> int:
        """The node-leader rank (lowest rank on the node, MVAPICH2 style)."""
        return (node_id - self.node_offset) * self.cores_per_node

    def is_leader(self, rank: int) -> bool:
        return self.local_rank(rank) == 0

    def socket_group(self, rank: int) -> int:
        """0 if the rank's core is on socket A, 1 for socket B, etc."""
        return self._rank_to_socket[rank].local_index

    def socket_peers(self, rank: int) -> List[int]:
        """Ranks on this node bound to the same socket as ``rank``."""
        sock = self.socket_of(rank)
        return [
            r
            for r in self.ranks_on_node(self.node_of(rank))
            if self.socket_of(r) is sock
        ]

    def group_a_ranks(self, node_id: int) -> List[int]:
        """Process group A of the paper's alltoall algorithm (socket A)."""
        sockets = self._rank_to_socket
        return [
            r for r in self.ranks_on_node(node_id) if sockets[r].local_index == 0
        ]

    def group_b_ranks(self, node_id: int) -> List[int]:
        sockets = self._rank_to_socket
        return [
            r for r in self.ranks_on_node(node_id) if sockets[r].local_index != 0
        ]

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def socket_leader(self, rank: int) -> int:
        """Lowest rank bound to the same socket (issues socket throttles)."""
        return min(self.socket_peers(rank))

    # -- rack topology (ClusterSpec.racks > 1) ---------------------------------
    @property
    def n_racks_used(self) -> int:
        """Racks touched by this job (nodes are block-assigned to racks)."""
        spec = self.cluster.spec
        first = spec.rack_of_node(self.node_offset)
        last = spec.rack_of_node(self.node_offset + self.n_nodes_used - 1)
        return last - first + 1

    def rack_of(self, rank: int) -> int:
        return self.cluster.spec.rack_of_node(self.node_of(rank))

    def nodes_in_rack(self, rack: int) -> List[int]:
        """Node ids of ``rack`` that this job occupies."""
        per = self.cluster.spec.nodes_per_rack
        lo = self.node_offset
        hi = self.node_offset + self.n_nodes_used
        return [
            n for n in range(rack * per, (rack + 1) * per) if lo <= n < hi
        ]

    def rack_leader(self, rack: int) -> int:
        """The rack-leader rank: the node leader of the rack's first node."""
        nodes = self.nodes_in_rack(rack)
        if not nodes:
            raise ValueError(f"rack {rack} has no ranks in this job")
        return self.node_leader(nodes[0])

    def is_rack_leader(self, rank: int) -> bool:
        return rank == self.rack_leader(self.rack_of(rank))
