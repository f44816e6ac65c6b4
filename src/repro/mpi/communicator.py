"""Communicators: ordered process groups with private matching space.

Mirrors the MVAPICH2 multi-core-aware layout the paper builds on (§II-D,
Fig 1): ``COMM_WORLD`` plus, per node, a *shared-memory communicator* of the
node's ranks, and one *leader communicator* containing every node's lowest
rank.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


class Communicator:
    """An ordered group of world ranks with its own message-matching space."""

    def __init__(self, comm_id: int, world_ranks: Sequence[int], name: str = ""):
        if len(set(world_ranks)) != len(world_ranks):
            raise ValueError("duplicate ranks in communicator group")
        if not world_ranks:
            raise ValueError("empty communicator")
        self.comm_id = comm_id
        self.group: Tuple[int, ...] = tuple(world_ranks)
        self.size = len(self.group)
        self.name = name or f"comm{comm_id}"
        #: world rank -> local rank; ``in`` tests membership.
        self.members: Dict[int, int] = {w: i for i, w in enumerate(self.group)}

    def rank_of(self, world_rank: int) -> int:
        """Translate a world rank to this communicator's local rank."""
        try:
            return self.members[world_rank]
        except KeyError:
            raise ValueError(
                f"world rank {world_rank} not in {self.name}"
            ) from None

    def world_rank(self, local_rank: int) -> int:
        """Translate a local rank back to the world rank."""
        if not 0 <= local_rank < self.size:
            raise ValueError(f"local rank {local_rank} out of range for {self.name}")
        return self.group[local_rank]

    def contains(self, world_rank: int) -> bool:
        return world_rank in self.members

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator {self.name} size={self.size}>"


class CommunicatorFactory:
    """Allocates communicators with unique ids for one job."""

    def __init__(self) -> None:
        self._next_id = 0

    def create(self, world_ranks: Sequence[int], name: str = "") -> Communicator:
        comm = Communicator(self._next_id, world_ranks, name)
        self._next_id += 1
        return comm


class CommLayout:
    """The standard three-level layout of multi-core-aware collectives."""

    def __init__(
        self,
        world: Communicator,
        shared: Dict[int, Communicator],
        leaders: Communicator,
        rack_leaders: Communicator,
        rack_node_leaders: Dict[int, Communicator],
    ):
        #: All ranks.
        self.world = world
        #: node_id → communicator of that node's ranks.
        self.shared = shared
        #: One rank (the node leader) per node.
        self.leaders = leaders
        #: One rank (the rack leader) per rack (trivial for single-rack).
        self.rack_leaders = rack_leaders
        #: rack → communicator of the node leaders within that rack.
        self.rack_node_leaders = rack_node_leaders

    @classmethod
    def build(cls, factory: CommunicatorFactory, affinity) -> "CommLayout":
        """Derive the layout from an :class:`~repro.cluster.affinity.AffinityMap`."""
        world = factory.create(range(affinity.n_ranks), name="world")
        shared: Dict[int, Communicator] = {}
        leader_ranks: List[int] = []
        for node_id in range(affinity.n_nodes_used):
            ranks = affinity.ranks_on_node(node_id)
            shared[node_id] = factory.create(ranks, name=f"shm{node_id}")
            leader_ranks.append(affinity.node_leader(node_id))
        leaders = factory.create(leader_ranks, name="leaders")
        rack_leader_ranks: List[int] = []
        rack_node_leaders: Dict[int, Communicator] = {}
        for rack in range(affinity.n_racks_used):
            rack_leader_ranks.append(affinity.rack_leader(rack))
            node_leader_ranks = [
                affinity.node_leader(n) for n in affinity.nodes_in_rack(rack)
            ]
            rack_node_leaders[rack] = factory.create(
                node_leader_ranks, name=f"racknl{rack}"
            )
        rack_leaders = factory.create(rack_leader_ranks, name="rackleaders")
        return cls(world, shared, leaders, rack_leaders, rack_node_leaders)
