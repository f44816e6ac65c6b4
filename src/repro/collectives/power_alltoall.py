"""The proposed power-aware MPI_Alltoall (paper §V-A, Fig 3).

Socket-scheduled pairwise exchange in four phases, all at fmin:

1. intra-node exchanges (everyone);
2. socket-A groups exchange across nodes while socket-B groups sit at T7;
3. roles swap: B↔B exchanges while A sits at T7;
4. a round-robin tournament over node pairs (i,j): first A_i↔B_j while
   B_i/A_j are throttled, then B_i↔A_j while A_i/B_j are throttled.

Only half the node's ranks drive the HCA at any instant, halving NIC
contention for phases 2–3 (the paper's "Cnet/4 per half" in eq. 3) and
keeping half the cores at T7 throughout phases 2–4 (eq. 7).
"""

from __future__ import annotations

from typing import Optional

from .base import is_power_of_two, tag_for
from .power_control import T_FULL, T_LOW, dvfs_down, dvfs_up


def tournament_partner(node: int, rnd: int, n_nodes: int) -> Optional[int]:
    """Circle-method round-robin: the node paired with ``node`` in round
    ``rnd`` (None = bye when ``n_nodes`` is odd)."""
    if n_nodes < 2:
        return None
    m = n_nodes if n_nodes % 2 == 0 else n_nodes + 1
    rounds = m - 1
    if not 0 <= rnd < rounds:
        raise ValueError(f"round {rnd} out of range (0..{rounds - 1})")
    if node == m - 1:
        partner = rnd
    elif node == rnd:
        partner = m - 1
    else:
        partner = (2 * rnd - node) % (m - 1)
    return None if partner >= n_nodes else partner


def supports_power_alltoall(ctx, comm) -> bool:
    """The schedule needs the bunch socket layout and power-of-two group
    shapes (paper §V-C: other mappings require adjusting the algorithm).

    Like the schedule itself, the check walks the job's node *window*:
    node ``w`` of the window is cluster node ``node_offset + w`` and
    hosts ranks ``w·c .. w·c + c - 1``."""
    aff = ctx.affinity
    if comm is not ctx.world:
        return False
    if ctx.job.cluster.spec.node.sockets != 2:
        return False
    c = aff.cores_per_node
    half = c // 2
    if half < 1 or not is_power_of_two(c):
        return False
    if not is_power_of_two(aff.n_nodes_used * half):
        return False
    for w in range(aff.n_nodes_used):
        a = aff.group_a_ranks(aff.node_offset + w)
        b = aff.group_b_ranks(aff.node_offset + w)
        if len(a) != half or len(b) != half:
            return False
        base = w * c
        if a != list(range(base, base + half)):
            return False
    return True


def _subgroup_exchange(ctx, size_of, comm, seq, my_node, group_index, half,
                       n_nodes, tag_base):
    """Phases 2/3: XOR pairwise exchange within one socket-side subgroup
    (size n_nodes·half), skipping same-node partners (done in phase 1).

    ``my_node`` is this rank's window-relative node index.
    ``size_of(partner)`` gives the bytes this rank sends to ``partner`` —
    a constant for MPI_Alltoall, per-peer counts for MPI_Alltoallv.
    """
    idx = my_node * half + group_index
    size = n_nodes * half
    for i in range(half, size):
        pidx = idx ^ i
        pnode, plocal = divmod(pidx, half)
        partner = _group_member(ctx, pnode, plocal, same_side=True)
        yield from ctx.sendrecv(
            dst=partner, nbytes=size_of(partner), src=partner,
            tag=tag_for(seq, tag_base + i), comm=comm,
        )


def _group_member(ctx, node: int, index: int, same_side: bool, side_a: bool = True):
    """World rank of the ``index``-th member of a socket group on the
    ``node``-th node of the job's window."""
    aff = ctx.affinity
    if same_side:
        side_a = aff.socket_group(ctx.rank) == 0
    node_id = aff.node_offset + node
    group = aff.group_a_ranks(node_id) if side_a else aff.group_b_ranks(node_id)
    return group[index]


def _windowed_exchange(ctx, nbytes, comm, tag, partners):
    """Exchange ``nbytes`` with every rank in ``partners`` at once
    (non-blocking window + waitall).  Distinct sources disambiguate the
    shared tag.  Windowing the per-round exchanges keeps the HCA pipeline
    full even when a peer group is still finishing the previous half."""
    requests = []
    for partner in partners:
        sreq = yield from ctx.isend(partner, nbytes, tag, comm)
        rreq = yield from ctx.irecv(src=partner, tag=tag, comm=comm)
        requests.append(sreq)
        requests.append(rreq)
    yield from ctx._wait(ctx.env.all_of(requests))


def power_aware_alltoall(ctx, nbytes: int, comm, seq: int, send_counts=None):
    """The four-phase socket-scheduled pairwise exchange (Fig 3).

    With ``send_counts`` (one entry per peer) the same schedule carries the
    per-peer sizes of an MPI_Alltoallv — the tech-report extension [26].
    """
    if send_counts is not None and len(send_counts) != comm.size:
        raise ValueError(f"send_counts must have {comm.size} entries")
    if not supports_power_alltoall(ctx, comm):
        raise ValueError(
            "power-aware alltoall needs COMM_WORLD with bunch affinity on "
            "two-socket nodes and power-of-two group shapes"
        )
    aff = ctx.affinity
    c = aff.cores_per_node
    half = c // 2
    n_nodes = aff.n_nodes_used
    me = ctx.rank
    # Window-relative node index: the schedule (phase-1 base, subgroup
    # index, tournament) is the same at any node offset.
    my_node = ctx.node_id - aff.node_offset
    in_a = aff.socket_group(me) == 0
    my_group = (aff.group_a_ranks(ctx.node_id) if in_a
                else aff.group_b_ranks(ctx.node_id))
    group_index = my_group.index(me)
    subgroup_size = n_nodes * half

    def size_of(partner: int) -> int:
        return nbytes if send_counts is None else send_counts[partner]

    p2_flag = f"a2a{seq}.p2"
    p3_flag = f"a2a{seq}.p3"

    # All cores to fmin for the whole operation (paper §V).
    yield from dvfs_down(ctx)

    # -- Phase 1: intra-node pairwise exchange (everyone active) -----------
    local = aff.local_rank(me)
    base = my_node * c
    for i in range(1, c):
        partner = base + (local ^ i)
        yield from ctx.sendrecv(
            dst=partner, nbytes=size_of(partner), src=partner,
            tag=tag_for(seq, i), comm=comm,
        )

    if n_nodes > 1:
        if in_a:
            # -- Phase 2: A↔A across nodes; B is parked at T7 --------------
            yield from _subgroup_exchange(
                ctx, size_of, comm, seq, my_node, group_index, half, n_nodes,
                tag_base=c,
            )
            ctx.arrive(p2_flag, expected=half)
            # Throttling A down overlaps B's wake-up: cost hidden (§VI-A2).
            yield from ctx.throttle(T_LOW, charge=False)
            yield ctx.flag(p3_flag)
            yield from ctx.throttle(T_FULL)  # paid: start of phase 4
        else:
            # Parked during phase 2 — the down-transition is hidden behind
            # A's ongoing communication (§VI-A2).
            yield from ctx.throttle(T_LOW, charge=False)
            yield ctx.flag(p2_flag)
            # -- Phase 3: B↔B across nodes; A parked -----------------------
            yield from ctx.throttle(T_FULL)  # each process pays Othrottle once
            yield from _subgroup_exchange(
                ctx, size_of, comm, seq, my_node, group_index, half, n_nodes,
                tag_base=c + subgroup_size,
            )
            ctx.arrive(p3_flag, expected=half)

        # -- Phase 4: node-pair tournament, halves alternate ---------------
        tag4 = c + 2 * subgroup_size
        rounds = n_nodes - 1 if n_nodes % 2 == 0 else n_nodes
        for rnd in range(rounds):
            peer_node = tournament_partner(my_node, rnd, n_nodes)
            if peer_node is None:
                continue
            lower = my_node < peer_node
            # Half 1 pairs A(lower) with B(higher).
            active_h1 = in_a == lower
            h1_flag = f"a2a{seq}.r{rnd}.h1"
            round_base = tag4 + rnd * 2 * half
            # The lower node's side walks the peer group forwards and the
            # higher node's side walks it backwards so that sub-step s pairs
            # exactly one member of each group with one of the other.
            shift = 1 if lower else -1
            partners = [
                _group_member(
                    ctx,
                    peer_node,
                    (group_index + shift * s) % half,
                    same_side=False,
                    side_a=not in_a,
                )
                for s in range(half)
            ]
            if active_h1:
                yield from ctx.throttle(T_FULL)
                for s, partner in enumerate(partners):
                    yield from ctx.sendrecv(
                        dst=partner, nbytes=size_of(partner), src=partner,
                        tag=tag_for(seq, round_base + s), comm=comm,
                    )
                ctx.arrive(h1_flag, expected=half)
                # Down-transition hidden behind the other half starting up.
                yield from ctx.throttle(T_LOW, charge=False)
            else:
                yield from ctx.throttle(T_LOW, charge=False)
                yield ctx.flag(h1_flag)
                yield from ctx.throttle(T_FULL)
                for s, partner in enumerate(partners):
                    yield from ctx.sendrecv(
                        dst=partner, nbytes=size_of(partner), src=partner,
                        tag=tag_for(seq, round_base + half + s), comm=comm,
                    )

    # Restore full throttle state and peak frequency.
    yield from ctx.throttle(T_FULL)
    yield from dvfs_up(ctx)
