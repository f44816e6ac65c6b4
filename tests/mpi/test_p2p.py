"""Tests for point-to-point messaging: matching, protocols, timing."""

import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, MpiJob, ProgressMode
from repro.network import NetworkSpec
from repro.sim import Interrupt, RecordingTracer, SimSession

IDEAL_NET = NetworkSpec(flow_congestion=0.0)


def make_job(n=16):
    return MpiJob(n, session=SimSession(network_spec=IDEAL_NET))


def test_simple_send_recv():
    job = make_job()
    log = {}

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(dst=1, nbytes=1024, tag=7)
        elif ctx.rank == 1:
            src, tag, nbytes = yield from ctx.recv(src=0, tag=7)
            log["recv"] = (src, tag, nbytes, ctx.env.now)

    job.run(program)
    src, tag, nbytes, t = log["recv"]
    assert (src, tag, nbytes) == (0, 7, 1024)
    assert t > 0


def test_eager_sender_returns_immediately():
    """A small send completes for the sender before the receiver posts."""
    job = make_job()
    times = {}

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(dst=1, nbytes=256)
            times["send_done"] = ctx.env.now
        elif ctx.rank == 1:
            yield from ctx.compute(1e-3)  # busy; recv posted late
            yield from ctx.recv(src=0)
            times["recv_done"] = ctx.env.now

    job.run(program)
    assert times["send_done"] < 1e-4
    assert times["recv_done"] >= 1e-3


def test_rendezvous_sender_blocks_for_receiver():
    """A large send cannot complete until the receiver arrives."""
    job = make_job()
    times = {}

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(dst=8, nbytes=1 << 20)  # inter-node, rndv
            times["send_done"] = ctx.env.now
        elif ctx.rank == 8:
            yield from ctx.compute(5e-3)
            yield from ctx.recv(src=0)
            times["recv_done"] = ctx.env.now

    job.run(program)
    assert times["send_done"] >= 5e-3
    assert times["send_done"] == pytest.approx(times["recv_done"], abs=1e-6)


def test_intra_node_faster_than_inter_node():
    def one_hop(dst):
        job = make_job()
        times = {}

        def program(ctx, dst=dst):
            if ctx.rank == 0:
                yield from ctx.send(dst=dst, nbytes=1 << 20)
            elif ctx.rank == dst:
                yield from ctx.recv(src=0)
                times["t"] = ctx.env.now

        job.run(program)
        return times["t"]

    assert one_hop(1) < one_hop(8)  # same node beats cross-node


def test_message_ordering_fifo_same_tag():
    job = make_job()
    order = []

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(dst=1, nbytes=64, tag=5)
            yield from ctx.send(dst=1, nbytes=128, tag=5)
        elif ctx.rank == 1:
            _, _, n1 = yield from ctx.recv(src=0, tag=5)
            _, _, n2 = yield from ctx.recv(src=0, tag=5)
            order.extend([n1, n2])

    job.run(program)
    assert order == [64, 128]


def test_tag_selective_matching():
    job = make_job()
    got = []

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(dst=1, nbytes=100, tag=1)
            yield from ctx.send(dst=1, nbytes=200, tag=2)
        elif ctx.rank == 1:
            _, _, n = yield from ctx.recv(src=0, tag=2)
            got.append(n)
            _, _, n = yield from ctx.recv(src=0, tag=1)
            got.append(n)

    job.run(program)
    assert got == [200, 100]


def test_any_source_any_tag():
    job = make_job()
    got = []

    def program(ctx):
        if ctx.rank in (2, 3):
            yield from ctx.send(dst=0, nbytes=32 * ctx.rank, tag=ctx.rank)
        elif ctx.rank == 0:
            for _ in range(2):
                src, tag, n = yield from ctx.recv(src=ANY_SOURCE, tag=ANY_TAG)
                got.append((src, tag, n))

    job.run(program)
    assert sorted(got) == [(2, 2, 64), (3, 3, 96)]


def test_sendrecv_exchanges_symmetrically():
    job = make_job()
    results = {}

    def program(ctx):
        if ctx.rank in (0, 1):
            partner = 1 - ctx.rank
            src, tag, n = yield from ctx.sendrecv(dst=partner, nbytes=4096)
            results[ctx.rank] = (src, n)

    job.run(program)
    assert results[0] == (1, 4096)
    assert results[1] == (0, 4096)


def test_zero_byte_message():
    job = make_job()
    got = []

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(dst=1, nbytes=0)
        elif ctx.rank == 1:
            _, _, n = yield from ctx.recv(src=0)
            got.append(n)

    job.run(program)
    assert got == [0]


def test_unmatched_recv_detected_as_error():
    job = make_job()

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.recv(src=1)  # never satisfied

    with pytest.raises(Exception):
        job.run(program)


def test_negative_nbytes_rejected():
    job = make_job()

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(dst=1, nbytes=-5)
        elif ctx.rank == 1:
            yield from ctx.recv(src=0)

    with pytest.raises(ValueError):
        job.run(program)


def test_negative_send_tag_rejected():
    job = make_job()

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(dst=1, nbytes=8, tag=-1)
        elif ctx.rank == 1:
            yield from ctx.recv(src=0)

    with pytest.raises(ValueError):
        job.run(program)


def test_negative_recv_tag_rejected_when_posted():
    """Sends reject negative tags, so a receive with one could never
    match: it must fail at post time, naming the tag, instead of running
    the job to the end and dying as an unmatched message."""
    job = make_job()

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.compute(1e-3)
        elif ctx.rank == 1:
            yield from ctx.recv(src=0, tag=-2)

    with pytest.raises(ValueError, match="receive tag -2"):
        job.run(program)
    assert job.env.now < 1e-3  # raised at the post, not at the job's end


def test_any_tag_receive_still_posts():
    job = make_job()
    event = job.engine.post_recv(1, 0, ANY_TAG, job.layout.world)
    job.engine.post_send(0, 1, 8, 3, job.layout.world)
    job.env.run()
    assert event.value == (0, 3, 8)


def test_waitall_accepts_one_shot_iterable():
    """waitall must materialise a generator of requests once: iterating
    it a second time for the values would see nothing."""
    job = make_job(8)
    got = {}

    def program(ctx):
        if ctx.rank == 0:
            reqs = []
            for dst in range(1, ctx.size):
                req = yield from ctx.isend(dst=dst, nbytes=64, tag=dst)
                reqs.append(req)
            got["values"] = yield from ctx.waitall(r for r in reqs)
        else:
            yield from ctx.recv(src=0, tag=ctx.rank)

    job.run(program)
    assert len(got["values"]) == 7


def _ring_exchange(n_ranks, tracer=None):
    """Zero-byte ring sendrecv among the first ``n_ranks`` of 16 ranks."""
    job = MpiJob(16, session=SimSession(network_spec=IDEAL_NET, tracer=tracer))

    def program(ctx):
        if ctx.rank < n_ranks:
            yield from ctx.sendrecv(
                dst=(ctx.rank + 1) % n_ranks, src=(ctx.rank - 1) % n_ranks,
                nbytes=0,
            )

    job.run(program)
    return job


def test_messages_are_not_processes():
    """Only rank programs are simulation processes; a message in flight
    is a chain of event callbacks."""
    tracer = RecordingTracer()
    _ring_exchange(4, tracer)
    names = {r.data["process"] for r in tracer.of_type("process.resume")}
    assert names == {f"rank{r}" for r in range(16)}


def test_event_budget_per_message():
    """A zero-byte eager exchange costs 7 events per message: the start,
    the wire latency and the two request events on the message path,
    plus the two CPU-overhead timeouts and the two-request join on the
    rank.  A message has no finish event of its own."""
    two = _ring_exchange(2).env.events_processed
    four = _ring_exchange(4).env.events_processed
    assert four - two == 2 * 7


def test_polling_exchange_resumes_its_rank_once():
    """A polling ``sendrecv`` parks its rank once: the CPU overheads post
    the requests as continuations, so 16-rank pairwise alltoalls emit
    one ``process.resume`` per message, plus one start per rank."""
    tracer = RecordingTracer()
    job = MpiJob(16, session=SimSession(tracer=tracer))

    def program(ctx):
        for _ in range(4):
            yield from ctx.alltoall(64 << 10)

    job.run(program)
    messages = job.engine.messages_sent
    resumes = len(tracer.of_type("process.resume"))
    assert messages == 4 * 16 * 15
    assert resumes / messages <= 1.05


def test_interrupted_exchange_resumes_its_rank_once():
    """Interrupting a rank parked in a ``sendrecv`` wakes it once, with
    the Interrupt; the exchange completing later does not wake it again."""
    tracer = RecordingTracer()
    job = MpiJob(8, session=SimSession(network_spec=IDEAL_NET, tracer=tracer))
    procs = {}
    log = []

    def program(ctx):
        procs[ctx.rank] = ctx.env.active_process
        if ctx.rank == 0:
            try:
                yield from ctx.sendrecv(dst=1, nbytes=1 << 20, src=1)
            except Interrupt as intr:
                log.append(("interrupted", intr.cause, ctx.env.now))
            yield ctx.env.timeout(1.0)  # outlives the exchange
            log.append(("rank0 done", ctx.env.now))
        elif ctx.rank == 1:
            yield ctx.env.timeout(50e-6)  # both requests posted by now
            procs[0].interrupt("stop")
            yield from ctx.sendrecv(dst=0, nbytes=1 << 20, src=0)
            log.append(("rank1 done", ctx.env.now < 1.0))

    job.run(program)
    assert log == [("interrupted", "stop", 50e-6), ("rank1 done", True),
                   ("rank0 done", 1.0 + 50e-6)]
    rank0 = [r for r in tracer.of_type("process.resume")
             if r.data["process"] == "rank0"]
    # Its start, the interrupt and the timeout's end: never the join.
    assert len(rank0) == 3


def test_blocking_mode_slower_but_core_sleeps():
    def run(progress):
        job = MpiJob(
            16, progress=progress, session=SimSession(network_spec=IDEAL_NET)
        )
        times = {}

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.compute(1e-3)
                yield from ctx.send(dst=8, nbytes=1 << 20)
            elif ctx.rank == 8:
                yield from ctx.recv(src=0)
                times["t"] = ctx.env.now

        result = job.run(program)
        return times["t"], result

    t_poll, r_poll = run(ProgressMode.POLLING)
    t_block, r_block = run(ProgressMode.BLOCKING)
    assert t_block > t_poll
    # The receiver slept while waiting: less energy on its core.
    core8 = r_block.job.affinity.core_of(8).core_id
    assert r_block.accountant.core_energy_j(core8) < r_poll.accountant.core_energy_j(
        core8
    )


def test_blocking_intra_node_uses_loopback():
    """Intra-node blocking messages pay network-style latency (§II-B)."""

    def one_hop(progress):
        job = MpiJob(
            16, progress=progress, session=SimSession(network_spec=IDEAL_NET)
        )
        times = {}

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(dst=1, nbytes=1 << 20)
            elif ctx.rank == 1:
                yield from ctx.recv(src=0)
                times["t"] = ctx.env.now

        job.run(program)
        return times["t"]

    assert one_hop(ProgressMode.BLOCKING) > one_hop(ProgressMode.POLLING)


def test_many_pairs_deterministic():
    def run_once():
        job = make_job(32)
        ends = {}

        def program(ctx):
            partner = ctx.rank ^ 1
            for i in range(3):
                yield from ctx.sendrecv(dst=partner, nbytes=1 << 16, tag=i)
            ends[ctx.rank] = ctx.env.now

        job.run(program)
        return ends

    assert run_once() == run_once()


def test_isend_overlaps_communication_and_compute():
    job = make_job()
    times = {}

    def program(ctx):
        if ctx.rank == 0:
            req = yield from ctx.isend(dst=8, nbytes=1 << 20)
            yield from ctx.compute(2e-3)
            yield from ctx._wait(req)
            times["overlap"] = ctx.env.now
        elif ctx.rank == 8:
            yield from ctx.recv(src=0)

    job.run(program)
    # Transfer (≈350 µs) hides inside the 2 ms compute.
    assert times["overlap"] == pytest.approx(2e-3, rel=0.05)


def test_quiescence_check_passes_on_clean_job():
    job = make_job()

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(dst=1, nbytes=64)
        elif ctx.rank == 1:
            yield from ctx.recv(src=0)

    job.run(program)
    assert job.engine.quiescent()
