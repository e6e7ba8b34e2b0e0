import dataclasses
import io
import select
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from factorfit import srm
from factorfit.collectives import (
    ENV_COORD,
    ENV_RANK,
    ENV_SIZE,
    Communicator,
    PairwiseSum,
    SerialCommunicator,
    SocketCommunicator,
    broadcast_parts,
    create_thread_communicators,
    gather_rows,
    rank_offsets,
)
from factorfit.data_io import SubjectData
from factorfit.errors import CollectiveContractError, ConfigError, TransportError


def run_threads(comms, fn):
    """Run fn(comm) on one thread per communicator; returns results and
    errors by rank. A failing rank closes its links."""
    results = [None] * len(comms)
    errors = [None] * len(comms)

    def target(rank):
        try:
            results[rank] = fn(comms[rank])
        except BaseException as exc:  # noqa: BLE001
            errors[rank] = exc
            comms[rank].close()

    threads = [threading.Thread(target=target, args=(r,)) for r in range(len(comms))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, errors


def run_group(size, fn, timeout=30.0):
    """Run fn(comm) on `size` worker threads; returns results by rank."""
    comms = create_thread_communicators(size, timeout=timeout)
    try:
        return run_threads(comms, fn)
    finally:
        for comm in comms:
            comm.close()


def free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def dial(coord, timeout=10.0):
    """A raw TCP link to the coordinator, retried until it listens."""
    host, _, port = coord.rpartition(":")
    deadline = time.monotonic() + timeout
    while True:
        try:
            return socket.create_connection((host, int(port)), timeout=timeout)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


def run_socket_group(size, fn, timeout=15.0):
    coord = f"127.0.0.1:{free_port()}"
    results = [None] * size
    errors = [None] * size

    def target(rank):
        comm = None
        try:
            comm = SocketCommunicator(rank, size, coord, timeout=timeout)
            results[rank] = fn(comm)
        except BaseException as exc:  # noqa: BLE001
            errors[rank] = exc
        finally:
            if comm is not None:
                comm.close()

    threads = [threading.Thread(target=target, args=(r,)) for r in range(size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, errors


class RecordingLink:
    """A link that records each ``sendmsg``'s buffers and byte count, and
    keeps in ``wire`` every byte that left through it."""

    def __init__(self, conn):
        self.conn, self.sent, self.buffers, self.wire = conn, [], [], bytearray()

    def sendmsg(self, buffers):
        self.buffers.extend(buffers)
        self.sent.append(self.conn.sendmsg(buffers))
        self.wire += b"".join(buffers)[: self.sent[-1]]
        return self.sent[-1]

    def __getattr__(self, name):
        return getattr(self.conn, name)


def wire_frame(opcode, seq, body=b""):
    """A frame as it goes on the wire: its length, opcode, sequence number, body."""
    return struct.pack("<QBQ", 9 + len(body), opcode, seq) + body


def recording_pair():
    """A root whose link to rank 1 records what it sends, rank 1, and the link."""
    a, b = socket.socketpair()
    a.settimeout(10.0)
    b.settimeout(10.0)
    link = RecordingLink(a)
    return Communicator(0, 2, {1: link}, 10.0), Communicator(1, 2, {0: b}, 10.0), link


def send_claim(comm, length, body=b""):
    """Send rank ``comm.rank``'s next gather frame as a head that claims a
    ``length``-byte body, followed by ``body`` only."""
    comm._peers[0].sendall(struct.pack("<QBQ", 9 + length, 3, comm._seq + 1) + body)


class TestGatherRows:
    def test_serial_returns_local_block(self):
        local = np.arange(6.0).reshape(2, 3)
        blocks = gather_rows(SerialCommunicator(), local)
        assert len(blocks) == 1
        assert blocks[0].tobytes() == local.tobytes()
        assert not blocks[0].flags.writeable

    def test_three_ranks_rank_order(self):
        results, errors = run_group(
            3, lambda c: gather_rows(c, np.full((c.rank + 1, 2), float(c.rank)))
        )
        assert all(e is None for e in errors)
        assert [b.shape for b in results[0]] == [(1, 2), (2, 2), (3, 2)]
        assert [float(b[0, 0]) for b in results[0]] == [0.0, 1.0, 2.0]
        assert results[1] is None and results[2] is None

    def test_blocks_bit_identical_across_backends(self):
        rng = np.random.default_rng(0)
        # wide rows span many socket reads
        parts = [rng.standard_normal((1 + r % 2, 50_000)) for r in range(4)]
        for runner in (run_group, run_socket_group):
            results, errors = runner(4, lambda c: gather_rows(c, parts[c.rank]))
            assert all(e is None for e in errors)
            assert [b.tobytes() for b in results[0]] == [p.tobytes() for p in parts]
            assert all(b is None for b in results[1:])

    def test_rank_sends_its_rows_uncopied(self):
        """Rank 1's frame body leaves from its own rows; the root reads the
        same bytes and counts the same 16-byte header plus rows."""
        a, b = socket.socketpair()
        a.settimeout(10.0)
        b.settimeout(10.0)
        link = RecordingLink(b)
        root, rank1 = Communicator(0, 2, {1: a}, 10.0), Communicator(1, 2, {0: link}, 10.0)
        rows = np.random.default_rng(5).standard_normal((3, 4))
        blocks = []
        reader = threading.Thread(
            target=lambda: blocks.append(gather_rows(root, np.zeros((1, 4))))
        )
        try:
            reader.start()
            assert gather_rows(rank1, rows) is None
            reader.join(10.0)
        finally:
            root.close()
            rank1.close()
        assert not reader.is_alive()
        assert blocks[0][1].tobytes() == rows.tobytes()
        assert any(np.shares_memory(np.frombuffer(b, np.uint8), rows) for b in link.buffers)
        assert rank1.stats.gather_bytes == 16 + rows.nbytes

    def test_width_mismatch_is_contract_error(self):
        def fn(c):
            return gather_rows(c, np.zeros((2, 2 if c.rank == 0 else 3)))

        for runner in (run_group, run_socket_group):
            _, errors = runner(2, fn)
            assert isinstance(errors[0], CollectiveContractError)
            assert "rank 1 sent 3 columns" in str(errors[0])


class TestBroadcast:
    def test_serial_identity(self):
        comm = SerialCommunicator()
        buf = np.eye(3)
        assert np.array_equal(comm.broadcast(buf), buf)

    def test_three_ranks_identity(self):
        results, errors = run_group(
            3, lambda c: c.broadcast(np.eye(2) if c.rank == 0 else None)
        )
        assert all(e is None for e in errors)
        for out in results:
            assert np.array_equal(out, np.eye(2))

    def test_bytes_equal_across_ranks(self):
        rng = np.random.default_rng(1)
        payload = rng.standard_normal((4, 9))
        for runner in (run_group, run_socket_group):
            results, errors = runner(
                4, lambda c: c.broadcast(payload if c.rank == 0 else None)
            )
            assert all(e is None for e in errors)
            blobs = {out.tobytes() for out in results}
            assert len(blobs) == 1
            assert blobs.pop() == payload.tobytes()


    def test_root_sends_the_payload_uncopied(self):
        """The frame body leaves from the root's own array, not a joined copy."""
        root, rank1, link = recording_pair()
        payload = np.random.default_rng(3).standard_normal((5, 7))
        received = []
        reader = threading.Thread(target=lambda: received.append(rank1.broadcast(None)))
        try:
            reader.start()
            root.broadcast(payload)
            reader.join(10.0)
        finally:
            root.close()
            rank1.close()
        assert not reader.is_alive()
        assert received[0].tobytes() == payload.tobytes()
        assert any(np.shares_memory(np.frombuffer(b, np.uint8), payload) for b in link.buffers)


    def program(self, comm):
        payload = np.random.default_rng(4).standard_normal((6, 5))
        out = comm.broadcast(payload if comm.rank == 0 else None)
        return payload, out

    def test_empty_matrix_round_trips(self):
        """A matrix with no rows, or with rows of no columns, travels as its
        dimensions alone, broadcast and gathered."""
        for shape in ((0, 3), (3, 0)):

            def fn(c):
                out = c.broadcast(np.zeros(shape) if c.rank == 0 else None)
                return out.shape, gather_rows(c, np.zeros(shape))

            for runner in (run_group, run_socket_group):
                results, errors = runner(2, fn)
                assert errors == [None, None], runner.__name__
                assert [got for got, _ in results] == [shape, shape]
                assert [b.shape for b in results[0][1]] == [shape, shape]

    def test_every_rank_holds_the_matrix_once(self):
        """The root gets its own payload back; another rank gets a writable,
        aligned view of the frame it received, not a copy of it."""
        runs = [([self.program(SerialCommunicator())], [None])]
        runs += [run_group(3, self.program), run_socket_group(2, self.program)]
        for results, errors in runs:
            assert all(e is None for e in errors)
            (payload, root_out), *others = results
            assert root_out is payload
            for payload, out in others:
                assert out.flags.writeable and out.flags.aligned
                assert out.tobytes() == payload.tobytes()
                assert not out.flags.owndata


class TestBroadcastParts:
    PARTS = [
        np.random.default_rng(5).standard_normal((2, 3)),
        np.random.default_rng(6).standard_normal((2, 3, 3)),
        float(np.random.default_rng(7).standard_normal()),
    ]
    SHAPES = [(2, 3), (2, 3, 3), ()]

    def program(self, comm):
        return broadcast_parts(comm, self.PARTS if comm.rank == 0 else None, self.SHAPES)

    def test_round_trip_byte_exact_on_every_backend(self):
        runs = [([self.program(SerialCommunicator())], [None])]
        runs += [run_group(3, self.program), run_socket_group(2, self.program)]
        for results, errors in runs:
            assert all(e is None for e in errors)
            for got in results:
                a, b, scalar = got
                assert (a.shape, b.shape) == ((2, 3), (2, 3, 3))
                assert a.tobytes() == self.PARTS[0].tobytes()
                assert b.tobytes() == self.PARTS[1].tobytes()
                assert type(scalar) is float
                assert np.float64(scalar).tobytes() == np.float64(self.PARTS[2]).tobytes()

    def test_parts_are_writable_views(self):
        """Each rank's parts are writable views: of the row the root packed,
        which shares nothing with the root's parts, or of a received frame."""
        runs = [([self.program(SerialCommunicator())], [None])]
        runs += [run_group(3, self.program), run_socket_group(2, self.program)]
        for results, errors in runs:
            assert all(e is None for e in errors)
            for a, b, _ in results:
                assert a.flags.writeable and b.flags.writeable
                assert not (a.flags.owndata or b.flags.owndata)
                assert not any(np.shares_memory(x, p) for x in (a, b) for p in self.PARTS[:2])

    def test_shape_mismatch_is_contract_error(self):
        def fn(c):
            shapes = self.SHAPES if c.rank == 0 else [(2, 4), ()]
            return broadcast_parts(c, self.PARTS if c.rank == 0 else None, shapes)

        results, errors = run_group(2, fn)
        assert errors[0] is None and len(results[0]) == 3
        assert isinstance(errors[1], CollectiveContractError)
        assert str(errors[1]) == "rank 1 expects 9 broadcast values, got 25"


class TestGather:
    def test_serial_singleton(self):
        assert SerialCommunicator().gather(b"x") == [b"x"]

    def test_rank_order(self):
        payloads = [b"a", b"b", b"c"]
        results, errors = run_group(3, lambda c: c.gather(payloads[c.rank]))
        assert all(e is None for e in errors)
        assert results[0] == payloads
        assert results[1] is None

    def test_round_trip_structures(self):
        rng = np.random.default_rng(2)
        blocks = [rng.standard_normal((3 + r, 3)) for r in range(4)]
        for runner in (run_group, run_socket_group):
            results, errors = runner(4, lambda c: c.gather(blocks[c.rank].tobytes()))
            assert all(e is None for e in errors)
            for r, blob in enumerate(results[0]):
                rebuilt = np.frombuffer(blob).reshape(blocks[r].shape)
                assert np.array_equal(rebuilt, blocks[r])


class TestBarrier:
    def test_serial_immediate(self):
        SerialCommunicator().barrier()

    def test_waits_for_slow_rank(self):
        t_release = [None, None]

        def fn(c):
            if c.rank == 1:
                time.sleep(0.05)
            c.barrier()
            t_release[c.rank] = time.perf_counter()
            return None

        start = time.perf_counter()
        _, errors = run_group(2, fn)
        assert all(e is None for e in errors)
        assert all(t - start >= 0.05 for t in t_release)

    def test_repeated_no_deadlock(self):
        def fn(c):
            for _ in range(100):
                c.barrier()

        _, errors = run_group(4, fn, timeout=30.0)
        assert all(e is None for e in errors)

    def test_failed_barrier_counts_its_wait(self):
        """A barrier that times out waiting on a silent peer still counts
        the time it waited in ``stats.seconds``, and no call."""
        comms = create_thread_communicators(2, timeout=0.2)
        try:
            with pytest.raises(TransportError, match="no frame within 0.2 s"):
                comms[0].barrier()
        finally:
            for comm in comms:
                comm.close()
        assert comms[0].stats.seconds >= 0.2
        assert comms[0].stats.barrier_calls == 0

    def test_socket_barrier(self):
        def fn(c):
            for _ in range(5):
                c.barrier()

        _, errors = run_socket_group(2, fn)
        assert all(e is None for e in errors)


class TestContractAndTransport:
    def test_mixed_collectives_detected(self):
        def fn(c):
            if c.rank == 0:
                return c.gather(b"x")
            return c.broadcast(None)

        _, errors = run_group(2, fn, timeout=5.0)
        assert any(isinstance(e, CollectiveContractError) for e in errors)
        # every collective opens with a frame to the root, which checks it at once
        t0 = time.perf_counter()
        _, errors = run_socket_group(2, fn, timeout=3.0)
        assert time.perf_counter() - t0 < 1.0
        assert isinstance(errors[0], CollectiveContractError)
        assert "rank 1 sent broadcast #1, expected gather #1" in str(errors[0])

    def test_missing_rank_times_out(self):
        for runner in (run_group, run_socket_group):
            root_done = threading.Event()

            def fn(c):
                if c.rank == 1:
                    root_done.wait(10.0)  # never joins the barrier, keeps its link open
                    return None
                try:
                    c.barrier()
                finally:
                    root_done.set()

            _, errors = runner(2, fn, timeout=0.2)
            assert isinstance(errors[0], TransportError), runner.__name__
            assert "no frame within 0.2 s" in str(errors[0])
            assert errors[0].rank == 1

    def test_peer_abort_is_not_a_timeout(self):
        def fn(c):
            if c.rank == 1:
                raise ValueError("rank 1 fails before the barrier")
            c.barrier()

        for runner in (run_group, run_socket_group):
            t0 = time.perf_counter()
            _, errors = runner(2, fn, timeout=30.0)
            assert time.perf_counter() - t0 < 1.0
            assert isinstance(errors[0], TransportError), runner.__name__
            assert errors[0].rank == 1
            assert str(errors[0]) == "peer disconnected (rank 1)"
            assert isinstance(errors[1], ValueError)

    def test_socket_peer_disconnect_names_rank(self):
        def fn(c):
            if c.rank == 1:
                c.close()
                return None
            return gather_rows(c, np.ones((2, 2)))

        results, errors = run_socket_group(2, fn, timeout=2.0)
        err = errors[0]
        assert isinstance(err, TransportError)
        assert err.rank == 1

    @pytest.mark.parametrize("matrix", [False, True], ids=["bytes", "matrix"])
    def test_frame_larger_than_the_send_buffer_arrives_whole(self, matrix):
        """A small SO_SNDBUF forces sendmsg to send part of the frame at a
        time; a 2-D body is counted in bytes, not rows."""
        sender, receiver, link = recording_pair()
        link.conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        rng = np.random.default_rng(41)
        body = rng.standard_normal((384, 1024)) if matrix else rng.bytes(3 << 20)
        frames = []
        reader = threading.Thread(target=lambda: frames.append(receiver._recv(0, 3, 7)))
        try:
            reader.start()
            sender._send(1, 3, 7, body)
            reader.join(10.0)
        finally:
            sender.close()
            receiver.close()
        assert not reader.is_alive()
        assert len(link.sent) > 1 and sum(link.sent) == 17 + (3 << 20)
        (got,) = frames
        assert bytes(got) == bytes(memoryview(body).cast("B"))

    def test_busy_coordinator_port_is_a_transport_error(self):
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            coord = "127.0.0.1:%d" % busy.getsockname()[1]
            with pytest.raises(TransportError, match=f"cannot listen on {coord}: "):
                SocketCommunicator(0, 2, coord, timeout=1.0)

    def test_env_config_roundtrip(self):
        port = free_port()
        env = {
            ENV_RANK: "0",
            ENV_SIZE: "1",
            ENV_COORD: f"127.0.0.1:{port}",
        }
        comm = SocketCommunicator.from_env(env=env)
        assert (comm.rank, comm.size) == (0, 1)
        assert np.array_equal(gather_rows(comm, np.ones((1, 1)))[0], np.ones((1, 1)))
        comm.close()

    def test_env_config_errors(self):
        with pytest.raises(ConfigError, match=f"needs {ENV_SIZE}, {ENV_COORD} in the env"):
            SocketCommunicator.from_env(env={ENV_RANK: "0"})
        with pytest.raises(ConfigError, match="must be integers"):
            SocketCommunicator.from_env(env={ENV_RANK: "0", ENV_SIZE: "two", ENV_COORD: "h:1"})

    def test_failed_rendezvous_closes_the_links_it_accepted(self):
        """Rank 1 connects and rank 2 never does: rank 0 raises and closes
        rank 1's link, so rank 1 reads a disconnect rather than a timeout."""
        coord = f"127.0.0.1:{free_port()}"
        joined = []
        rank1 = threading.Thread(
            target=lambda: joined.append(SocketCommunicator(1, 3, coord, timeout=5.0))
        )
        rank1.start()
        try:
            # ``info`` keeps the failed constructor's frames, and so its sockets, alive
            with pytest.raises(TransportError, match=r"ranks \[2\] did not connect") as info:
                SocketCommunicator(0, 3, coord, timeout=1.0)
            rank1.join(10.0)
            assert not rank1.is_alive()
            with pytest.raises(TransportError, match="peer disconnected"):
                joined[0]._recv(0, 4, 1)
            assert info.value.rank is None
        finally:
            rank1.join(10.0)
            for comm in joined:
                comm.close()

    def test_short_hello_is_a_contract_error(self):
        """A hello whose body is not one 8-byte rank is refused, and its link closed."""
        coord = f"127.0.0.1:{free_port()}"
        errors = []

        def root():
            try:
                SocketCommunicator(0, 2, coord, timeout=5.0)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=root)
        thread.start()
        link = dial(coord)
        try:
            link.sendall(struct.pack("<Q", 9 + 4) + struct.pack("<BQ", 0, 0) + b"\x01\0\0\0")
            thread.join(10.0)
            assert not thread.is_alive()
            assert [type(exc) for exc in errors] == [CollectiveContractError]
            assert str(errors[0]) == "expected hello frame"
            assert link.recv(1) == b""
        finally:
            thread.join(10.0)
            link.close()

    def test_oversized_hello_is_refused_before_its_body_is_allocated(self):
        """A hello head that claims a 16 MB body fails at once, as a contract
        error, with nothing of the claimed size allocated."""
        coord = f"127.0.0.1:{free_port()}"
        links = []

        def client():
            links.append(dial(coord))
            links[0].sendall(struct.pack("<QBQ", 9 + (16 << 20), 0, 0))

        socket.getaddrinfo("127.0.0.1", None)  # load the host-name codec untraced
        thread = threading.Thread(target=client)
        thread.start()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            start = time.monotonic()
            with pytest.raises(CollectiveContractError) as info:
                SocketCommunicator(0, 2, coord, timeout=5.0)
            elapsed = time.monotonic() - start
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
            thread.join(10.0)
            for link in links:
                link.close()
        assert str(info.value) == "expected hello frame"
        assert elapsed < 5.0
        assert peak < 64 * 1024, peak

    @pytest.mark.parametrize("length", [1 << 62, (1 << 64) - 10], ids=["memory", "overflow"])
    def test_unallocatable_body_names_the_peer(self, length):
        """A gather frame whose claimed body cannot be held is reported as
        the peer's transport fault, not a bare MemoryError."""

        def fn(c):
            if c.rank == 1:
                return send_claim(c, length)
            return c.gather(b"")

        _, errors = run_group(2, fn)
        assert isinstance(errors[0], TransportError), errors
        assert errors[0].rank == 1
        assert f"cannot hold a {length}-byte frame body" in str(errors[0])

    @pytest.mark.parametrize("size", [0, -2])
    def test_thread_group_without_ranks_is_refused(self, size):
        with pytest.raises(ConfigError, match=f"got size {size}$"):
            create_thread_communicators(size)


def take(link, n):
    """Read and drop the next ``n`` bytes on a raw link."""
    while n:
        got = link.recv(n)
        assert got, "link closed"
        n -= len(got)


class TestMalformedRowFrames:
    """A frame of float64 rows whose length does not match its (rows, cols),
    that is too short to hold them, or whose shape no array can take, is
    refused as a contract error naming its sender, on the root's gather and
    on another rank's broadcast. Each frame comes with the row width the
    root gathers."""

    FRAMES = {
        "more-rows-than-sent": (
            struct.pack("<QQ", 3, 2) + bytes(32), 2, "a 48-byte frame for 3 rows of 2 columns"
        ),
        "no-dims": (bytes(8), 2, "a 8-byte frame, no row dimensions"),
        "trailing-bytes": (
            struct.pack("<QQ", 2, 2) + bytes(40), 2, "a 56-byte frame for 2 rows of 2 columns"
        ),
        # fits its 16 bytes, but numpy refuses the shape
        "zero-width-past-an-array": (
            struct.pack("<QQ", 2**60, 0), 0,
            f"{2**60} rows of 0 columns, more than an array can index",
        ),
    }

    @pytest.mark.parametrize("runner", [run_group, run_socket_group])
    @pytest.mark.parametrize("frame", FRAMES)
    def test_gather_rows_names_the_sender(self, frame, runner):
        body, width, problem = self.FRAMES[frame]

        def fn(c):
            if c.rank == 1:
                return send_claim(c, len(body), body)
            return gather_rows(c, np.zeros((2, width)))

        _, errors = runner(2, fn)
        assert isinstance(errors[0], CollectiveContractError), errors
        assert str(errors[0]) == f"rank 1 sent {problem}"

    @pytest.mark.parametrize("runner", [run_group, run_socket_group])
    @pytest.mark.parametrize("frame", FRAMES)
    def test_broadcast_names_the_sender(self, frame, runner):
        body, _, problem = self.FRAMES[frame]

        def fn(c):
            if c.rank == 1:
                return c.broadcast(None)
            take(c._peers[1], 17)  # rank 1's empty opening frame
            c._peers[1].sendall(struct.pack("<QBQ", 9 + len(body), 2, 1) + body)
            return None

        _, errors = runner(2, fn)
        assert errors[0] is None
        assert isinstance(errors[1], CollectiveContractError), errors
        assert str(errors[1]) == f"rank 0 sent {problem}"


class TestWireFrames:
    """The exact bytes each rank sends: every collective opens with a frame
    from each other rank to the root, and broadcast and barrier close with
    one from the root to each other rank."""

    @pytest.mark.parametrize("runner", [run_group, run_socket_group])
    def test_two_ranks(self, runner):
        def fn(c):
            c._peers = {peer: RecordingLink(link) for peer, link in c._peers.items()}
            out = c.broadcast(np.array([[1.0, 2.0], [3.0, 4.0]]) if c.rank == 0 else None)
            got = [out.tolist(), c.gather(b"abc"), c.barrier()]
            blocks = gather_rows(c, np.full((c.rank + 1, 2), c.rank + 0.5))
            got.append(blocks and [b.tolist() for b in blocks])
            return got, {peer: bytes(link.wire) for peer, link in c._peers.items()}

        results, errors = runner(2, fn)
        assert errors == [None, None]
        matrix = [[1.0, 2.0], [3.0, 4.0]]
        assert results[0][0] == [matrix, [b"abc", b"abc"], None, [[[0.5, 0.5]], [[1.5, 1.5]] * 2]]
        assert results[1][0] == [matrix, None, None, None]
        assert results[0][1] == {
            1: wire_frame(2, 1, struct.pack("<QQ4d", 2, 2, 1.0, 2.0, 3.0, 4.0))
            + wire_frame(4, 3)
        }
        assert results[1][1] == {
            0: wire_frame(2, 1) + wire_frame(3, 2, b"abc") + wire_frame(4, 3)
            + wire_frame(3, 4, struct.pack("<QQ4d", 2, 2, 1.5, 1.5, 1.5, 1.5))
        }

    @pytest.mark.parametrize("runner", [run_group, run_socket_group])
    def test_pairwise_sum_round(self, runner):
        """Rank 1 owns items [1, 4) of 4 and ships one gather frame: its
        nodes over [1, 2) and [2, 4), each row opened by its (start, level).
        The root ships nothing."""
        rows = np.array([[0.5, 1.0], [1.5, 2.0], [2.5, 4.0], [3.5, 8.0]])

        def fn(c):
            c._peers = {peer: RecordingLink(link) for peer, link in c._peers.items()}
            lo, hi = [(0, 1), (1, 4)][c.rank]
            pairwise = PairwiseSum(c, lo, 4, 2)
            for row in rows[lo:hi]:
                pairwise.row()[:] = row
                pairwise.push()
            sums = pairwise.finish()
            wire = {peer: bytes(link.wire) for peer, link in c._peers.items()}
            return None if sums is None else sums.tolist(), wire

        results, errors = runner(2, fn)
        assert errors == [None, None]
        assert results[0] == ([8.0, 15.0], {1: b""})
        assert results[1] == (None, {
            0: wire_frame(3, 1, struct.pack("<QQ8d", 2, 4, 1, 0, 1.5, 2.0, 2, 1, 6.0, 12.0))
        })


class TestStatsAndOffsets:
    def test_logical_byte_accounting(self):
        comm = SerialCommunicator()
        gather_rows(comm, np.zeros((3, 4)))
        comm.broadcast(np.zeros((2, 2)))
        comm.gather(b"12345")
        # gather_rows ships a 16-byte (rows, cols) header before the rows
        assert comm.stats.gather_bytes == 16 + 3 * 4 * 8 + 5
        assert comm.stats.bcast_bytes == 2 * 2 * 8
        assert comm.stats.gather_calls == 2
        assert comm.stats.bcast_calls == 1

    def test_ledger_identical_across_backends(self):
        """One program leaves the same counts and bytes on every rank of
        every backend: the ledger is logical, not what the wire moved."""

        def program(comm):
            gather_rows(comm, np.ones((3, 4)))
            comm.broadcast(np.zeros((2, 2)) if comm.rank == 0 else None)
            comm.gather(b"12345")
            comm.barrier()
            ledger = dataclasses.asdict(comm.stats)
            del ledger["seconds"]
            return ledger

        serial = program(SerialCommunicator())
        assert serial == {
            "bcast_calls": 1, "bcast_bytes": 2 * 2 * 8,
            "gather_calls": 2, "gather_bytes": (16 + 3 * 4 * 8) + 5,
            "barrier_calls": 1,
        }
        for runner in (run_group, run_socket_group):
            results, errors = runner(2, program)
            assert errors == [None, None]
            assert results == [serial, serial], runner.__name__

    def test_rank_offsets(self):
        counts = [2, 3, 1]

        def fn(c):
            return rank_offsets(c, counts[c.rank])

        results, errors = run_group(3, fn)
        assert all(e is None for e in errors)
        assert results == [(0, 6), (2, 6), (5, 6)]


def waiting_for(comm):
    """The frames other ranks sent ``comm``'s rank that it has not read yet,
    as (opcode, seq, body), peeked from its sockets without taking them."""
    links = list(comm._peers.values())
    readable, _, _ = select.select(links, [], [], 0)
    frames = []
    for link in readable:
        data = link.recv(1 << 20, socket.MSG_PEEK)  # b"" once the peer has closed
        while data:
            (length,) = struct.unpack_from("<Q", data)
            opcode, seq = struct.unpack_from("<BQ", data, 8)
            frames.append((opcode, seq, bytes(data[17:8 + length])))
            data = data[8 + length:]
    return frames


class TestThreadHub:
    """Once every rank has returned from a collective, no frame of it is
    left unread on any rank's socket pairs."""

    def test_nothing_held_after_each_collective(self):
        comms = create_thread_communicators(2, timeout=10.0)
        payload = np.ones((3, 4))
        collectives = [
            lambda c: c.broadcast(payload if c.rank == 0 else None),
            lambda c: c.gather(b"x" * 8),
            lambda c: gather_rows(c, payload),
            lambda c: c.barrier(),
        ]
        for collective in collectives:
            errors = []

            def run(comm):
                try:
                    collective(comm)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    comm.close()

            threads = [threading.Thread(target=run, args=(c,)) for c in comms]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert waiting_for(comms[0]) == [] and waiting_for(comms[1]) == []
        for comm in comms:
            comm.close()

    def test_nothing_held_during_the_m_step(self, monkeypatch):
        """A rank's M-step runs once the broadcast of S is over: no frame
        of it, or of any earlier collective, waits for that rank. The root
        only answers a rank that has entered the collective, so nothing
        waits for rank 1 at all; rank 1 may already have sent the root its
        frames for the next round."""
        comms = create_thread_communicators(2, timeout=30.0)
        seen = []
        m_step = srm.m_step_subject

        def checking(*args, **kwargs):
            rank = int(threading.current_thread().name.removeprefix("rank"))
            seen.append((rank, comms[rank]._seq, waiting_for(comms[rank])))
            return m_step(*args, **kwargs)

        monkeypatch.setattr(srm, "m_step_subject", checking)
        rng = np.random.default_rng(40)
        subjects = [SubjectData(f"s{i}", rng.standard_normal((12, 9))) for i in range(4)]
        cfg = srm.SrmConfig(k=2, iterations=3)
        results = [None, None]

        def run(rank):
            results[rank] = srm.fit(subjects[2 * rank:2 * rank + 2], cfg, comms[rank])

        threads = [threading.Thread(target=run, args=(r,), name=f"rank{r}") for r in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
        assert all(model is not None for model in results)
        assert waiting_for(comms[0]) == [] and waiting_for(comms[1]) == []
        for comm in comms:
            comm.close()
        assert sorted(rank for rank, _, _ in seen) == [0] * 6 + [1] * 6
        for rank, done, frames in seen:
            assert all(seq > done for _, seq, _ in frames)
            assert rank == 0 or frames == []

    def test_every_rank_gets_its_own_output_under_switching(self):
        """More ranks than cores and a short switch interval: each round's
        broadcast and gather reach every rank intact, and nothing is left."""
        size, rounds = 6, 150
        comms = create_thread_communicators(size, timeout=30.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def fn(c):
                for i in range(rounds):
                    got = c.broadcast(np.full((1, 2), float(i)) if c.rank == 0 else None)
                    assert got.tolist() == [[float(i), float(i)]]
                    blobs = c.gather(bytes([c.rank, i]))
                    assert blobs == ([bytes([r, i]) for r in range(size)] if c.rank == 0
                                     else None)

            _, errors = run_threads(comms, fn)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [None] * size
        assert all(waiting_for(comm) == [] for comm in comms)
        for comm in comms:
            comm.close()


class Replay(Communicator):
    """Rank ``rank`` of a group whose peers are replayed: a collective keeps
    what this rank sends up in ``sent`` and has the root read ``received``,
    the other ranks' packed blocks in rank order, as gather frames on
    links that hold them."""

    def __init__(self, rank, size, received=()):
        super().__init__(rank, size)
        self.received = list(received)
        self.sent = None

    def _star(self, opcode, up=(), up_sink=None, down=None, down_sink=None):
        self.sent = b"".join(up)
        if self.rank != 0:
            return None
        self._peers = {
            peer: Frames(wire_frame(3, self._seq + 1, blob))
            for peer, blob in enumerate(self.received, 1)
        }
        return super()._star(opcode, up, up_sink, down, down_sink)


class Frames:
    """A link whose receives read ``data``."""

    def __init__(self, data):
        self.recv_into = io.BytesIO(data).readinto


class CountingSum(PairwiseSum):
    """A pairwise sum that keeps the most rows it held at a push: its
    nodes and the free row being pushed."""

    most = 0

    def push(self, level=0):
        self.most = max(self.most, len(self.nodes) + 1)
        super().push(level)


def pairwise_reference(rows):
    """The summation tree written recursively: one complete subtree per
    set bit of N, largest first, each summed as left half + right half,
    then folded right to left."""

    def subtree(lo, size):
        if size == 1:
            return rows[lo]
        half = size // 2
        return subtree(lo, half) + subtree(lo + half, half)

    sums, lo = [], 0
    for bit in reversed(range(len(rows).bit_length())):
        if len(rows) >> bit & 1:
            sums.append(subtree(lo, 1 << bit))
            lo += 1 << bit
    total = sums[-1]
    for part in reversed(sums[:-1]):
        total = part + total
    return total


def push_rows(pairwise, rows):
    for row in rows:
        pairwise.row()[:] = row
        pairwise.push()


def tree_block(rows, lo, hi):
    """The packed node rows a rank owning items [lo, hi) ships."""
    comm = Replay(1, 2)
    pairwise = PairwiseSum(comm, lo, hi, rows.shape[1])
    push_rows(pairwise, rows[lo:hi])
    assert pairwise.finish() is None
    return comm.sent


def root_of(rows, n):
    """The root of n items; it holds no row before a round."""
    pairwise = CountingSum(Replay(0, 1), 0, n, rows.shape[1])
    assert pairwise.nodes == [] and pairwise.free is None
    return pairwise


def root_sum(pairwise, rows, own, blocks):
    """The root's side of one round: it owns items [0, own), and ``blocks``
    are the other ranks' shipments."""
    push_rows(pairwise, rows[:own])
    return root_finish(pairwise, blocks)


def root_finish(pairwise, blocks):
    """The root's round after it pushed its own items."""
    pairwise.comm = Replay(0, 1 + len(blocks), blocks)
    sums = pairwise.finish()
    # the root gathers a (rows, cols) header and no node rows; its nodes,
    # with the free row being read, never held more than n.bit_length() + 1
    # rows, and it holds none after the round
    assert len(pairwise.comm.sent) == 16
    assert pairwise.most <= pairwise.n_total.bit_length() + 1
    assert pairwise.nodes == [] and pairwise.free is None
    return sums


class TestPairwiseSum:
    @pytest.fixture(scope="class")
    def rows(self):
        # magnitudes spread over 1e-9..1e9, so the order of additions shows
        rng = np.random.default_rng(27)
        return rng.standard_normal((40, 5)) * 10.0 ** rng.uniform(-9, 9, (40, 1))

    def test_every_split_matches_pairwise_reference(self, rows):
        """N = 1..40, every contiguous split over 1-4 ranks, same bytes."""
        from itertools import combinations

        blocks = {
            (lo, hi): tree_block(rows, lo, hi)
            for lo in range(1, 40) for hi in range(lo + 1, 41)
        }
        differs_from_sequential = 0
        for n in range(1, 41):
            expected = pairwise_reference(rows[:n]).tobytes()
            differs_from_sequential += expected != np.add.accumulate(rows[:n])[-1].tobytes()
            root = root_of(rows, n)
            # the root owns [0, own) and pushes it once; each split of
            # [own, n) over up to 3 more ranks restarts from that stack
            for own in range(1, n + 1):
                push_rows(root, rows[:own])
                covered = root.covered
                pushed = [node.copy() for node in root.nodes]
                for n_cuts in range(3 if own < n else 1):
                    for cuts in combinations(range(own + 1, n), n_cuts):
                        bounds = (own, *cuts, n)  # (n, n) when the root owns all
                        parts = [blocks[b] for b in zip(bounds, bounds[1:]) if b[0] < b[1]]
                        root.nodes = [node.copy() for node in pushed]
                        root.covered = covered
                        got = root_finish(root, parts)
                        assert got.tobytes() == expected, (n, bounds[:-1])
        assert differs_from_sequential > 20

    def test_rank_ships_logarithmic_rows(self, rows):
        for lo in range(40):
            for hi in range(lo + 1, 41):
                (shipped,) = struct.unpack_from("<Q", tree_block(rows, lo, hi))
                assert shipped <= 2 * (hi - lo).bit_length()
        for lo in range(260):
            for n in (1, 2, 3, 7, 64, 100, 255):
                pairwise = CountingSum(Replay(1, 2), lo, lo + n, 0)
                push_rows(pairwise, np.empty((n, 0)))
                assert pairwise.most <= 2 * n.bit_length() + 1

    @pytest.mark.parametrize("spans, n, message", [
        ([(0, 2), (3, 5)], 5, r"rank 1 .* items \[2, 3\) are missing"),
        ([(0, 3), (2, 5)], 5, r"rank 1 .* items \[2, 3\) are summed twice"),
        ([(0, 4), (0, 4)], 8, r"rank 1 .* items \[0, 4\) are summed twice"),
        ([(0, 2), (2, 4)], 5, r"cover items \[0, 4\) of 5"),
        ([(0, 4), (4, 8)], 6, r"rank 1 .* \[4, 8\) .* only 6 items"),
    ])
    def test_bad_tiling_is_contract_error(self, rows, spans, n, message):
        (_, own), *others = spans
        parts = [tree_block(rows, lo, hi) for lo, hi in others]
        with pytest.raises(CollectiveContractError, match=message):
            root_sum(root_of(rows, n), rows, own, parts)

    @pytest.mark.parametrize("n_rows, cols, length, message", [
        (1 << 34, 11, 16 + (1 << 34) * 88, "sent 17179869184 node rows, more than the 5 any rank ships"),
        (1, 11, 1 << 40, "sent a 1099511627776-byte frame for 1 rows of 11 columns"),
        (1, 12, 16 + 96, "sent 12 columns, not 11"),
        (0, 0, 8, "sent a 8-byte frame, no row dimensions"),
    ], ids=["rows", "length", "width", "short"])
    def test_frame_is_checked_against_its_dims_before_any_row(self, n_rows, cols, length, message):
        """The root checks a peer's row dimensions against the frame length,
        the row width and the most rows a rank ships before it reads a row."""

        def fn(c):
            pairwise = PairwiseSum(c, c.rank, 2, 9)
            pairwise.row()[:] = 1.0
            pairwise.push()
            if c.rank == 1:
                return send_claim(c, length, struct.pack("<QQ", n_rows, cols))
            return pairwise.finish()

        _, errors = run_group(2, fn)
        assert isinstance(errors[0], CollectiveContractError), errors
        assert str(errors[0]) == f"rank 1 {message}"

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 8, 40])
    def test_a_round_reuses_the_row_its_last_merge_freed(self, n):
        """Of the rows one round hands out, only 1 + n // 2 are new: each
        merge's right row serves the next push, and no row outlives the
        round."""
        pairwise = PairwiseSum(SerialCommunicator(), 0, n, 3)
        handed = []
        for _ in range(3):
            seen = []  # holding every row keeps ids from being reused
            for i in range(n):
                pairwise.row()[:] = i
                if not any(pairwise.free is r for r in seen):
                    seen.append(pairwise.free)
                pairwise.push()
            assert pairwise.finish().tolist() == [n * (n - 1) / 2] * 3
            assert pairwise.nodes == [] and pairwise.free is None
            handed.append(len(seen))
        assert handed == [1 + n // 2] * 3

    @pytest.mark.parametrize("size", [2, 4, 8, 16])
    def test_root_memory_does_not_grow_with_ranks(self, size):
        """With one item per rank, the root's traced peak inside ``finish``
        is at most n_total.bit_length() + 1 node rows: it merges each rank's
        node as it reads it instead of holding every rank's frame."""
        width = 5000

        def fn(c):
            pairwise = PairwiseSum(c, c.rank, size, width)
            pairwise.row()[:] = c.rank
            pairwise.push()
            c.barrier()
            if c.rank:
                return pairwise.finish()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                sums = pairwise.finish()
                return sums, tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        results, errors = run_group(size, fn)
        assert errors == [None] * size
        sums, peak = results[0]
        assert np.all(sums == sum(range(size)))
        assert peak <= (size.bit_length() + 1) * (2 + width) * 8 + 16 * 1024, peak

    def test_unaligned_node_is_contract_error(self, rows):
        # [1, 3) has the size of a level-1 node but not its alignment
        comm = Replay(1, 2)
        gather_rows(comm, np.concatenate(([1, 1], rows[1] + rows[2]))[None])
        with pytest.raises(CollectiveContractError, match="not a node"):
            root_sum(root_of(rows, 3), rows, 1, [comm.sent])

    @pytest.mark.parametrize("start, level", [
        (np.nan, 0), (np.inf, 0), (-np.inf, 0), (1.5, 0),
        (1, 0.5), (1, -1), (1, np.nan), (1, 2),
    ])
    def test_node_header_must_be_two_integers_on_a_level(self, start, level):
        """A node whose (start, level) is not two integers with
        0 <= level < n_total.bit_length() is refused, naming its rank."""
        _, errors = run_group(2, lambda c: ship_node_header(c, start, level))
        assert isinstance(errors[0], CollectiveContractError), errors
        assert str(errors[0]) == (
            f"rank 1 sent node header ({float(start)}, {float(level)}): "
            "not two integers with 0 <= level < 2"
        )

    def test_huge_level_is_refused_before_its_range_is_formed(self, cli_env):
        """A level of 1e18 is refused at once; forming 2 ** level would not
        end, so the group runs in a child process that a timeout stops."""
        child = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from test_collectives import run_group, ship_node_header\n"
            "_, errors = run_group(2, lambda c: ship_node_header(c, 1, 1e18))\n"
            "print(type(errors[0]).__name__, errors[0])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", child, str(Path(__file__).parent)],
            env=cli_env, capture_output=True, text=True, timeout=30,
        )
        assert done.stdout == (
            "CollectiveContractError rank 1 sent node header (1.0, 1e+18): "
            "not two integers with 0 <= level < 2\n"
        ), done.stderr


def ship_node_header(comm, start, level):
    """One round of a 2-item sum, one item per rank, in which rank 1 ships
    its node under the header (start, level) instead of (1, 0)."""
    pairwise = PairwiseSum(comm, comm.rank, 2, 3)
    pairwise.row()[:] = 1.0
    pairwise.push()
    if comm.rank == 1:
        pairwise.nodes[-1][:2] = start, level
    return pairwise.finish()


def run_two_processes(script, cli_env):
    """Run ``script`` as socket ranks 0 and 1 of 2 OS processes; returns
    rank 0's standard output after both exit cleanly."""
    port = free_port()
    procs = []
    for rank in range(2):
        env = dict(cli_env)
        env[ENV_RANK] = str(rank)
        env[ENV_SIZE] = "2"
        env[ENV_COORD] = f"127.0.0.1:{port}"
        procs.append(
            subprocess.Popen(
                [sys.executable, str(script)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        )
    outs = [p.communicate(timeout=60) for p in procs]
    assert all(p.returncode == 0 for p in procs), outs
    return outs[0][0]


class TestSubprocessSockets:
    def test_two_os_processes(self, tmp_path, cli_env):
        script = tmp_path / "worker.py"
        script.write_text(
            "import numpy as np\n"
            "from factorfit.collectives import SocketCommunicator, gather_rows\n"
            "comm = SocketCommunicator.from_env()\n"
            "out = gather_rows(comm, np.full((comm.rank + 1, 2), float(comm.rank + 1)))\n"
            "if comm.rank == 0:\n"
            "    assert [b.tolist() for b in out] == [[[1.0, 1.0]], [[2.0, 2.0]] * 2], out\n"
            "    print('GATHER-OK')\n"
            "comm.barrier()\n"
            "comm.close()\n"
        )
        assert "GATHER-OK" in run_two_processes(script, cli_env)

    def test_pairwise_sum_matches_serial(self, tmp_path, cli_env):
        # rank 0 owns items [0, 3) of 7; rank 1 ships nodes [3, 4), [4, 6), [6, 7)
        script = tmp_path / "worker.py"
        script.write_text(
            "import numpy as np\n"
            "from factorfit.collectives import PairwiseSum, SerialCommunicator, SocketCommunicator\n"
            "rng = np.random.default_rng(31)\n"
            "rows = rng.standard_normal((7, 9)) * 10.0 ** rng.uniform(-9, 9, (7, 1))\n"
            "def pairwise_sum(comm, lo, hi):\n"
            "    pairwise = PairwiseSum(comm, lo, 7, 9)\n"
            "    for row in rows[lo:hi]:\n"
            "        pairwise.row()[:] = row\n"
            "        pairwise.push()\n"
            "    return pairwise.finish()\n"
            "comm = SocketCommunicator.from_env()\n"
            "sums = pairwise_sum(comm, *[(0, 3), (3, 7)][comm.rank])\n"
            "if comm.rank == 0:\n"
            "    assert sums.tobytes() == pairwise_sum(SerialCommunicator(), 0, 7).tobytes()\n"
            "    assert comm.stats.gather_bytes == 16\n"
            "    print('TREE-OK')\n"
            "else:\n"
            "    assert sums is None\n"
            "    assert comm.stats.gather_bytes == 16 + 3 * (2 + 9) * 8\n"
            "comm.close()\n"
        )
        assert "TREE-OK" in run_two_processes(script, cli_env)
