import dataclasses
import socket
import subprocess
import sys
import threading
import time

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
    _unpack_array,
    create_thread_communicators,
    gather_rows,
    rank_offsets,
)
from factorfit.data_io import SubjectData
from factorfit.errors import CollectiveContractError, ConfigError, TransportError


def run_group(size, fn, timeout=30.0):
    """Run fn(comm) on `size` worker threads; returns results by rank."""
    comms = create_thread_communicators(size, timeout=timeout)
    results = [None] * size
    errors = [None] * size

    def target(rank):
        try:
            results[rank] = fn(comms[rank])
        except BaseException as exc:  # noqa: BLE001
            errors[rank] = exc
            comms[rank].abort()

    threads = [threading.Thread(target=target, args=(r,)) for r in range(size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, errors


def free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


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
        def fn(c):
            if c.rank == 1:
                return None  # never joins the barrier
            c.barrier()

        _, errors = run_group(2, fn, timeout=0.2)
        assert isinstance(errors[0], TransportError)
        assert "did not complete within 0.2 s" in str(errors[0])
        assert errors[0].rank == 1

    def test_peer_abort_is_not_a_timeout(self):
        def fn(c):
            if c.rank == 1:
                raise ValueError("rank 1 fails before the barrier")
            c.barrier()

        t0 = time.perf_counter()
        _, errors = run_group(2, fn, timeout=30.0)
        assert time.perf_counter() - t0 < 1.0
        assert isinstance(errors[0], TransportError)
        assert errors[0].rank == 1
        assert str(errors[0]) == "collective abandoned: a peer rank failed (rank 1)"
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


def waiting_for(hub, rank):
    """The frames other ranks sent ``rank`` that it has not taken yet."""
    with hub.changed:  # other ranks may be sending meanwhile
        return [frame for row in hub.boxes for frame in row[rank]]


class TestThreadHub:
    """Once every rank has returned from a collective, no frame of it is
    left in any mailbox."""

    def test_nothing_held_after_each_collective(self):
        comms = create_thread_communicators(2, timeout=10.0)
        hub = comms[0]._hub
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
                    comm.abort()

            threads = [threading.Thread(target=run, args=(c,)) for c in comms]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert waiting_for(hub, 0) == [] and waiting_for(hub, 1) == []

    def test_nothing_held_during_the_m_step(self, monkeypatch):
        """A rank's M-step runs once the broadcast of S is over: no frame
        of it, or of any earlier collective, waits for that rank. The root
        only answers a rank that has entered the collective, so nothing
        waits for rank 1 at all; rank 1 may already have sent the root its
        frames for the next round."""
        comms = create_thread_communicators(2, timeout=30.0)
        hub = comms[0]._hub
        seen = []
        m_step = srm.m_step_subject

        def checking(*args, **kwargs):
            rank = int(threading.current_thread().name.removeprefix("rank"))
            seen.append((rank, comms[rank]._seq, waiting_for(hub, rank)))
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
        assert waiting_for(hub, 0) == [] and waiting_for(hub, 1) == []
        assert sorted(rank for rank, _, _ in seen) == [0] * 6 + [1] * 6
        for rank, done, frames in seen:
            assert all(seq > done for _, seq, _ in frames)
            assert rank == 0 or frames == []

    def test_every_rank_gets_its_own_output_under_switching(self):
        """More ranks than cores and a short switch interval: each round's
        broadcast and gather reach every rank intact, and nothing is left."""
        size, rounds = 6, 150
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
                return c._hub

            results, errors = run_group(size, fn, timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [None] * size
        hub = results[0]
        assert all(waiting_for(hub, rank) == [] for rank in range(size))


class Replay(Communicator):
    """Rank ``rank`` of a group whose peers are replayed: ``gather`` keeps
    what this rank sends in ``sent`` and hands the root ``received``, the
    other ranks' packed blocks in rank order."""

    def __init__(self, rank, size, received=()):
        super().__init__(rank, size)
        self.received = list(received)
        self.sent = None

    def _gather(self, local, seq):
        self.sent = local
        return [local, *self.received] if self.rank == 0 else None


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
    pairwise = PairwiseSum(comm, lo, hi - lo, hi, rows.shape[1])
    push_rows(pairwise, rows[lo:hi])
    assert pairwise.finish() is None
    return comm.sent


def root_of(rows, n):
    """The root of n items; its stack has exactly n.bit_length() rows."""
    pairwise = PairwiseSum(Replay(0, 1), 0, 1, n, rows.shape[1])
    assert len(pairwise.nodes) == n.bit_length()
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
    # the root gathers a (rows, cols) header and no node rows
    assert len(pairwise.comm.sent) == 16
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
                spans, covered = list(root.spans), root.covered
                pushed = root.nodes[:len(spans)].copy()
                for n_cuts in range(3 if own < n else 1):
                    for cuts in combinations(range(own + 1, n), n_cuts):
                        bounds = (own, *cuts, n)  # (n, n) when the root owns all
                        parts = [blocks[b] for b in zip(bounds, bounds[1:]) if b[0] < b[1]]
                        root.nodes[:len(spans)], root.spans = pushed, list(spans)
                        root.covered = covered
                        got = root_finish(root, parts)
                        assert got.tobytes() == expected, (n, bounds[:-1])
        assert differs_from_sequential > 20

    def test_rank_ships_logarithmic_rows(self, rows):
        for lo in range(40):
            for hi in range(lo + 1, 41):
                shipped = _unpack_array(tree_block(rows, lo, hi))
                assert len(shipped) <= 2 * (hi - lo).bit_length()
        for lo in range(260):
            for n in (1, 2, 3, 7, 64, 100, 255):
                stack = PairwiseSum(Replay(1, 2), lo, n, lo + n, 0).nodes
                assert len(stack) <= 2 * n.bit_length() + 1

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

    def test_unaligned_node_is_contract_error(self, rows):
        # [1, 3) has the size of a level-1 node but not its alignment
        comm = Replay(1, 2)
        gather_rows(comm, np.concatenate(([1, 1], rows[1] + rows[2]))[None])
        with pytest.raises(CollectiveContractError, match="not a node"):
            root_sum(root_of(rows, 3), rows, 1, [comm.sent])


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
            "    pairwise = PairwiseSum(comm, lo, hi - lo, 7, 9)\n"
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
