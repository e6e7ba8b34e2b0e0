"""Message-passing collectives over pluggable backends.

All inter-worker communication in the fitters goes through the three
collectives defined here, ``broadcast``, ``gather`` and ``barrier``, through
:func:`gather_rows`, which gathers one float64 row block per rank on the root
in rank order, and through :class:`PairwiseSum`, which sums rows along one
fixed pairwise tree. Each collective is one star algorithm around rank 0,
written once in :class:`Communicator`. A transport only moves one frame from
one rank to another, and two carry the frames:

* :class:`ThreadCommunicator` -- the ranks are threads of one process; a
  frame waits in the receiver's mailbox for its sender until taken.
* :class:`SocketCommunicator` -- the ranks are OS processes; rank 0 listens
  on a TCP address and the others connect (star topology). Ranks learn
  their identity from the ``FACTORFIT_RANK``, ``FACTORFIT_SIZE`` and
  ``FACTORFIT_COORD`` environment variables or explicit arguments.

The ``serial`` backend, :class:`SerialCommunicator`, is a group of one with
no transport: a star without peers never sends or receives.

Gathered blocks arrive in ascending-rank order, never in arrival order,
so a caller that sums them in that order produces bit-identical results
on every backend. Collective calls are matched by a per-
communicator sequence number; mixing collectives across ranks is a
programming error reported as :class:`CollectiveContractError`.

Wire format (sockets): each frame is an 8-byte little-endian unsigned
payload length followed by the payload; the payload starts with a
1-byte opcode and an 8-byte little-endian sequence number. Every
collective opens with a frame from each non-root rank to the root, which
checks its opcode and sequence number; broadcast's opening frame is empty.
"""

import os
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import CollectiveContractError, ConfigError, TransportError

__all__ = [
    "Communicator",
    "SerialCommunicator",
    "ThreadCommunicator",
    "SocketCommunicator",
    "create_thread_communicators",
    "gather_rows",
    "PairwiseSum",
    "rank_offsets",
    "ENV_RANK",
    "ENV_SIZE",
    "ENV_COORD",
]

ENV_RANK = "FACTORFIT_RANK"
ENV_SIZE = "FACTORFIT_SIZE"
ENV_COORD = "FACTORFIT_COORD"

_OP_NAMES = {0: "hello", 2: "broadcast", 3: "gather", 4: "barrier"}
_OP_HELLO, _OP_BCAST, _OP_GATHER, _OP_BARRIER = _OP_NAMES

_LEN = struct.Struct("<Q")
_HEAD = struct.Struct("<BQ")
_DIMS = struct.Struct("<QQ")


@dataclass
class CollectiveStats:
    """Logical per-rank communication accounting, backend independent.

    ``*_bytes`` count the payload this rank contributes to (gather) or
    receives from (broadcast) each collective, regardless of
    whether the backend physically moves bytes. ``seconds`` is wall time
    spent inside collective calls.
    """

    bcast_calls: int = 0
    bcast_bytes: int = 0
    gather_calls: int = 0
    gather_bytes: int = 0
    barrier_calls: int = 0
    seconds: float = field(default=0.0)


def _as_payload(a, name="payload"):
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise CollectiveContractError(f"{name} must be a 2-D float64 matrix")
    return out


class Communicator:
    """Rank/size handle exposing the collectives.

    One communicator per worker; not shareable between concurrently
    executing workers. ``rank`` 0 is the root by convention. Every
    collective is a star around the root, written once here; a transport
    subclass only moves one frame between two ranks, with
    ``_send(peer, opcode, seq, body)`` and ``_recv(peer) -> (opcode, seq,
    body)``. A rank with no peers never calls either.
    """

    def __init__(self, rank, size):
        if size < 1 or not (0 <= rank < size):
            raise ConfigError(f"invalid rank/size ({rank}/{size})")
        self.rank = rank
        self.size = size
        self.stats = CollectiveStats()
        self._seq = 0

    def _next_seq(self):
        self._seq += 1
        return self._seq

    def broadcast(self, buf):
        """Copy root's payload to every rank (non-root may pass None)."""
        if self.rank == 0:
            buf = _as_payload(buf, "broadcast payload")
        t0 = time.perf_counter()
        try:
            out = self._broadcast(buf, self._next_seq())
        finally:
            self.stats.seconds += time.perf_counter() - t0
        self.stats.bcast_calls += 1
        self.stats.bcast_bytes += out.nbytes
        return out

    def gather(self, local):
        """Collect one byte string per rank, ordered by rank, on root."""
        local = bytes(local)
        t0 = time.perf_counter()
        try:
            out = self._gather(local, self._next_seq())
        finally:
            self.stats.seconds += time.perf_counter() - t0
        self.stats.gather_calls += 1
        self.stats.gather_bytes += len(local)
        return out

    def barrier(self):
        """Return only after every rank has entered."""
        t0 = time.perf_counter()
        try:
            self._barrier(self._next_seq())
        finally:
            self.stats.seconds += time.perf_counter() - t0
        self.stats.barrier_calls += 1

    def close(self):
        pass

    def abort(self):
        """Unblock peers waiting on this rank (used on worker failure)."""
        self.close()

    def _recv_expect(self, peer, opcode, seq):
        op, got_seq, body = self._recv(peer)
        if op != opcode or got_seq != seq:
            raise CollectiveContractError(
                f"rank {peer} sent {_OP_NAMES.get(op, op)} #{got_seq}, "
                f"expected {_OP_NAMES[opcode]} #{seq}"
            )
        return body

    def _broadcast(self, buf, seq):
        if self.rank != 0:
            self._send(0, _OP_BCAST, seq, b"")
            return _unpack_array(self._recv_expect(0, _OP_BCAST, seq)).copy()
        peers = range(1, self.size)
        for peer in peers:
            self._recv_expect(peer, _OP_BCAST, seq)
        if peers:
            body = _pack_array(buf)
            for peer in peers:
                self._send(peer, _OP_BCAST, seq, body)
        return buf.copy()

    def _gather(self, local, seq):
        if self.rank != 0:
            self._send(0, _OP_GATHER, seq, local)
            return None
        out = [local]
        for peer in range(1, self.size):
            out.append(self._recv_expect(peer, _OP_GATHER, seq))
        return out

    def _barrier(self, seq):
        if self.rank != 0:
            self._send(0, _OP_BARRIER, seq, b"")
            self._recv_expect(0, _OP_BARRIER, seq)
            return
        for peer in range(1, self.size):
            self._recv_expect(peer, _OP_BARRIER, seq)
        for peer in range(1, self.size):
            self._send(peer, _OP_BARRIER, seq, b"")


class SerialCommunicator(Communicator):
    """The serial backend: the only rank of a group of one, so it has no
    transport and its collectives never send or receive."""

    def __init__(self):
        super().__init__(0, 1)


class _ThreadHub:
    """Mailboxes of one group of thread communicators: ``boxes[a][b]``
    holds the frames rank a sent rank b that b has not taken yet."""

    def __init__(self, size, timeout):
        self.size = size
        self.timeout = timeout
        self.boxes = [[deque() for _ in range(size)] for _ in range(size)]
        self.changed = threading.Condition()
        self.aborted = []  # ranks in the order they aborted


class ThreadCommunicator(Communicator):
    """One rank of an in-process thread group."""

    def __init__(self, rank, hub):
        super().__init__(rank, hub.size)
        self._hub = hub

    def _send(self, peer, opcode, seq, body):
        hub = self._hub
        with hub.changed:
            hub.boxes[self.rank][peer].append((opcode, seq, body))
            hub.changed.notify_all()

    def _recv(self, peer):
        hub, box = self._hub, self._hub.boxes[peer][self.rank]
        with hub.changed:
            if not hub.changed.wait_for(lambda: box or hub.aborted, hub.timeout):
                raise TransportError(
                    f"collective did not complete within {hub.timeout} s "
                    "(a worker is missing or stuck)", rank=peer
                )
            if not box:
                raise TransportError("collective abandoned: a peer rank failed",
                                     rank=hub.aborted[0])
            return box.popleft()

    def abort(self):
        hub = self._hub
        with hub.changed:
            hub.aborted.append(self.rank)
            hub.changed.notify_all()


def create_thread_communicators(size, timeout=60.0):
    """Build one communicator per worker thread of an in-process group."""
    hub = _ThreadHub(size, timeout)
    return [ThreadCommunicator(r, hub) for r in range(size)]


def _pack_array(a):
    return b"".join((_DIMS.pack(*a.shape), a.astype("<f8", copy=False)))


def _unpack_array(body):
    """Read-only view of a packed matrix (it keeps ``body`` alive, no copy)."""
    rows, cols = _DIMS.unpack_from(body, 0)
    data = np.frombuffer(body, dtype="<f8", offset=_DIMS.size, count=rows * cols)
    data.flags.writeable = False
    return data.reshape(rows, cols)


class SocketCommunicator(Communicator):
    """TCP star topology: rank 0 accepts one connection per peer rank."""

    def __init__(self, rank, size, coord, timeout=60.0):
        super().__init__(rank, size)
        self.timeout = timeout
        host, _, port = str(coord).rpartition(":")
        if not host or not port.isdigit():
            raise ConfigError(f"coordinator address must be host:port, got {coord!r}")
        port = int(port)
        self._peers = {}
        if size == 1:
            return
        if rank == 0:
            server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.settimeout(timeout)
            server.bind((host, port))
            server.listen(size - 1)
            try:
                for _ in range(size - 1):
                    conn, _addr = server.accept()
                    conn.settimeout(timeout)
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    op, seq, body = self._recv_raw(conn, rank_hint=None)
                    if op != _OP_HELLO:
                        raise CollectiveContractError("expected hello frame")
                    peer = _LEN.unpack(body)[0]
                    if not (1 <= peer < size) or peer in self._peers:
                        raise CollectiveContractError(f"bad hello from rank {peer}")
                    self._peers[peer] = conn
            except socket.timeout:
                missing = sorted(set(range(1, size)) - set(self._peers))
                raise TransportError(
                    f"ranks {missing} did not connect within {timeout} s"
                ) from None
            finally:
                server.close()
        else:
            conn = None
            deadline = time.monotonic() + timeout
            while True:
                try:
                    conn = socket.create_connection((host, port), timeout=timeout)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise TransportError(
                            f"could not reach coordinator at {coord} within {timeout} s",
                            rank=0,
                        ) from None
                    time.sleep(0.05)
            conn.settimeout(timeout)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._peers[0] = conn
            self._send(0, _OP_HELLO, 0, _LEN.pack(rank))

    @classmethod
    def from_env(cls, env=None):
        """Build from FACTORFIT_RANK / _SIZE / _COORD; a missing one, or a
        non-integer rank or size, raises :class:`ConfigError`."""
        env = os.environ if env is None else env
        missing = [k for k in (ENV_RANK, ENV_SIZE, ENV_COORD) if k not in env]
        if missing:
            raise ConfigError(f"sockets backend needs {', '.join(missing)} in the environment")
        try:
            rank, size = int(env[ENV_RANK]), int(env[ENV_SIZE])
        except ValueError:
            raise ConfigError(f"{ENV_RANK} and {ENV_SIZE} must be integers") from None
        return cls(rank, size, env[ENV_COORD])

    def _send(self, peer, opcode, seq, body):
        # One buffer and one sendall per frame, and TCP_NODELAY: under Nagle's algorithm
        # a small frame right behind a large one waits for the receiver's delayed ACK.
        frame = b"".join((_LEN.pack(_HEAD.size + len(body)), _HEAD.pack(opcode, seq), body))
        try:
            self._peers[peer].sendall(frame)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}", rank=peer) from None

    def _recv(self, peer):
        return self._recv_raw(self._peers[peer], peer)

    def _recv_raw(self, conn, rank_hint):
        def read(n):
            buf = bytearray(n)
            view = memoryview(buf)
            while view:
                try:
                    got = conn.recv_into(view)
                except socket.timeout:
                    raise TransportError(
                        f"no frame within {self.timeout} s", rank=rank_hint
                    ) from None
                except OSError as exc:
                    raise TransportError(f"recv failed: {exc}", rank=rank_hint) from None
                if not got:
                    raise TransportError("peer disconnected", rank=rank_hint)
                view = view[got:]
            return buf

        (length,) = _LEN.unpack(read(_LEN.size))
        if length < _HEAD.size:
            raise TransportError(f"malformed {length}-byte frame", rank=rank_hint)
        op, seq = _HEAD.unpack(read(_HEAD.size))
        return op, seq, read(length - _HEAD.size)

    def close(self):
        for conn in self._peers.values():
            try:
                conn.close()
            except OSError:
                pass
        self._peers.clear()


def gather_rows(comm, rows):
    """Collect each rank's n_r x m float64 row block on root, in rank order.

    Root receives the list of blocks as read-only views of the received
    bytes (nothing is concatenated); other ranks receive ``None``. Every
    rank owns a contiguous slice of the global items and
    :func:`rank_offsets` numbers them in rank order, so concatenating the
    blocks gives the rows in global item order. Raises
    :class:`CollectiveContractError` naming the first rank whose row width
    differs from rank 0's.
    """
    rows = _as_payload(rows, "gather_rows payload")
    blobs = comm.gather(_pack_array(rows))
    if blobs is None:
        return None
    blocks = [_unpack_array(blob) for blob in blobs]
    for r, block in enumerate(blocks):
        if block.shape[1] != rows.shape[1]:
            raise CollectiveContractError(
                f"gather_rows width mismatch: rank {r} sent {block.shape[1]} "
                f"columns, rank 0 sent {rows.shape[1]}"
            )
    return blocks


def rank_offsets(comm, local_count):
    """Exchange per-rank item counts; return (this rank's offset, total).

    Lets every rank derive the global index of its locally held items
    without any rank knowing the full layout up front.
    """
    blocks = gather_rows(comm, [[local_count]])
    if comm.rank == 0:
        counts = np.concatenate(blocks)[:, 0]
        offsets = np.concatenate(([0.0], np.cumsum(counts)[:-1]))
        table = np.vstack([offsets, counts])
    else:
        table = None
    table = comm.broadcast(table)
    return int(table[0, comm.rank]), int(table[1].sum())


class PairwiseSum:
    """Sum one float64 row per item over the items [0, n_total) of all ranks.

    A rank owns the items [offset, offset + count), numbered as
    :func:`rank_offsets` numbers them. Per round it fills the row that
    :meth:`row` hands it and calls :meth:`push`, once per item in order,
    then every rank calls :meth:`finish`. The rows are summed along one
    fixed pairwise tree over [0, n_total), so the sums are bit-identical
    for every split of the items over ranks and their error grows with
    log n_total (Higham, SIAM J. Sci. Comput. 14(4), 1993). A rank ships
    its stack of complete subtrees, at most about 2 log2 count rows of
    [start, level, sums...], to the root; the root ships none, merges them
    into its own stack of n_total.bit_length() rows and folds it right to
    left.
    """

    def __init__(self, comm, offset, count, n_total, width):
        self.comm, self.offset, self.n_total = comm, offset, n_total
        # a dry run on a width-0 stack sizes it; 2 bit_length + 1 rows suffice
        first, n_merged = (0, n_total) if comm.rank == 0 else (offset, count)
        self.nodes = np.empty((2 * n_merged.bit_length() + 1, 2))
        self.spans, self.covered, rows = [], first, 0
        for _ in range(n_merged):
            rows = max(rows, len(self.spans) + 1)
            self.push()
        self.nodes = np.empty((rows, 2 + width))
        self.spans, self.covered = [], offset

    def row(self):
        """The row to fill with the next item's term, a view into the stack."""
        return self.nodes[len(self.spans), 2:]

    def push(self, level=0):
        """Merge the filled row into the stack as the sum over the next item,
        or over the next 2**level items when the root merges a received node.

        A node sums the items [start, start + 2**level), start a multiple of
        2**level; ``spans`` holds each stack row's (start, level). While the
        stack's top is its left sibling, the two merge in place, left + right,
        like a binary counter's carry, so every node holds the same bits
        wherever it was formed."""
        nodes, spans = self.nodes, self.spans
        start, size = self.covered, 1 << level
        self.covered += size
        while spans and spans[-1] == (start - size, level) and start % (2 * size) == size:
            spans.pop()
            nodes[len(spans), 2:] += nodes[len(spans) + 1, 2:]
            start -= size
            level += 1
            size *= 2
        spans.append((start, level))

    def finish(self):
        """End the round: the sums on the root (a view into its stack, valid until
        the next :meth:`push`), else None. Nodes that do not tile [0, n_total)
        exactly raise :class:`CollectiveContractError` on the root."""
        shipped = 0 if self.comm.rank == 0 else len(self.spans)
        if shipped:
            self.nodes[:shipped, :2] = self.spans
        blocks = gather_rows(self.comm, self.nodes[:shipped])
        if blocks is None:
            self.spans, self.covered = [], self.offset
            return None
        for rank, block in enumerate(blocks):
            for node in block:
                start, level, covered = int(node[0]), int(node[1]), self.covered
                end = start + 2 ** level
                if start > covered:
                    problem = f"items [{covered}, {start}) are missing"
                elif start < covered:
                    problem = f"items [{start}, {min(end, covered)}) are summed twice"
                elif level < 0 or start % 2 ** level:
                    problem = "that range is not a node of the pairwise tree"
                elif end > self.n_total:
                    problem = f"there are only {self.n_total} items"
                else:
                    self.row()[:] = node[2:]
                    self.push(level)
                    continue
                raise CollectiveContractError(
                    f"rank {rank} sent the sum over items [{start}, {end}) "
                    f"after [0, {covered}): {problem}; "
                    "every item must be covered exactly once"
                )
        if self.covered != self.n_total:
            raise CollectiveContractError(
                f"sums cover items [0, {self.covered}) of {self.n_total}; "
                "every item must be covered exactly once"
            )
        for d in range(len(self.spans) - 2, -1, -1):
            self.nodes[d, 2:] += self.nodes[d + 1, 2:]
        self.spans, self.covered = [], self.offset
        return self.nodes[0, 2:]
