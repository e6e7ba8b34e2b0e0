"""Message-passing collectives for serial, thread and process groups.

All inter-worker communication in the fitters goes through the three
collectives defined here, ``broadcast``, ``gather`` and ``barrier``, and
three helpers: :func:`gather_rows`, which gathers one float64 row block
per rank on the root in rank order (:func:`rank_offsets`' counts and
SRM's final noise variances), :func:`broadcast_parts`, which sends the
root's float64 arrays and scalars to every rank as one row, and
:class:`PairwiseSum`, which sums rows along one fixed pairwise tree
(both fitters' per-iteration sums). The three collectives run one star
around rank 0, written once as :meth:`Communicator._star`: an up half,
in which every other rank sends the root one frame, and an optional down
half, in which the root sends every other rank one frame.
:class:`Communicator` also holds the rank's links: connected stream
sockets that each move a frame between two ranks.

* :func:`create_thread_communicators` -- the ranks are threads of one
  process; rank 0 shares one socket pair with each other rank.
* :class:`SocketCommunicator` -- the ranks are OS processes; rank 0 listens
  on a TCP address and the others connect (star topology). Ranks learn
  their identity from the ``FACTORFIT_RANK``, ``FACTORFIT_SIZE`` and
  ``FACTORFIT_COORD`` environment variables or explicit arguments.

The ``serial`` backend, :class:`SerialCommunicator`, is a group of one:
a rank with no links, whose collectives never send or receive.

Gathered blocks arrive in ascending-rank order, never in arrival order,
so a caller that sums them in that order produces bit-identical results
on every backend. Collective calls are matched by a per-
communicator sequence number; mixing collectives across ranks is a
programming error reported as :class:`CollectiveContractError`.

Wire format (socket pairs and TCP alike): each frame is an 8-byte
little-endian unsigned payload length followed by the payload; the
payload starts with a 1-byte opcode and an 8-byte little-endian sequence
number, and its body may leave as several buffers, each uncopied. A
gather is an up half alone; a broadcast sends an empty frame up and the
matrix down, a barrier an empty frame each way. One method reads every
frame: it checks the opcode and sequence number, then a sink function
reads the body through ``read(buf)``. A frame of float64 rows (a
broadcast matrix, a :func:`gather_rows` block, a rank's
:class:`PairwiseSum` nodes) opens with its (rows, cols), which one
decoder checks against the frame's length and the expected width before
it reads a row.
"""

import os
import socket
import struct
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import CollectiveContractError, ConfigError, TransportError

__all__ = [
    "Communicator",
    "SerialCommunicator",
    "SocketCommunicator",
    "create_thread_communicators",
    "gather_rows",
    "broadcast_parts",
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
    """One rank of a group and its links to the other ranks.

    One communicator per worker; not shareable between concurrently
    executing workers. ``rank`` 0 is the root by convention. Every
    collective is the one star around the root that :meth:`_star` runs:
    up from each other rank to the root, then, for a broadcast or a
    barrier, down from the root to each other rank. A link,
    ``peers[r]``, is a connected stream socket to rank ``r``: a socket pair
    between threads of one process, or TCP between processes. A rank with
    no links is the serial case: its collectives never send or receive.
    The helpers :func:`gather_rows`, :func:`broadcast_parts` and
    :class:`PairwiseSum` build on them. A frame is written from its header
    and one or more body buffers with ``sendmsg``, the body uncopied. It is
    read by :meth:`_recv`: its head is checked first, then a sink function
    reads its body; a peer that has closed its end is reported at the next
    receive that waits on it.
    """

    def __init__(self, rank, size, peers=None, timeout=None):
        if size < 1 or not (0 <= rank < size):
            raise ConfigError(f"invalid rank/size ({rank}/{size})")
        self.rank = rank
        self.size = size
        self.timeout = timeout
        self.stats = CollectiveStats()
        self._seq = 0
        self._peers = {} if peers is None else peers

    def broadcast(self, buf):
        """Root's 2-D float64 payload on every rank (non-root may pass None).

        Nothing is copied: the root gets its payload back, as a contiguous
        float64 array (the same object when it already was one), and every
        other rank a writable, aligned view of the frame it received."""
        if self.rank == 0:
            buf = _as_payload(buf, "broadcast payload")
            data = buf.astype("<f8", copy=False).ravel()
            self._star(_OP_BCAST, down=(_DIMS.pack(*buf.shape), data))
        else:
            buf = self._star(_OP_BCAST, down=(), down_sink=_matrix)
        self.stats.bcast_calls += 1
        self.stats.bcast_bytes += buf.nbytes
        return buf

    def gather(self, *local, sink=None):
        """Collect one byte string per rank, ordered by rank, on root.

        A rank may pass its string as several buffers, which leave
        uncopied; the root's own entry is them joined. With ``sink``, the
        root's entry for rank r is what ``sink(r, n, read)`` returns for an
        n-byte string (see :meth:`_recv`), and its own entry is None."""
        body = [memoryview(b).cast("B") for b in local]
        out = self._star(_OP_GATHER, up=body, up_sink=sink)
        if self.rank == 0:
            out.insert(0, None if sink else b"".join(body))
        self.stats.gather_calls += 1
        self.stats.gather_bytes += sum(map(len, body))
        return out

    def barrier(self):
        """Return only after every rank has entered."""
        self._star(_OP_BARRIER, down=())
        self.stats.barrier_calls += 1

    def close(self):
        """Close every link; peers waiting on this rank see it disconnect."""
        for conn in self._peers.values():
            try:
                conn.close()
            except OSError:
                pass
        self._peers.clear()

    def _send(self, peer, opcode, seq, *body):
        # The header and the body leave together, without copying the body into a frame, and
        # TCP links set TCP_NODELAY: under Nagle's algorithm a small frame right behind a large
        # one waits for the receiver's delayed ACK. sendmsg may send part of the byte views.
        # Arrays come flat: memoryview cannot cast an empty 2-D view to bytes.
        body = [memoryview(b).cast("B") for b in body]
        buffers = [_LEN.pack(_HEAD.size + sum(map(len, body))) + _HEAD.pack(opcode, seq), *body]
        try:
            while buffers:
                sent = self._peers[peer].sendmsg(buffers)
                while buffers and sent >= len(buffers[0]):
                    sent -= len(buffers.pop(0))
                if buffers:
                    buffers[0] = memoryview(buffers[0])[sent:]
        except OSError as exc:
            raise TransportError(f"send failed: {exc}", rank=peer) from None

    def _recv(self, peer, opcode, seq, sink=None, conn=None):
        """The body of one frame from rank ``peer``'s link, or from ``conn``
        when the sender's rank is not known yet, as ``sink(peer, n, read)``
        returns it for an n-byte body (default: one fresh bytearray).

        A head other than ``(opcode, seq)`` raises
        :class:`CollectiveContractError` before the body is read.
        ``read(buf)`` fills a writable buffer from the link and returns it.
        A buffer that cannot be allocated raises :class:`TransportError`
        naming the peer."""
        conn = self._peers[peer] if conn is None else conn

        def read(buf):
            view = memoryview(buf).cast("B")
            while view:
                try:
                    got = conn.recv_into(view)
                except socket.timeout:
                    raise TransportError(f"no frame within {self.timeout} s", rank=peer) from None
                except OSError as exc:
                    raise TransportError(f"recv failed: {exc}", rank=peer) from None
                if not got:
                    raise TransportError("peer disconnected", rank=peer)
                view = view[got:]
            return buf

        (length,) = _LEN.unpack(read(bytearray(_LEN.size)))
        if length < _HEAD.size:
            raise TransportError(f"malformed {length}-byte frame", rank=peer)
        op, sent = _HEAD.unpack(read(bytearray(_HEAD.size)))
        if (op, sent) != (opcode, seq):
            raise CollectiveContractError(
                f"{'a peer' if peer is None else f'rank {peer}'} sent "
                f"{_OP_NAMES.get(op, op)} #{sent}, expected {_OP_NAMES[opcode]} #{seq}"
            )
        n = length - _HEAD.size
        try:
            return (sink or _fresh)(peer, n, read)
        except (MemoryError, OverflowError):
            raise TransportError(f"cannot hold a {n}-byte frame body", rank=peer) from None

    def _star(self, opcode, up=(), up_sink=None, down=None, down_sink=None):
        """Run one collective under the next sequence number, its wall time
        counted in ``stats.seconds`` even when it raises. Up: each other
        rank sends the buffers ``up`` to the root, which reads the frames in
        rank order through ``up_sink`` and returns their bodies. Down,
        unless ``down`` is None: the root then sends ``down`` to each other
        rank, which returns the body it read through ``down_sink`` (None
        without a down half)."""
        self._seq += 1
        seq, t0 = self._seq, time.perf_counter()
        try:
            if self.rank != 0:
                self._send(0, opcode, seq, *up)
                return None if down is None else self._recv(0, opcode, seq, down_sink)
            out = [self._recv(peer, opcode, seq, up_sink) for peer in range(1, self.size)]
            if down is not None:
                for peer in range(1, self.size):
                    self._send(peer, opcode, seq, *down)
            return out
        finally:
            self.stats.seconds += time.perf_counter() - t0


class SerialCommunicator(Communicator):
    """The serial backend: the only rank of a group of one, with no links."""

    def __init__(self):
        super().__init__(0, 1)


def create_thread_communicators(size, timeout=60.0):
    """Build one communicator per worker thread of an in-process group:
    rank 0 and each other rank share one socket pair (a star, as over TCP)."""
    if size < 1:
        raise ConfigError(f"a thread group needs at least one rank, got size {size}")
    links = [{} for _ in range(size)]
    for peer in range(1, size):
        links[0][peer], links[peer][0] = socket.socketpair()
        links[0][peer].settimeout(timeout)
        links[peer][0].settimeout(timeout)
    return [Communicator(rank, size, links[rank], timeout) for rank in range(size)]


def _fresh(peer, n, read):
    """The default receive sink: the whole body in one fresh buffer."""
    return read(bytearray(n))


def _hello(peer, n, read):
    """The receive sink of a connecting peer's hello: its 8-byte rank, a
    body of any other length refused before anything is allocated."""
    if n != _LEN.size:
        raise CollectiveContractError("expected hello frame")
    return read(bytearray(n))


def _dims(peer, n, read, width=None):
    """Read the (rows, cols) that open a frame of float64 rows and check
    them against the n-byte body, and the columns against ``width`` when
    given, before any row is read."""
    if n < _DIMS.size:
        raise CollectiveContractError(f"rank {peer} sent a {n}-byte frame, no row dimensions")
    rows, cols = _DIMS.unpack(read(bytearray(_DIMS.size)))
    if width is not None and cols != width:
        problem = f"{cols} columns, not {width}"
    elif n != _DIMS.size + rows * cols * 8:
        problem = f"a {n}-byte frame for {rows} rows of {cols} columns"
    elif max(rows, 1) * max(cols, 1) * 8 > sys.maxsize:
        # numpy refuses such a shape even when a dim is 0 and it holds no element
        problem = f"{rows} rows of {cols} columns, more than an array can index"
    else:
        return rows, cols
    raise CollectiveContractError(f"rank {peer} sent {problem}")


def _matrix(peer, n, read, width=None):
    """The receive sink of a frame of float64 rows: its checked dimensions,
    then its rows read into one fresh array."""
    rows, cols = _dims(peer, n, read, width)
    return read(np.empty(rows * cols, "<f8")).reshape(rows, cols)


class SocketCommunicator(Communicator):
    """TCP star topology: rank 0 accepts one connection per peer rank. A
    rendezvous that fails on any rank closes every socket it opened."""

    def __init__(self, rank, size, coord, timeout=60.0):
        super().__init__(rank, size, {}, timeout)
        host, _, port = str(coord).rpartition(":")
        if not host or not port.isdigit():
            raise ConfigError(f"coordinator address must be host:port, got {coord!r}")
        try:
            if rank > 0:
                self._connect(host, int(port), coord)
            elif size > 1:
                self._accept(host, int(port))
        except BaseException:
            self.close()
            raise

    def _accept(self, host, port):
        """Rank 0: take one link per other rank, keyed by the rank its hello names."""
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.settimeout(self.timeout)
            try:
                server.bind((host, port))
                server.listen(self.size - 1)
            except OSError as exc:
                raise TransportError(f"cannot listen on {host}:{port}: {exc}") from None
            for _ in range(self.size - 1):
                try:
                    conn, _addr = server.accept()
                except socket.timeout:
                    missing = sorted(set(range(1, self.size)) - set(self._peers))
                    raise TransportError(
                        f"ranks {missing} did not connect within {self.timeout} s"
                    ) from None
                try:
                    conn.settimeout(self.timeout)
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    body = self._recv(None, _OP_HELLO, 0, _hello, conn)
                    (peer,) = _LEN.unpack(body)
                    if not (1 <= peer < self.size) or peer in self._peers:
                        raise CollectiveContractError(f"bad hello from rank {peer}")
                except BaseException:
                    # a FIN ahead of the close: a refused peer with unread bytes
                    # here reads an end of stream, not only a reset
                    try:
                        conn.shutdown(socket.SHUT_WR)
                    except OSError:
                        pass
                    conn.close()
                    raise
                self._peers[peer] = conn

    def _connect(self, host, port, coord):
        """Rank r > 0: connect to rank 0, retrying until the timeout, and say hello."""
        deadline = time.monotonic() + self.timeout
        while 0 not in self._peers:
            try:
                self._peers[0] = socket.create_connection((host, port), timeout=self.timeout)
            except OSError:
                if time.monotonic() >= deadline:
                    raise TransportError(
                        f"could not reach coordinator at {coord} within {self.timeout} s",
                        rank=0,
                    ) from None
                time.sleep(0.05)
        self._peers[0].setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._send(0, _OP_HELLO, 0, _LEN.pack(self.rank))

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


def gather_rows(comm, rows):
    """Collect each rank's n_r x m float64 row block on root, in rank order.

    Root receives the list of blocks, its own a read-only view of ``rows``
    and every other one a fresh array (nothing is concatenated); other
    ranks receive ``None``. Every rank owns a contiguous slice of the
    global items and :func:`rank_offsets` numbers them in rank order, so
    concatenating the blocks gives the rows in global item order. A frame
    whose rows are not m wide or do not fill it raises
    :class:`CollectiveContractError` naming its rank before a row is read.
    """
    rows = _as_payload(rows, "gather_rows payload")
    width = rows.shape[1]
    blocks = comm.gather(
        _DIMS.pack(*rows.shape), rows.astype("<f8", copy=False).ravel(),
        sink=lambda peer, n, read: _matrix(peer, n, read, width),
    )
    if blocks is not None:
        blocks[0] = rows.view()
        blocks[0].flags.writeable = False
    return blocks


def rank_offsets(comm, local_count):
    """Exchange per-rank item counts; return (this rank's offset, total).

    Lets every rank derive the global index of its locally held items
    without any rank knowing the full layout up front.
    """
    blocks = gather_rows(comm, [[local_count]])
    parts = None
    if comm.rank == 0:
        counts = np.concatenate(blocks)[:, 0]
        parts = [np.concatenate(([0.0], np.cumsum(counts)[:-1])), counts.sum()]
    offsets, total = broadcast_parts(comm, parts, [(comm.size,), ()])
    return int(offsets[comm.rank]), int(total)


def broadcast_parts(comm, parts, shapes):
    """The root's float64 ``parts`` on every rank, as one 1 x n row.

    Every rank passes the ``shapes`` it expects, ``()`` for a scalar (other
    ranks pass anything as ``parts``), and gets views into the row, a float
    for each scalar: the row the root packed, or the frame another rank
    received, so no rank holds a second copy. A row of another length raises
    :class:`CollectiveContractError` naming the rank and both counts.
    """
    row = np.concatenate([np.ravel(p) for p in parts])[None] if comm.rank == 0 else None
    row = comm.broadcast(row)[0]
    sizes = [int(np.prod(shape)) for shape in shapes]
    if row.size != sum(sizes):
        raise CollectiveContractError(
            f"rank {comm.rank} expects {sum(sizes)} broadcast values, got {row.size}"
        )
    views = np.split(row, np.cumsum(sizes)[:-1])
    return [v.reshape(shape) if shape else float(v[0]) for v, shape in zip(views, shapes)]


class PairwiseSum:
    """Sum one float64 row per item over the items [0, n_total) of all ranks.

    A rank owns a contiguous run of the items from ``offset`` on, numbered
    as :func:`rank_offsets` numbers them. Per round it fills the row that
    :meth:`row` hands it and calls :meth:`push`, once per item in order,
    then every rank calls :meth:`finish`. The rows are summed along one
    fixed pairwise tree over [0, n_total), so the sums are bit-identical
    for every split of the items over ranks and their error grows with
    log n_total (Higham, SIAM J. Sci. Comput. 14(4), 1993). Each rank
    keeps a stack of complete subtrees, one row of [start, level, sums...]
    each, allocated when :meth:`row` needs it and released when it merges
    into its left sibling, except that the last row released in a round
    is kept as the next one :meth:`row` hands out. A rank ships its stack,
    at most about 2 log2 n rows for its n items, to the root from the
    rows' own buffers; the root ships none, reads each node row of each
    rank, in rank order, straight into the stack row it will occupy and
    merges it before it reads the next, so it never holds more than
    n_total.bit_length() + 1 rows however many ranks there are. It then
    folds its stack right to left.
    """

    def __init__(self, comm, offset, n_total, width):
        self.comm, self.offset, self.n_total = comm, offset, n_total
        self.node_width = 2 + width  # [start, level, sums...]
        # spare: the right row of the last merge, which _free_row hands out
        self.rows, self.spans, self.covered, self.spare = [], [], offset, None

    def row(self):
        """The row to fill with the next item's term, a view into the stack."""
        return self._free_row()[2:]

    def _free_row(self):
        # the row above the stack's nodes, allocated when first needed
        if len(self.rows) == len(self.spans):
            row, self.spare = self.spare, None
            self.rows.append(np.empty(self.node_width) if row is None else row)
        return self.rows[-1]

    def push(self, level=0):
        """Merge the filled row into the stack as the sum over the next item,
        or over the next 2**level items when the root merges a received node.

        A node sums the items [start, start + 2**level), start a multiple of
        2**level; ``spans`` holds each stack row's (start, level). While the
        stack's top is its left sibling, the two merge in place, left + right,
        like a binary counter's carry, and the right row is released (the
        last one kept as the spare), so every node holds the same bits
        wherever it was formed."""
        rows, spans = self.rows, self.spans
        start, size = self.covered, 1 << level
        self.covered += size
        while spans and spans[-1] == (start - size, level) and start % (2 * size) == size:
            spans.pop()
            self.spare = rows.pop()
            rows[-1][2:] += self.spare[2:]
            start -= size
            level += 1
            size *= 2
        spans.append((start, level))

    def finish(self):
        """End the round: the sums on the root, a view of the one row left
        after the fold, which the stack no longer holds; None elsewhere. The
        stack is empty again on every rank. Nodes that do not tile
        [0, n_total) exactly raise :class:`CollectiveContractError` on the
        root."""
        rows, spans = self.rows, self.spans
        del rows[len(spans):]  # a row handed out but never pushed
        try:
            if self.comm.rank != 0:
                for node, span in zip(rows, spans):
                    node[:2] = span
                self.comm.gather(_DIMS.pack(len(rows), self.node_width), *rows)
                return None
            self.comm.gather(_DIMS.pack(0, self.node_width), sink=self._merge)
            if self.covered != self.n_total:
                raise CollectiveContractError(
                    f"sums cover items [0, {self.covered}) of {self.n_total}; "
                    "every item must be covered exactly once"
                )
            while len(rows) > 1:
                right = rows.pop()
                rows[-1][2:] += right[2:]
            return rows[0][2:]
        finally:
            self.rows, self.spans, self.covered, self.spare = [], [], self.offset, None

    def _merge(self, rank, n, read):
        """The root's receive sink for rank ``rank``'s n-byte frame: its
        checked dimensions, then each node row read into the stack's free
        row and pushed before the next is read. A node's (start, level)
        must be integers with 0 <= level < n_total.bit_length()."""
        n_rows, _ = _dims(rank, n, read, self.node_width)
        levels = self.n_total.bit_length()
        most = 2 * levels + 1
        if n_rows > most:
            raise CollectiveContractError(
                f"rank {rank} sent {n_rows} node rows, more than the {most} any rank ships"
            )
        for _ in range(n_rows):
            start, level = map(float, read(self._free_row())[:2])
            if not (start.is_integer() and level.is_integer() and 0 <= level < levels):
                raise CollectiveContractError(
                    f"rank {rank} sent node header ({start}, {level}): "
                    f"not two integers with 0 <= level < {levels}"
                )
            start, level, covered = int(start), int(level), self.covered
            end = start + 2 ** level
            if start > covered:
                problem = f"items [{covered}, {start}) are missing"
            elif start < covered:
                problem = f"items [{start}, {min(end, covered)}) are summed twice"
            elif start % 2 ** level:
                problem = "that range is not a node of the pairwise tree"
            elif end > self.n_total:
                problem = f"there are only {self.n_total} items"
            else:
                self.push(level)
                continue
            raise CollectiveContractError(
                f"rank {rank} sent the sum over items [{start}, {end}) "
                f"after [0, {covered}): {problem}; "
                "every item must be covered exactly once"
            )
