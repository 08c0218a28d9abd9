"""MPI-like communicator for simulated ranks.

One :class:`Comm` is bound to each rank.  ``send`` is buffered/eager (the
sender is only charged its injection overhead, like ``MPI_Isend`` + DMA);
``recv`` and ``probe`` are *generator* methods, so rank programs call them
with ``yield from``::

    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send(1, {"hello": "world"}, tag=7)
        else:
            msg = yield from ctx.comm.recv(source=0, tag=7)

Collectives (``bcast``, ``gather``, ``allgather``, ``reduce``, ``allreduce``,
``barrier``, ``alltoall``) are built from point-to-point operations on a
reserved tag space; as in MPI, every rank must invoke the same collectives
in the same order.  ``bcast`` uses a binomial tree, so its critical path
grows with ``log2(p)``.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Generator

import numpy as np

from ..util.errors import CommError
from ..util.sizes import HEADER_BYTES, payload_nbytes
from .costmodel import NetworkProfile
from .message import ANY, Message
from .scheduler import Scheduler
from .virtualtime import VirtualClock

__all__ = ["Comm", "SubComm", "ANY"]

#: User tags must stay below this; collectives use the space above it.
MAX_USER_TAG = 1 << 30
#: Sub-communicator collectives use a further-offset tag space so they can
#: never match a parent communicator's collective traffic.
SUBCOMM_TAG_BASE = MAX_USER_TAG * 2


def _isolate(payload: Any) -> Any:
    """Defensively copy mutable array payloads, as serialization would."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    return payload


class Comm:
    """Point-to-point + collective communication endpoint of one rank."""

    def __init__(
        self,
        scheduler: Scheduler,
        rank: int,
        size: int,
        clock: VirtualClock,
        network: NetworkProfile,
    ):
        if size <= 0 or not 0 <= rank < size:
            raise CommError(f"invalid rank {rank} for communicator of size {size}")
        self._sched = scheduler
        self.rank = rank
        self.size = size
        self._clock = clock
        self._net = network
        self._nic_free_at = 0.0
        self._coll_seq = 0
        self.sent_messages = 0
        self.sent_bytes = 0
        self.received_messages = 0

    # -- point to point ---------------------------------------------------

    def send(self, dest: int, payload: Any = None, tag: int = 0, size: int | None = None) -> None:
        """Eagerly send ``payload`` to ``dest``; returns immediately.

        The sender's clock is charged per-message overhead plus a per-byte
        copy cost; the transfer itself is serialized through this rank's NIC
        in the background (so back-to-back sends queue up) and the message
        arrives at ``injection_end + latency``.
        """
        if not 0 <= dest < self.size:
            raise CommError(f"send to invalid rank {dest} (size {self.size})")
        if tag < 0:
            raise CommError(f"negative tag {tag}")
        nbytes = HEADER_BYTES + (payload_nbytes(payload) if size is None else int(size))
        self._clock.advance(self._net.sender_cost(nbytes))
        start = max(self._clock.now, self._nic_free_at)
        self._nic_free_at = start + self._net.transfer_seconds(nbytes)
        arrival = self._nic_free_at + self._net.latency
        self._sched.post(
            Message(self.rank, dest, tag, _isolate(payload), nbytes, arrival, self._sched.next_seq())
        )
        self.sent_messages += 1
        self.sent_bytes += nbytes

    def recv(self, source: int = ANY, tag: int = ANY) -> Generator[tuple, Message, Message]:
        """Block until a matching message arrives; returns the Message."""
        msg = yield ("recv", source, tag)
        self.received_messages += 1
        return msg

    def probe(self, source: int = ANY, tag: int = ANY) -> Generator[tuple, Any, Message | None]:
        """Non-blocking check for an arrived matching message.

        Returns the earliest matching :class:`Message` *without consuming
        it*, or ``None`` if no match has arrived by the rank's current
        virtual time.  Follow up with :meth:`recv` to consume.
        """
        msg = yield ("probe", source, tag)
        return msg

    def try_recv(self, source: int = ANY, tag: int = ANY) -> Generator[tuple, Any, Message | None]:
        """Probe and, when a message is available, consume and return it."""
        msg = yield ("probe", source, tag)
        if msg is None:
            return None
        self._sched.consume(self.rank, msg)
        self.received_messages += 1
        return msg

    # -- collectives -------------------------------------------------------

    def _next_coll_tag(self) -> int:
        self._coll_seq += 1
        return MAX_USER_TAG + self._coll_seq

    def barrier(self) -> Generator:
        """Synchronize all ranks (gather-to-0 then binomial broadcast)."""
        yield from self.allreduce(0, lambda a, b: 0)

    def bcast(self, value: Any, root: int = 0) -> Generator:
        """Broadcast ``value`` from ``root`` via a binomial tree."""
        tag = self._next_coll_tag()
        vrank = (self.rank - root) % self.size
        # Receive phase: each non-root rank waits for its binomial-tree parent.
        mask = 1
        while mask < self.size:
            if vrank & mask:
                parent = (self.rank - mask) % self.size
                msg = yield from self.recv(source=parent, tag=tag)
                value = msg.payload
                break
            mask <<= 1
        # Send phase: forward to children below the bit where we received.
        mask >>= 1
        while mask > 0:
            if vrank + mask < self.size:
                child = (self.rank + mask) % self.size
                self.send(child, value, tag=tag)
            mask >>= 1
        return value

    def gather(self, value: Any, root: int = 0) -> Generator:
        """Gather one value per rank at ``root``; returns the list there."""
        tag = self._next_coll_tag()
        if self.rank != root:
            self.send(root, value, tag=tag)
            return None
        out: list[Any] = [None] * self.size
        out[root] = value
        for _ in range(self.size - 1):
            msg = yield from self.recv(source=ANY, tag=tag)
            out[msg.source] = msg.payload
        return out

    def allgather(self, value: Any) -> Generator:
        gathered = yield from self.gather(value, root=0)
        gathered = yield from self.bcast(gathered, root=0)
        return gathered

    def reduce(self, value: Any, op: Callable[[Any, Any], Any], root: int = 0) -> Generator:
        """Reduce values with binary ``op`` at ``root`` (rank order)."""
        gathered = yield from self.gather(value, root=root)
        if self.rank != root:
            return None
        acc = gathered[0]
        for v in gathered[1:]:
            acc = op(acc, v)
        return acc

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any]) -> Generator:
        acc = yield from self.reduce(value, op, root=0)
        acc = yield from self.bcast(acc, root=0)
        return acc

    def alltoall(self, values: list[Any]) -> Generator:
        """Personalized all-to-all: ``values[i]`` goes to rank ``i``."""
        if len(values) != self.size:
            raise CommError(f"alltoall needs exactly {self.size} values, got {len(values)}")
        tag = self._next_coll_tag()
        for dest in range(self.size):
            if dest != self.rank:
                self.send(dest, values[dest], tag=tag)
        out: list[Any] = [None] * self.size
        out[self.rank] = _isolate(values[self.rank])
        for _ in range(self.size - 1):
            msg = yield from self.recv(source=ANY, tag=tag)
            out[msg.source] = msg.payload
        return out


class SubComm(Comm):
    """A communicator over a subset of a parent communicator's ranks.

    Like ``MPI_Comm_split``: group members get dense ranks ``0..k-1`` and
    all point-to-point/collective traffic is translated to global ranks.
    Used by the Query Service to run BFS over only the back-end ranks of a
    front-end + back-end cluster.  Received messages are re-labelled with
    group-local source/dest ranks.
    """

    def __init__(self, parent: Comm, ranks):
        ranks = [int(r) for r in ranks]
        if len(set(ranks)) != len(ranks):
            raise CommError(f"duplicate ranks in sub-communicator group {ranks}")
        if parent.rank not in ranks:
            raise CommError(
                f"rank {parent.rank} constructing a SubComm it does not belong to"
            )
        for r in ranks:
            if not 0 <= r < parent.size:
                raise CommError(f"group rank {r} outside parent communicator")
        # Deliberately skip Comm.__init__: state is shared with the parent.
        self._parent = parent
        self._sched = parent._sched
        self._group = ranks
        self._local_of = {g: i for i, g in enumerate(ranks)}
        self.rank = self._local_of[parent.rank]
        self.size = len(ranks)
        self._clock = parent._clock
        self._net = parent._net
        self._coll_seq = 0
        self.sent_messages = 0
        self.sent_bytes = 0
        self.received_messages = 0

    def _next_coll_tag(self) -> int:
        self._coll_seq += 1
        return SUBCOMM_TAG_BASE + self._coll_seq

    def _to_global(self, local: int) -> int:
        if local == ANY:
            return ANY
        if not 0 <= local < self.size:
            raise CommError(f"rank {local} outside sub-communicator of size {self.size}")
        return self._group[local]

    def _localize(self, msg: Message) -> Message:
        """Relabel ``msg``, which this rank owns (consumed, or a copy of one
        still in the mailbox), with group-local ranks, in place."""
        src = self._local_of.get(msg.source)
        if src is None:
            raise CommError(
                f"message from global rank {msg.source} leaked into sub-communicator"
            )
        msg.source = src
        msg.dest = self.rank
        return msg

    def send(self, dest: int, payload: Any = None, tag: int = 0, size: int | None = None) -> None:
        self._parent.send(self._to_global(dest), payload, tag=tag, size=size)
        self.sent_messages += 1

    def recv(self, source: int = ANY, tag: int = ANY):
        msg = yield ("recv", self._to_global(source), tag)
        self.received_messages += 1
        return self._localize(msg)

    def probe(self, source: int = ANY, tag: int = ANY):
        msg = yield ("probe", self._to_global(source), tag)
        return self._localize(copy.copy(msg)) if msg is not None else None

    def try_recv(self, source: int = ANY, tag: int = ANY):
        msg = yield ("probe", self._to_global(source), tag)
        if msg is None:
            return None
        self._sched.consume(self._parent.rank, msg)
        self.received_messages += 1
        return self._localize(msg)
