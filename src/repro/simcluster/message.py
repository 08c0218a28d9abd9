"""Message envelope for the simulated interconnect."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Message", "ANY"]

#: Wildcard for ``source``/``tag`` matching, like ``MPI.ANY_SOURCE``.
ANY = -1


@dataclass(slots=True, eq=False)
class Message:
    """An in-flight or delivered message.

    ``arrival`` is the virtual time at which the message becomes visible to
    the destination; ``seq`` is a global monotone counter used for
    deterministic tie-breaking and FIFO (non-overtaking) ordering.

    One is built per send, so it is slotted, compares by identity and is not
    frozen (a frozen dataclass pays an ``object.__setattr__`` per field).
    Nothing writes to a message in a mailbox; a :class:`SubComm` relabels the
    ``source``/``dest`` of one it has consumed.
    """

    source: int
    dest: int
    tag: int
    payload: Any
    nbytes: int
    arrival: float
    seq: int

    def matches(self, source: int, tag: int) -> bool:
        return (source == ANY or source == self.source) and (tag == ANY or tag == self.tag)
