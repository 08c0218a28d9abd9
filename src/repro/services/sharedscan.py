"""Shared backend sweeps for the concurrent-query multiplexer.

Several in-flight queries interleaved on one back-end rank often need the
*same* device sweep in one scheduling round: StreamDB answers every fringe
expansion by replaying its whole edge log, and a bottom-up (pull) BFS
level scans adjacency in storage order on any backend.  Running the sweep
once and fanning the decoded adjacency to every subscriber charges the
device exactly one pass; each consumer still pays its own per-edge CPU
(filtering, claim checks), which is where the answers are computed.

The :class:`ScanBoard` is the per-rank rendezvous.  The multiplexer arms a
sweep key for a round only when at least two of the round's queries will
issue that sweep — a lone query takes the exact historical code path, and
a drain of one query never touches the board at all.  Backends consult the
board inside their sweep primitives (``StreamGraphDB._scan``, the
bottom-up claim scan) via the ``scan_board`` attribute the multiplexer
attaches for the duration of a drain.

Every publication carries a *validity token* (the backend's committed edge
count): a sweep published before an ingest can never serve a reader that
expects the grown log, so publications may persist across scheduling
rounds within a drain without a separate invalidation protocol.
"""

from __future__ import annotations

__all__ = ["ScanBoard", "LOG_REPLAY", "BOTTOM_UP_SCAN"]

#: Sweep key: StreamDB's full edge-log replay (one ``AdjacencyBatch`` per
#: log record, in log order).
LOG_REPLAY = "log-replay"
#: Sweep key: whole-store storage-order adjacency scan (one ``AdjacencyBatch``).
BOTTOM_UP_SCAN = "bottom-up"


class ScanBoard:
    """Per-rank registry of armed and published backend sweeps."""

    def __init__(self):
        self._armed: set[str] = set()
        self._published: dict[str, tuple[int, object]] = {}
        #: Device passes actually performed on behalf of an armed sweep.
        self.passes = 0
        #: Sweeps answered from a published pass (device passes avoided).
        self.served = 0

    def begin_round(self) -> None:
        """Start a scheduling round: nothing is armed until the multiplexer
        says so.  Publications survive — their tokens keep them honest."""
        self._armed.clear()

    def arm(self, key: str) -> None:
        self._armed.add(key)

    def armed(self, key: str) -> bool:
        return key in self._armed

    def lookup(self, key: str, token: int):
        """The published sweep for ``key`` if its token matches, else None."""
        hit = self._published.get(key)
        if hit is not None and hit[0] == token:
            self.served += 1
            return hit[1]
        return None

    def publish(self, key: str, token: int, value) -> None:
        self.passes += 1
        self._published[key] = (token, value)

    def clear(self) -> None:
        self._armed.clear()
        self._published.clear()
