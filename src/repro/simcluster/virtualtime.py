"""Virtual clocks for the simulated cluster.

Every node owns a :class:`VirtualClock`.  Compute, disk, and communication
costs advance the clock by model-derived amounts; the discrete-event
scheduler orders ranks by these clocks.  Clocks are plain monotone floats —
storage engines can be used standalone (outside a simulation) with a fresh
clock and still report how much virtual time their I/O would have cost.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VirtualClock"]


class VirtualClock:
    """A monotone virtual-time accumulator, in seconds."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance by ``seconds`` (must be >= 0) and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance a clock by {seconds!r} seconds")
        self._now += seconds
        return self._now

    def advance_each(self, costs) -> float:
        """:meth:`advance` by every entry of ``costs``, in order, and return
        the new time: bit for bit the loop of single advances.  A negative
        entry raises before the clock moves."""
        now = self._now
        for c in np.asarray(costs, dtype=np.float64).tolist():
            if c < 0:
                raise ValueError(f"cannot advance a clock by {c!r} seconds")
            now += c
        self._now = now
        return now

    def advance_to(self, when: float) -> float:
        """Advance the clock to ``when`` if it is in the future."""
        if when > self._now:
            self._now = when
        return self._now

    def reset(self, start: float = 0.0) -> None:
        """Rewind the clock; only the simulation harness should call this
        (between independent runs), never model code mid-run."""
        self._now = float(start)

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.9f})"
