"""Host-speed sampling: what the shared box did while an operation ran.

Measured on this sandbox (2 vCPUs of a shared host): a fixed piece of
Python takes 20-70 % longer at some times than at others, CPU time moving
with the wall time, in bursts of tens of milliseconds *and* in phases of
seconds to minutes.  The second kind survives any best-of-R inside one run:
ten runs of one commit differed by 13-35 % (interquartile) on every wall
metric, whatever was done with the repetitions inside each run.

``HostSpeed`` runs a fixed ~1.3 ms kernel on a 40 ms interval timer, in the
benchmark's own (only) thread.  The kernel is made of what the simulator is
made of — interpreter-bound Python, many small numpy calls, dependent loads
over a heap larger than the caches, numpy over arrays of a few thousand
words — and shares no code with ``src/``, so a change to the program cannot
change it.  For an operation's window the sampler answers how long the
kernel took there relative to ``REFERENCE_KERNEL_S`` (this box at its
quietest) and how much of the window the kernel itself used.  The runner
reports every wall metric from

    (wall - kernel time in the window) / (kernel time there / reference)

that is, at the reference host's speed, and keeps the raw wall beside it.
Which parts the kernel needs was measured, not guessed: each part alone
left 10-20 % of spread between runs on some phase, their sum 5-13 %.
"""

from __future__ import annotations

import bisect
import random
import signal
import time

import numpy as np

#: Kernel time of this sandbox at its quietest (minimum over many runs).
REFERENCE_KERNEL_S = 0.0013
INTERVAL_S = 0.04
#: An operation shorter than this is judged by the samples of this much
#: time around it: single samples are too noisy, and the host's phases
#: last longer than this.
MIN_WINDOW_S = 0.5

_SMALL = (np.arange(512, dtype=np.int64) * 2654435761) % 512
_SMALL_INDEX = _SMALL[::4].copy()
_MEDIUM = (np.arange(8192, dtype=np.int64) * 2654435761) % 8192
_MEDIUM_INDEX = _MEDIUM[::2].copy()
_HEAP = [(i * 2654435761) % 1000003 for i in range(400_000)]
_HEAP_KEYS = {v: i for i, v in enumerate(_HEAP[:100_000])}
_rng = random.Random(7)
_WALKS = [[_rng.randrange(len(_HEAP)) for _ in range(800)] for _ in range(64)]


def kernel(turn: int = 0) -> int:
    x = 0
    for i in range(2000):
        x += i & 7
    for _ in range(8):
        np.unique(_SMALL)
        (_SMALL >> 6) & 63
        _SMALL[_SMALL_INDEX]
    heap, keys = _HEAP, _HEAP_KEYS
    for j in _WALKS[turn & 63]:
        v = heap[j]
        x += v
        if v in keys:
            x += 1
    _MEDIUM[_MEDIUM_INDEX]
    np.cumsum(_MEDIUM)
    np.unique(_MEDIUM[:4096])
    return x


class HostSpeed:
    def __init__(self):
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._in_handler = False
        self._previous_handler = None

    def _on_timer(self, signum, frame) -> None:
        if self._in_handler:
            return  # a tick that arrived while the previous one still ran
        self._in_handler = True
        t0 = time.perf_counter()
        kernel(len(self._starts))
        self._starts.append(t0)
        self._durations.append(time.perf_counter() - t0)
        self._in_handler = False

    def start(self) -> None:
        kernel()  # numpy's lazy imports happen here, not inside the handler
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def mean_factor(self) -> float:
        """Mean kernel time over the whole run, relative to the reference."""
        if not self._durations:
            return 1.0
        return sum(self._durations) / len(self._durations) / REFERENCE_KERNEL_S

    def normalised(self, t0: float, t1: float) -> float:
        """Seconds ``[t0, t1]`` would have taken at the reference speed.

        The kernel's own time inside the window is taken out, and the rest
        divided by the host factor there: the mean kernel time over the
        samples of the window (widened to ``MIN_WINDOW_S`` when shorter)
        relative to the reference; 1.0 when nothing was sampled at all.
        """
        starts, durations = self._starts, self._durations
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t1)
        own = t1 - t0 - sum(durations[lo:hi])
        margin = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2)
        lo = bisect.bisect_left(starts, t0 - margin)
        hi = bisect.bisect_right(starts, t1 + margin)
        if hi - lo < 2:
            lo, hi = max(0, lo - 1), min(len(starts), hi + 1)
        near = durations[lo:hi]
        if not near:
            return own
        return own / (sum(near) / len(near) / REFERENCE_KERNEL_S)
