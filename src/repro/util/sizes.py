"""Message payload size estimation for the simulated network.

The network cost model charges ``latency + nbytes / bandwidth`` per message.
Senders can pass an explicit ``size`` to :meth:`Comm.send`; when they do not,
this module estimates the wire size of common payload shapes, mirroring how
the paper's DataCutter buffers serialize (binary, 8 bytes per vertex id).
"""

from __future__ import annotations

import pickle
from typing import Any

import numpy as np

__all__ = ["payload_nbytes", "HEADER_BYTES"]

#: Fixed per-message envelope (tag, source, length), as in a binary protocol.
HEADER_BYTES = 24


def payload_nbytes(payload: Any) -> int:
    """Estimate the on-wire byte size of ``payload`` (excluding header).

    Vertex ids travel as 8-byte integers; containers are summed recursively.
    Unknown objects fall back to their pickle length, which is what a generic
    middleware would ship anyway.
    """
    if type(payload) is np.ndarray:  # fringes and bitsets: most payloads, alone or in a tuple
        return payload.nbytes
    if payload is None:
        return 0
    if isinstance(payload, (bool, int, float)):
        return 8
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(payload_nbytes(x) for x in payload)
    if isinstance(payload, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items())
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
