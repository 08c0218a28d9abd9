"""Exception hierarchy for the MSSG reproduction.

The paper's ``GraphDB`` interface (Listing 3.1) throws a single checked
``GraphStorageException``; we keep that name and add a few siblings so that
callers can distinguish storage faults from simulation and configuration
errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class GraphStorageException(ReproError):
    """A GraphDB backend failed to store or retrieve graph data.

    Mirrors the checked exception in the paper's Java ``Graph`` interface.
    """


class StorageEngineError(ReproError):
    """A low-level storage engine (paged file, B-tree, MiniSQL) failed."""


class PageFormatError(StorageEngineError):
    """An on-disk page failed validation (bad magic, corrupt layout)."""


class KeyNotFound(StorageEngineError):
    """A key lookup in an index or key-value store found nothing."""


class SimulationError(ReproError):
    """The simulated cluster reached an invalid state."""


class DeviceFailedError(ReproError):
    """An injected disk fault fired: the block device no longer serves I/O.

    Unlike the other errors this one models *hardware* misbehavior, not a
    program bug — fault-tolerant callers (the BFS failover path) catch it
    and re-route work to a surviving replica; everything else lets it
    propagate, which is the pre-replication behavior.
    """


class CorruptBlockError(DeviceFailedError):
    """A read returned provably bad data: an on-disk frame failed its CRC.

    Subclasses :class:`DeviceFailedError` so every fault-tolerant call site
    (BFS failover, ingestion writers, rebalance) already treats it like a
    dead-chain-member hop and reroutes to a surviving replica.  Unlike its
    parent the device *keeps serving I/O* — only the named frame is bad —
    so callers that care (read-repair, the scrub service) can distinguish
    via ``isinstance`` and rewrite the frame from a clean copy instead of
    declaring the whole device dead.

    Attributes ``device`` (name), ``offset`` and ``length`` locate the bad
    frame on the *physical* (checksummed) layout.
    """

    def __init__(self, device: str, offset: int, length: int, detail: str = ""):
        self.device = device
        self.offset = int(offset)
        self.length = int(length)
        msg = f"corrupt frame on device {device!r} at offset {offset} (+{length} bytes)"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DeadlockError(SimulationError):
    """Every rank is blocked and no message can unblock any of them."""


class CommError(SimulationError):
    """Invalid use of the communicator (bad rank, tag, or payload)."""


class OntologyError(ReproError):
    """A semantic graph violates its ontology, or the ontology is invalid."""


class ConfigError(ReproError):
    """Invalid experiment, cluster, or database configuration."""
