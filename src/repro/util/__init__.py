"""Shared utilities: errors, bitsets, size estimation."""

from .bitset import Bitset
from .errors import (
    CommError,
    ConfigError,
    CorruptBlockError,
    DeadlockError,
    DeviceFailedError,
    GraphStorageException,
    KeyNotFound,
    OntologyError,
    PageFormatError,
    ReproError,
    SimulationError,
    StorageEngineError,
)
from .sizes import HEADER_BYTES, payload_nbytes

__all__ = [
    "Bitset",
    "CommError",
    "ConfigError",
    "CorruptBlockError",
    "DeadlockError",
    "DeviceFailedError",
    "GraphStorageException",
    "HEADER_BYTES",
    "KeyNotFound",
    "OntologyError",
    "PageFormatError",
    "ReproError",
    "SimulationError",
    "StorageEngineError",
    "payload_nbytes",
]
