"""Shared utilities: errors, growable long arrays, bitsets, size estimation."""

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
from .longarray import LongArray
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
    "LongArray",
    "OntologyError",
    "PageFormatError",
    "ReproError",
    "SimulationError",
    "StorageEngineError",
    "payload_nbytes",
]
