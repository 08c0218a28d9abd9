"""Parallel out-of-core BFS (Algorithms 1 and 2) and supporting structures."""

from .direction import (
    BOTTOM_UP,
    TOP_DOWN,
    DirectionConfig,
    DirectionController,
    bottom_up_level,
)
from .failover import FaultTolerance, FTState, failover_rounds, route_to_replicas, try_expand
from .oocbfs import NOT_FOUND, BFSConfig, BFSRankResult, oocbfs_program
from .pipelined import pipelined_bfs_program
from .sequential import bfs_distance, bfs_levels, sample_queries_by_distance

__all__ = [
    "BFSConfig",
    "BFSRankResult",
    "BOTTOM_UP",
    "DirectionConfig",
    "DirectionController",
    "FTState",
    "FaultTolerance",
    "NOT_FOUND",
    "TOP_DOWN",
    "bottom_up_level",
    "failover_rounds",
    "route_to_replicas",
    "try_expand",
    "bfs_distance",
    "bfs_levels",
    "oocbfs_program",
    "pipelined_bfs_program",
    "sample_queries_by_distance",
]
