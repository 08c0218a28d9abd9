"""MSSG services: ingestion, query orchestration, declustering."""

from .declustering import (
    Declusterer,
    EdgeRoundRobin,
    ReplicatedDeclusterer,
    VertexHash,
    VertexRoundRobin,
)
from .ingestion import IngestionService, IngestReport
from .query import DrainReport, QueryReport, QueryService
from .scheduler import QuerySpec
from .vertexprog import (
    ComponentsProgram,
    EgoNetProgram,
    PageRankProgram,
    VertexProgram,
    VPConfig,
)

__all__ = [
    "ComponentsProgram",
    "Declusterer",
    "DrainReport",
    "EdgeRoundRobin",
    "EgoNetProgram",
    "IngestReport",
    "IngestionService",
    "PageRankProgram",
    "QueryReport",
    "QueryService",
    "QuerySpec",
    "VPConfig",
    "VertexProgram",
    "ReplicatedDeclusterer",
    "VertexHash",
    "VertexRoundRobin",
]
