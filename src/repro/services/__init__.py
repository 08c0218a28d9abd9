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
    PageRankProgram,
    VertexProgram,
    VPConfig,
)

__all__ = [
    "ComponentsProgram",
    "Declusterer",
    "DrainReport",
    "EdgeRoundRobin",
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
