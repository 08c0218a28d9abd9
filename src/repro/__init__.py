"""MSSG reproduction: a framework for massive-scale semantic graphs.

Open-source reproduction of T. D. R. Hartley's MSSG (IEEE Cluster 2006 /
OSU M.S. thesis, 2006): a middleware framework for storing, ingesting and
searching scale-free semantic graphs out-of-core on a cluster, including
the grDB multi-level graph database and parallel out-of-core BFS.

Quick start::

    from repro import MSSG, MSSGConfig
    from repro.graphgen import pubmed_like

    mssg = MSSG(MSSGConfig(num_backends=4, backend="grDB"))
    mssg.ingest(pubmed_like(2000))
    print(mssg.query_bfs(source=1, dest=1234).result)

Subpackages: ``simcluster`` (simulated cluster substrate), ``datacutter``
(filter-stream middleware), ``ontology`` (semantic typing), ``graphgen``
(workload generators), ``storage`` (B-tree / KV / MiniSQL engines),
``graphdb`` (the six GraphDB backends incl. grDB), ``services``
(ingestion/query), ``bfs`` (Algorithms 1-2), ``experiments`` (chapter-5
harness).
"""

from .features import Features
from .framework import MSSG, MSSGConfig, RebalanceReport, ScrubReport
from .services import DrainReport, QueryReport

__version__ = "1.0.0"

__all__ = [
    "Features",
    "MSSG",
    "MSSGConfig",
    "DrainReport",
    "QueryReport",
    "RebalanceReport",
    "ScrubReport",
    "__version__",
]
