"""A closed deployment is freed by reference count, not by the cycle collector.

A process that opens deployments in a loop (the ``twoclock`` benchmark adds
repetitions until its time is used) would otherwise hold every closed
deployment — stores, overlays, device images — until the collector's next
full pass.  ``close()`` breaks the back-references: ``QueryService``'s
runner registry, ``MSSG.streaming`` <-> ``StreamingState.mssg``, and the
checksum wrapper a ``BlockDevice`` carries.
"""

import gc
import weakref

import pytest

from repro import MSSG, MSSGConfig
from repro.graphgen import pubmed_like

EDGES = pubmed_like(300, seed=5)


@pytest.mark.parametrize(
    "backend, streaming", [("Array", False), ("grDB", False), ("StreamDB", True)]
)
def test_closed_deployment_is_freed_by_reference_count(backend, streaming):
    gc.collect()
    gc.disable()
    try:
        mssg = MSSG(MSSGConfig(backend=backend, num_backends=3, streaming=streaming))
        mssg.ingest(EDGES[:600])
        if streaming:
            mssg.ingest_stream(EDGES[600:])
        assert mssg.query_bfs(0, 250).result is not None
        assert len(mssg.query_many([(0, 250), (3, 100), (7, 200)]).queries) == 3
        assert mssg.query("components").result["num_components"] >= 1
        refs = {"MSSG": weakref.ref(mssg), "GraphDB": weakref.ref(mssg.dbs[0])}
        devices = [d for node in mssg.cluster.nodes for d in node._disks.values()]
        if backend != "Array":  # the in-memory backend opens no device
            refs["BlockDevice"] = weakref.ref(devices[0])
        del devices
        mssg.close()
        del mssg
        alive = [name for name, ref in refs.items() if ref() is not None]
        assert not alive, f"kept alive by a reference cycle after close(): {alive}"
    finally:
        gc.enable()
