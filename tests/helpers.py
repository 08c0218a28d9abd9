"""Shared test helpers."""

import dataclasses

from repro.features import Features
from repro.graphdb import make_graphdb

#: What a test means by "a store": batched expansion on, everything else
#: off — neither preset, so it is named once here.
STORE_FEATURES = dataclasses.replace(Features.paper(), batch_io=True)


def make_store(backend, node, **kw):
    """``make_graphdb`` on :data:`STORE_FEATURES`; a keyword naming a
    ``Features`` field flips that knob, the rest go to ``make_graphdb``."""
    knobs = {f.name: kw.pop(f.name) for f in dataclasses.fields(Features) if f.name in kw}
    return make_graphdb(backend, node, dataclasses.replace(STORE_FEATURES, **knobs), **kw)


def census(db) -> tuple[list[int], list[int]]:
    """``db``'s out-degree census: its sources and their degrees, as lists."""
    vs = db.local_vertices()
    return vs.tolist(), db.degree_many(vs).tolist()


def image_census(image: dict) -> tuple[list[int], list[int]]:
    """The census an adjacency image ``{vertex: list}`` implies."""
    vs = sorted(v for v, lst in image.items() if len(lst))
    return vs, [len(image[v]) for v in vs]
