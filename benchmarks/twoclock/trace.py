"""Outside-in layer spans: wrap each layer's public functions from here.

``Tracer.install()`` replaces class attributes (methods) and, for
module-level functions, every reference held in any ``repro.*`` module
namespace — callers do ``from ..util.varint import decode_sorted``, so the
defining module alone is not enough.  ``uninstall()`` puts every original
object back.  ``src/`` is not modified.

Spans form a stack.  A wrapper opens a span only when it *enters* its
layer (a call made from inside the same layer runs straight through), so
``calls`` counts entries into a layer and a layer's self time is its
spans' duration minus the spans opened beneath them.  Generator functions
(rank programs, ``bottom_up_level``, ``scan_adjacency``) are timed per
resumption.  Aggregates ``[spans, total_s, self_s]`` are kept per
``(phase, function)``; up to ``max_raw`` raw spans ``(name, start, end,
parent, op_id)`` are kept for the trace file.
"""

from __future__ import annotations

import gc
import sys
import time
import types

LAYERS = (
    "services",
    "simcluster.sched",
    "program",
    "bfs.direction",
    "util.bitset",
    "graphdb",
    "services.streaming",
    "util.varint",
    "storage.blockcache",
    "storage.integrity",
    "storage.deltalog",
    "simcluster.disk",
    "simcluster.comm",
)

_GRAPHDB_METHODS = (
    "store_edges",
    "expand_fringe",
    "get_adjacency",
    "scan_adjacency",
    "degree_many",
    "prefetch_fringe",
    "local_vertices",
    "finalize_ingest",
    "flush",
)


def _first_len(args, result):
    return len(args[0])


def _second_arg(args, result):
    return args[1]


#: util.varint: how many values one call encodes, decodes or sizes.
_VARINT_VALUES = {
    "varint_lengths": _first_len,
    "encode_varints": _first_len,
    "decode_varints": _second_arg,
    "encode_sorted": _first_len,
    "decode_sorted": _second_arg,
    "sorted_encoded_size": _first_len,
    "split_sorted_fit": _first_len,
    "encode_edge_block": _first_len,
    "decode_edge_block": _second_arg,
    "edge_block_bytes": _first_len,
}

#: storage.integrity: logical bytes one call moves through the CRC frames.
_INTEGRITY_BYTES = {
    "read": lambda args, result: args[2],
    "readv": lambda args, result: sum(n for _, n in args[1]),
    "write": lambda args, result: len(args[2]),
}


_CO_GENERATOR = 0x20  # inspect.CO_GENERATOR
#: Layers nest a dozen deep at most; a span deeper than this raises.
_MAX_DEPTH = 64


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


class Tracer:
    def __init__(self, max_raw: int = 200_000):
        self.max_raw = max_raw
        self.names: list[str] = []
        self.layer_of: list[str] = []
        #: phase -> per-function ``[spans, total_s, self_s]``
        self.aggregates: dict[str, list[list]] = {}
        #: per-function sums of what the ``measure`` hooks returned
        self.measured: list[int] = []
        #: per-function count of generators created (generator functions)
        self.started: list[int] = []
        self.raw: list = []
        #: ``CacheStats`` of every block cache alive when ``note_caches`` ran.
        self.cache_stats: list = []
        self._cache_classes: tuple = ()
        # [current aggregate table, current layer, current op id, depth]
        self._state = [None, None, -1, 0]
        # Per depth: time spent in child spans, and the raw-span slot; depth
        # 0 is the (never closed) root.
        self._child = [0.0] * _MAX_DEPTH
        self._slot = [-1] * _MAX_DEPTH
        self._patches: list = []  # (owner, attribute, original)
        self.set_phase("idle")

    # -- what the benchmark tells the tracer --------------------------------

    def set_phase(self, phase: str) -> None:
        table = self.aggregates.get(phase)
        if table is None:
            table = self.aggregates[phase] = [[0, 0.0, 0.0] for _ in self.names]
        self._state[0] = table

    def set_op(self, op_id: int) -> None:
        self._state[2] = op_id

    def note_caches(self) -> None:
        """Keep the stats of every live block cache (call before the
        deployment is closed).  A heap walk, because caches have no registry
        and a per-call hook on ``get`` would cost more than ``get`` does."""
        self.cache_stats = [
            obj.stats for obj in gc.get_objects() if isinstance(obj, self._cache_classes)
        ]

    # -- reading the result ---------------------------------------------------

    def layer_self_seconds(self, phase: str) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for nid, (_, _, self_s) in enumerate(self.aggregates.get(phase, ())):
            out[self.layer_of[nid]] += self_s
        return out

    def _sum_by(self, values, layer: str, method: str | None) -> int:
        """Sum per-function ``values`` over a layer (or one method name of it)."""
        return sum(
            v
            for nid, v in enumerate(values)
            if self.layer_of[nid] == layer
            and (method is None or self.names[nid].rsplit(".", 1)[-1] == method)
        )

    def spans(self, layer: str, method: str | None = None) -> int:
        """Spans opened, over all phases."""
        return sum(
            self._sum_by([agg[0] for agg in table], layer, method)
            for table in self.aggregates.values()
        )

    def measured_sum(self, layer: str, method: str | None = None) -> int:
        return self._sum_by(self.measured, layer, method)

    def started_sum(self, layer: str, method: str | None = None) -> int:
        return self._sum_by(self.started, layer, method)

    def raw_spans(self) -> list[dict]:
        return [
            {"name": self.names[s[0]], "start": s[1], "end": s[2], "parent": s[3], "op_id": s[4]}
            for s in self.raw
            if s is not None
        ]

    # -- wrappers ---------------------------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        self.names.append(name)
        self.layer_of.append(layer)
        self.measured.append(0)
        self.started.append(0)
        for table in self.aggregates.values():
            table.append([0, 0.0, 0.0])
        return len(self.names) - 1

    # The two wrappers below repeat one span protocol inline: at ~450 k
    # spans a run, a helper call per entry and exit alone cost 30 % overhead.
    #
    #   enter: remember the layer we came from, push a depth, reserve the raw
    #          slot (so a parent's index is known to its children);
    #   exit:  add the duration to this function's aggregate, its self part
    #          (duration - children) too, and to the parent's child time.

    def _wrap_function(self, fn, name: str, layer: str, measure=None):
        nid = self._register(name, layer)
        state, child, slot, raw = self._state, self._child, self._slot, self.raw
        cap, clock = self.max_raw, time.perf_counter
        measured = self.measured

        def wrapper(*args, **kwargs):
            came_from = state[1]
            if came_from == layer:
                return fn(*args, **kwargs)
            state[1] = layer
            depth = state[3] = state[3] + 1
            child[depth] = 0.0
            index = len(raw)
            if index < cap:
                raw.append(None)
            else:
                index = -1
            slot[depth] = index
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                state[1] = came_from
                state[3] = depth - 1
                agg = state[0][nid]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - child[depth]
                child[depth - 1] += duration
                if index >= 0:
                    raw[index] = (nid, t0, t0 + duration, slot[depth - 1], state[2])
            if measure is not None:
                measured[nid] += measure(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _drive(self, gen, nid: int, layer: str):
        """Re-yield ``gen``, one span per resumption."""
        state, child, slot, raw = self._state, self._child, self._slot, self.raw
        cap, clock = self.max_raw, time.perf_counter
        send = gen.send
        value = None
        while True:
            came_from = state[1]
            if came_from == layer:
                try:
                    item = send(value)
                except StopIteration as stop:
                    return stop.value
            else:
                state[1] = layer
                depth = state[3] = state[3] + 1
                child[depth] = 0.0
                index = len(raw)
                if index < cap:
                    raw.append(None)
                else:
                    index = -1
                slot[depth] = index
                t0 = clock()
                try:
                    item = send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    duration = clock() - t0
                    state[1] = came_from
                    state[3] = depth - 1
                    agg = state[0][nid]
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - child[depth]
                    child[depth - 1] += duration
                    if index >= 0:
                        raw[index] = (nid, t0, t0 + duration, slot[depth - 1], state[2])
            value = yield item

    def _wrap(self, fn, name: str, layer: str, measure=None):
        """The span wrapper that fits ``fn``: per call, or per resumption."""
        if fn.__code__.co_flags & _CO_GENERATOR:
            return self._wrap_generator_function(fn, name, layer)
        return self._wrap_function(fn, name, layer, measure)

    def _wrap_generator_function(self, fn, name: str, layer: str):
        nid = self._register(name, layer)
        started, drive = self.started, self._drive

        def wrapper(*args, **kwargs):
            started[nid] += 1
            return drive(fn(*args, **kwargs), nid, layer)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_cluster_run(self, run):
        """``SimCluster.run``: a scheduler span, and every rank generator
        handed to it re-yielded under a ``program`` span per resumption."""
        nid = self._register("rank-program", "program")
        started, drive = self.started, self._drive

        def traced_program(program):
            def make(ctx):
                gen = program(ctx)
                if not hasattr(gen, "send"):
                    return gen  # let SimCluster.run raise its own ConfigError
                started[nid] += 1
                return drive(gen, nid, "program")

            return make

        def with_traced_programs(self_, program, *args, **kwargs):
            if callable(program):
                program = traced_program(program)
            else:
                program = [traced_program(p) for p in program]
            return run(self_, program, *args, **kwargs)

        return self._wrap_function(with_traced_programs, "SimCluster.run", "simcluster.sched")

    # -- install / uninstall ----------------------------------------------------

    def _patch_method(self, cls, method: str, layer: str, measure=None, wrap=None) -> None:
        """Replace ``cls.method``; ``wrap(original)`` overrides the default span."""
        original = cls.__dict__[method]
        if not isinstance(original, types.FunctionType):
            raise TypeError(f"{cls.__name__}.{method} is not a plain method")
        name = f"{cls.__name__}.{method}"
        wrapper = wrap(original) if wrap else self._wrap(original, name, layer, measure)
        setattr(cls, method, wrapper)
        self._patches.append((cls, method, original))

    def _patch_module_function(self, module, func: str, layer: str, measure=None) -> None:
        original = getattr(module, func)
        name = f"{module.__name__.removeprefix('repro.')}.{func}"
        wrapper = self._wrap(original, name, layer, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import repro.bfs.direction as direction
        import repro.util.varint as varint
        from repro.framework import MSSG
        from repro.graphdb import GraphDB
        from repro.services.ingestion import IngestionService
        from repro.services.query import QueryService
        from repro.services.streaming import (
            DeltaOverlay,
            OverlayView,
            StreamFeed,
            StreamingState,
        )
        from repro.simcluster.cluster import SimCluster
        from repro.simcluster.comm import Comm
        from repro.simcluster.disk import BlockDevice
        from repro.storage.blockcache import CachePartition, LRUBlockCache
        from repro.storage.deltalog import DeltaLog
        from repro.storage.integrity import ChecksummedDevice
        from repro.util.bitset import Bitset

        method = self._patch_method
        for m in ("ingest", "ingest_stream", "compact", "query_bfs", "query_many", "query"):
            method(MSSG, m, "services")
        method(IngestionService, "ingest", "services")
        method(QueryService, "query", "services")
        method(QueryService, "drain", "services")
        method(StreamingState, "ingest_batch", "services")
        method(StreamingState, "compact", "services")
        method(SimCluster, "run", "simcluster.sched", wrap=self._wrap_cluster_run)
        self._patch_module_function(direction, "bottom_up_level", "bfs.direction")
        method(direction.DirectionController, "decide", "bfs.direction")
        method(direction.DirectionController, "observe", "bfs.direction")
        for m in ("get_many", "set_many", "to_indices", "or_words"):
            method(Bitset, m, "util.bitset")
        for cls in (GraphDB, *_all_subclasses(GraphDB)):
            for m in _GRAPHDB_METHODS:
                if m in cls.__dict__:
                    method(cls, m, "graphdb")
        for m in ("adjacency", "degrees", "fringe", "vertices"):
            method(OverlayView, m, "services.streaming")
        method(DeltaOverlay, "append", "services.streaming")
        method(DeltaOverlay, "view", "services.streaming")
        method(StreamFeed, "step", "services.streaming")
        for func in varint.__all__:
            if callable(getattr(varint, func)):
                self._patch_module_function(
                    varint, func, "util.varint", _VARINT_VALUES.get(func)
                )
        self._cache_classes = (LRUBlockCache, CachePartition)
        for cls in self._cache_classes:
            for m in ("get", "put", "pin", "flush"):
                method(cls, m, "storage.blockcache")
        for m in ("read", "readv", "write"):
            method(ChecksummedDevice, m, "storage.integrity", _INTEGRITY_BYTES[m])
        method(DeltaLog, "append", "storage.deltalog", lambda args, result: result)
        method(DeltaLog, "begin_compaction", "storage.deltalog")
        method(DeltaLog, "finish_compaction", "storage.deltalog")
        for m in ("read", "readv", "write"):
            method(BlockDevice, m, "simcluster.disk")
        method(Comm, "send", "simcluster.comm")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
