"""Global-to-local vertex id maps.

grDB addresses its level-0 sub-blocks directly by vertex id (§3.4.1: "the
beginning of the adjacency list of a vertex v is stored in the v-th
sub-block at level 0").  On a single node that is the identity; with p
back-end nodes and the globally-known ``GID % p`` declustering the paper
uses, each node owns every p-th vertex and maps it to the dense local slot
``GID // p`` so level-0 storage stays compact.  No node owns a negative id
(``store_edges`` rejects them), so a read of one touches no sub-block.
"""

from __future__ import annotations

import abc

import numpy as np

from ..util.errors import ConfigError

__all__ = ["IdMap", "IdentityMap", "ModuloMap"]


class IdMap(abc.ABC):
    """Maps global vertex ids to dense local sub-block slots."""

    @abc.abstractmethod
    def to_local(self, gid: int) -> int: ...

    @abc.abstractmethod
    def to_global(self, local: int) -> int: ...

    def to_local_many(self, gids) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`to_local` over an id array.

        Returns ``(locals, owned)``: local slots (int64, -1 where not owned)
        and a boolean ownership mask.  The default loops; both concrete maps
        override with pure-numpy arithmetic so batched fringe planning never
        pays a per-vertex exception-handling round trip.
        """
        gids = np.asarray(gids, dtype=np.int64)
        locals_ = np.full(len(gids), -1, dtype=np.int64)
        owned = np.zeros(len(gids), dtype=bool)
        for i, gid in enumerate(gids):
            try:
                locals_[i] = self.to_local(int(gid))
                owned[i] = True
            except ConfigError:
                pass
        return locals_, owned

    def to_global_many(self, locals_) -> np.ndarray:
        """Vectorized :meth:`to_global` over a local-slot array (int64);
        the default loops, both concrete maps override with arithmetic."""
        return np.array([self.to_global(int(loc)) for loc in locals_], dtype=np.int64)


class IdentityMap(IdMap):
    """Local slot == global id (single-node layout); a negative id has none."""

    def to_local(self, gid: int) -> int:
        gid = int(gid)
        if gid < 0:
            raise ConfigError(f"vertex {gid} is negative: no slot holds it")
        return gid

    def to_global(self, local: int) -> int:
        return int(local)

    def to_local_many(self, gids) -> tuple[np.ndarray, np.ndarray]:
        gids = np.asarray(gids, dtype=np.int64)
        owned = gids >= 0
        return np.where(owned, gids, -1), owned

    def to_global_many(self, locals_) -> np.ndarray:
        return np.array(locals_, dtype=np.int64)


class ModuloMap(IdMap):
    """Round-robin ownership: node ``rank`` of ``nparts`` owns ``gid % nparts == rank``."""

    def __init__(self, nparts: int, rank: int):
        if nparts <= 0 or not 0 <= rank < nparts:
            raise ConfigError(f"invalid ModuloMap({nparts}, {rank})")
        self.nparts = nparts
        self.rank = rank

    def to_local(self, gid: int) -> int:
        gid = int(gid)
        if gid < 0 or gid % self.nparts != self.rank:
            raise ConfigError(f"vertex {gid} is not owned by rank {self.rank} of {self.nparts}")
        return gid // self.nparts

    def to_global(self, local: int) -> int:
        return int(local) * self.nparts + self.rank

    def to_local_many(self, gids) -> tuple[np.ndarray, np.ndarray]:
        gids = np.asarray(gids, dtype=np.int64)
        owned = (gids >= 0) & (gids % self.nparts == self.rank)
        locals_ = np.where(owned, gids // self.nparts, -1)
        return locals_, owned

    def to_global_many(self, locals_) -> np.ndarray:
        return np.asarray(locals_, dtype=np.int64) * self.nparts + self.rank

    def owns(self, gid: int) -> bool:
        return 0 <= int(gid) and int(gid) % self.nparts == self.rank
