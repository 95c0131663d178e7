"""Failure-set closure: grow F into the ignored set F* layer by layer.

Layer ``i`` looks at the failure set accumulated through layer ``i-1``
(a snapshot; additions made at layer ``i`` never feed back into the same
layer's triggers). Any half-cluster that lost at least half of its
points, counted against its actual size with the odd case rounded up,
drags every layer-``i`` cluster containing it into the ignored set.

Every addition is a whole tile, and a layer-``i`` tile is a run of
``(2m)**(i-1)`` layer-1 tiles, so the rule runs on layer-1 tiles, each
holding the layer it joined at and its survivors in the snapshot (none
once it has joined). A layer sums them over its runs with one
``np.add.reduceat``; the vertices' layers are expanded once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import failure_indices
from .scheme import LayeredScheme, half_clusters_of_layer


@dataclass(frozen=True, eq=False)
class ClosureTrace:
    """The layer at which each vertex joined the ignored set, and the tiles that triggered.

    ``joined[v]`` is 0 for a failure, the layer that added ``v``, or
    ``ell + 1`` when ``v`` never joins, so ``F_i`` is ``joined <= i``.
    ``hits[i - 1]`` indexes the tiles that triggered at layer ``i``, and
    ``f_size``, ``f_star_size`` count F and F*. Sets are built on first read.
    """

    scheme: LayeredScheme
    joined: np.ndarray
    hits: tuple
    f_size: int
    f_star_size: int

    @property
    def ell(self) -> int:
        return self.scheme.ell

    @cached_property
    def failures(self) -> frozenset:
        return _members(self.joined == 0)

    @cached_property
    def f_star(self) -> frozenset:
        return _members(self.joined <= self.ell)

    @cached_property
    def triggered(self) -> tuple:
        """Every triggering tile as a ``HalfClusterRef``, layer by layer, left to right."""
        layers = enumerate(self.hits, 1)
        return tuple(t for i, ks in layers for t in half_clusters_of_layer(self.scheme, i, ks))


def _members(mask: np.ndarray) -> frozenset:
    return frozenset(np.flatnonzero(mask).tolist())


def half_threshold(size: int) -> int:
    """Failure count at which a half-cluster of ``size`` points triggers."""
    return (size + 1) // 2


def compute_closure(scheme: LayeredScheme, failures) -> ClosureTrace:
    """Grow F layer by layer on layer-1 tiles, recording the layer each vertex joins at."""
    n, ell, m = scheme.n, scheme.ell, scheme.m
    idx = failure_indices(failures, n)
    alive = np.ones(n, dtype=bool)
    alive[idx] = False  # repeated members count once
    f_size = n - int(np.count_nonzero(alive))
    if scheme.complete_mode:
        # No cluster structure: nothing beyond the failures is ignored.
        joined = np.multiply(alive, np.int64(ell + 1), dtype=np.int64)
        return ClosureTrace(scheme, joined, (), f_size, f_size)

    kept1 = np.add.reduceat(alive, np.arange(0, n, m), dtype=np.int64)
    tile_joined = np.full(len(kept1), np.int64(ell + 1))
    hits = []
    for layer in range(1, ell + 1):
        width = scheme.tile_width(layer)
        run = width // m  # layer-1 tiles per tile of this layer
        # counted on F_{layer-1}, before this layer grows it: the snapshot rule
        kept = np.add.reduceat(kept1, np.arange(0, len(kept1), run))
        # every tile is a full half-cluster except possibly a short last one
        hit = width - kept >= half_threshold(width)
        last = n - (len(kept) - 1) * width
        hit[-1] = last - kept[-1] >= half_threshold(last)
        hits.append(np.flatnonzero(hit).tolist())
        # tile k lies in clusters k-1 and k, which cover tiles k-1 .. k+1
        grow = hit.copy()
        grow[1:] |= hit[:-1]
        grow[:-1] |= hit[1:]
        # a tile keeps the first layer it joined at, and no survivor once joined
        grow = np.repeat(grow, run)[: len(kept1)]
        np.minimum(tile_joined, layer, out=tile_joined, where=grow)
        np.copyto(kept1, 0, where=grow)
    joined = np.repeat(tile_joined, m)[:n]
    joined[idx] = 0
    return ClosureTrace(scheme, joined, tuple(hits), f_size, n - int(kept1.sum()))


def within_spec_bound(trace: ClosureTrace) -> bool:
    """True iff |F*| <= 6**ell * |F|, the guaranteed growth bound."""
    f_star = trace.f_star_size
    # past the bit length of |F*|, 6**ell > |F*|, and |F| >= 1 whenever |F*| >= 1
    return f_star <= 6 ** min(trace.ell, f_star.bit_length()) * trace.f_size
