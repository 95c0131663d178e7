"""Half-overlapping cluster layouts, layer by layer.

A layout for ``n`` points with depth ``ell`` picks the unique ``m`` with
``(2m)**(ell+1) <= n < (2m+2)**(ell+1)``. Layer ``i`` (1-based, up to
``ell``) tiles the index range with clusters of ``(2m)**i`` consecutive
vertices whose starts step by half a cluster, so neighbouring clusters
share exactly half their points. Each cluster splits in the middle into a
left and a right half-cluster; the right half of one cluster is the left
half of the next, so the distinct half-clusters of a layer tile [0, n).

When ``n`` is not a perfect power, regular clusters are appended as long
as they fit, and if indices remain uncovered one trailing cluster is
added: its left half is a regular half, its right half holds the few
leftover indices. When ``n`` is too small for ``m >= 2`` the layout
degenerates and the spanner falls back to the complete graph.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import check_vertex


class LayerOutOfRange(ValueError):
    """A layer index falls outside [1, ell]."""


class InvalidEpsilon(ValueError):
    """Exponent slack must lie in (0, 1]."""


@dataclass(frozen=True)
class ClusterRef:
    """One cluster: ``ordinal`` is its 1-based rank within its layer."""

    layer: int
    ordinal: int
    lo: int
    hi: int

    @property
    def size(self) -> int:
        return self.hi - self.lo

    def contains(self, v: int) -> bool:
        return self.lo <= v < self.hi


@dataclass(frozen=True)
class HalfClusterRef:
    """Half of a cluster; ``ordinal``/``side`` name one owning cluster.

    Interior halves belong to two clusters (right half of one, left half
    of the next); the label picks the left-half reading when it exists.
    """

    layer: int
    ordinal: int
    side: Literal["L", "R"]
    lo: int
    hi: int

    @property
    def size(self) -> int:
        return self.hi - self.lo

    def contains(self, v: int) -> bool:
        return self.lo <= v < self.hi


@dataclass(frozen=True)
class LayeredScheme:
    """Cluster layout for all layers of one (n, ell) instance.

    ``layers[i-1]`` and ``halves[i-1]`` hold the clusters and the distinct
    half-cluster tiles of layer ``i``, left to right. Both are empty in
    complete-graph mode (``m`` reported as 0).
    """

    n: int
    ell: int
    m: int
    complete_mode: bool
    layers: tuple
    halves: tuple

    def tile_of(self, layer: int, v: int) -> int:
        """Index into ``halves[layer-1]`` of the tile containing vertex v."""
        _check_layer(self, layer)
        check_vertex(self.n, v)
        if self.complete_mode:
            raise ValueError(f"complete mode (n={self.n}, ell={self.ell}) has no tiles")
        tiles = self.halves[layer - 1]
        half = (2 * self.m) ** layer // 2
        return min(v // half, len(tiles) - 1)

    def tile_bounds(self, layer: int) -> tuple:
        """``(lo, hi)`` arrays of the tiles ``halves[layer-1]``, left to right.

        Tile ``k`` starts at ``k`` half-clusters; only the last may be short.
        Cluster ``j`` of the layer spans tiles ``j`` and ``j+1``. Both arrays
        are empty in complete mode.
        """
        _check_layer(self, layer)
        if self.complete_mode:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        half = (2 * self.m) ** layer // 2
        lo = np.arange(len(self.halves[layer - 1]), dtype=np.int64) * half
        return lo, np.minimum(lo + half, self.n)


def _check_layer(s: LayeredScheme, layer: int) -> None:
    if not 1 <= layer <= s.ell:
        raise LayerOutOfRange(f"layer {layer} outside [1, {s.ell}]")


def choose_m(n: int, ell: int) -> int:
    """Largest m >= 0 with (2m)**(ell+1) <= n (0 when even m=1 is too big)."""
    m = 0
    while (2 * (m + 1)) ** (ell + 1) <= n:
        m += 1
    return m


def choose_ell_for_epsilon(epsilon: float) -> int:
    """Smallest depth whose edge-count exponent is within 1 + epsilon."""
    if not 0.0 < epsilon <= 1.0:
        raise InvalidEpsilon(f"epsilon must lie in (0, 1], got {epsilon}")
    # The 1e-9 slack keeps float noise at integer boundaries from bumping
    # the ceiling (e.g. epsilon = 1/3).
    return max(1, math.ceil((1.0 - epsilon) / epsilon - 1e-9))


def _layout(n: int, size: int):
    """Spans and half-tiles for one layer; returns (spans, tiles)."""
    half = size // 2
    spans = [(s, s + size) for s in range(0, n - size + 1, half)]
    full_end = spans[-1][1]
    if full_end < n:
        spans.append((full_end - half, n))
    tiles = [(k * half, (k + 1) * half) for k in range(full_end // half)]
    if full_end < n:
        tiles.append((full_end, n))
    return spans, tiles


def build_scheme(n: int, ell: int) -> LayeredScheme:
    """Lay out clusters for all layers, or flag complete-graph mode."""
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    if ell < 1:
        raise ValueError(f"depth must be at least 1, got ell={ell}")
    m = choose_m(n, ell)
    if m < 2:
        return LayeredScheme(n, ell, 0, True, (), ())

    layers = []
    halves = []
    for layer in range(1, ell + 1):
        size = (2 * m) ** layer
        spans, tiles = _layout(n, size)
        clusters = tuple(
            ClusterRef(layer, j + 1, lo, hi) for j, (lo, hi) in enumerate(spans)
        )
        start_ordinal = {c.lo: c.ordinal for c in clusters}
        end_ordinal = {c.hi: c.ordinal for c in clusters}
        refs = []
        for lo, hi in tiles:
            if lo in start_ordinal:
                refs.append(HalfClusterRef(layer, start_ordinal[lo], "L", lo, hi))
            else:
                refs.append(HalfClusterRef(layer, end_ordinal[hi], "R", lo, hi))
        layers.append(clusters)
        halves.append(tuple(refs))
    return LayeredScheme(n, ell, m, False, tuple(layers), tuple(halves))


def clusters_of_layer(s: LayeredScheme, layer: int) -> tuple:
    if s.complete_mode:
        return ()
    _check_layer(s, layer)
    return s.layers[layer - 1]


def half_clusters_of_layer(s: LayeredScheme, layer: int) -> tuple:
    """Distinct half-cluster tiles of a layer, deduplicated left to right."""
    if s.complete_mode:
        return ()
    _check_layer(s, layer)
    return s.halves[layer - 1]


def containing_clusters(s: LayeredScheme, layer: int, lo: int, hi: int) -> tuple:
    """All clusters of ``layer`` whose span contains [lo, hi).

    Cluster starts and ends both rise left to right, so the clusters ending
    at or after ``hi`` form a suffix, those starting at or before ``lo`` a
    prefix, and the answer is their overlap. Complete mode has no clusters.
    """
    if s.complete_mode:
        return ()
    _check_layer(s, layer)
    clusters = s.layers[layer - 1]
    first = bisect_left(clusters, hi, key=lambda c: c.hi)
    stop = bisect_right(clusters, lo, key=lambda c: c.lo)
    return clusters[first:stop]


def scheme_to_json(s: LayeredScheme) -> str:
    doc = {
        "n": s.n,
        "ell": s.ell,
        "m": s.m,
        "mode": "complete" if s.complete_mode else "layered",
        "layers": [
            {
                "layer": i + 1,
                "clusters": [
                    {"ordinal": c.ordinal, "lo": c.lo, "hi": c.hi} for c in layer
                ],
            }
            for i, layer in enumerate(s.layers)
        ],
    }
    return json.dumps(doc, indent=2)


def scheme_from_json(text: str) -> LayeredScheme:
    """Rebuild a scheme from its JSON form, checking the stored layout.

    A document that is not JSON, lacks a key, nests the wrong types or
    stores an infinite size raises ``ValueError`` like a layout that does
    not match.
    """
    doc = json.loads(text)
    try:
        s = build_scheme(int(doc["n"]), int(doc["ell"]))
        if doc["m"] != s.m or doc["mode"] != ("complete" if s.complete_mode else "layered"):
            raise ValueError("stored scheme does not match its own parameters")
        stored = [
            [(c["ordinal"], c["lo"], c["hi"]) for c in layer["clusters"]]
            for layer in doc["layers"]
        ]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed stored scheme ({type(exc).__name__}: {exc})") from exc
    built = [[(c.ordinal, c.lo, c.hi) for c in layer] for layer in s.layers]
    if stored != built:
        raise ValueError("stored cluster layout does not match its own parameters")
    return s
