"""Spanner edge sets: bottom-layer cliques plus half-cluster matchings.

The graph over a layout contains, deduplicated into one edge set:

* a clique inside every layer-1 cluster,
* for each layer ``i >= 2`` cluster, a matching between every pair of
  layer ``i-1`` half-clusters it fully contains,
* a matching between every pair of top-layer half-clusters.

Matchings pair points by rank (k-th smallest with k-th smallest); when
the two halves differ in size the smaller side is matched completely.
In complete-graph mode the edge set is simply all pairs.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import PointSet
from .scheme import LayeredScheme


# rows per write in write_edge_list
_WRITE_ROWS = 1 << 16


class SchemeMismatch(ValueError):
    """A graph, point set, or scheme disagree on the number of vertices."""


class SpannerGraph:
    """Undirected graph on vertices 0..n-1 with a deduplicated edge set.

    The graph is held as three read-only arrays: ``edges``, the (E, 2) edge
    list with u < v in lexicographic order, ``keys``, its sorted keys
    ``u * n + v``, and ``indptr``, where row u of
    ``edges[indptr[u]:indptr[u+1], 1]`` lists u's higher neighbours. Together
    they are a CSR of the upper triangle. Edge weights are never stored; any
    consumer derives them from point coordinates. ``provenance`` (optional)
    maps an edge to the first construction rule that produced it.
    """

    def __init__(self, n: int, edges, provenance: dict | None = None):
        self.n = int(n)
        if not isinstance(edges, np.ndarray):
            edges = np.array(list(edges), dtype=object)
        # an object array keeps each endpoint's own type, so 0.5, True or "2"
        # is refused here instead of read as 0, 1 or 2
        whole = edges.dtype.kind in "iu" or (edges.dtype == object and all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in edges.flat
        ))
        if edges.size and not whole:
            raise ValueError("edge endpoints must be integers")
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must be vertex pairs, got shape {edges.shape}")
        try:
            # an unsigned endpoint past int64 would wrap round, not overflow
            if edges.dtype.kind == "u" and edges.size and edges.max() >= np.uint64(2**63):
                raise OverflowError
            arr = np.asarray(edges, dtype=np.int64)
        except OverflowError:  # an endpoint past int64: the range check below names its edge
            arr = edges
        keys = np.minimum(arr[:, 0], arr[:, 1])
        high = np.maximum(arr[:, 0], arr[:, 1])
        bad = (keys == high) | (keys < 0) | (high >= self.n)
        if bad.any():
            a, b = arr[int(np.argmax(bad))].tolist()
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            raise SchemeMismatch(f"edge ({a}, {b}) outside vertex range [0, {self.n})")
        # one key u * n + v per edge, built and sorted in place to bound the peak
        keys *= self.n
        keys += high
        del high, bad
        keys.sort()
        first = np.empty(keys.size, dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        out = np.empty((keys.size, 2), dtype=np.int64)
        np.divmod(keys, self.n, out=(out[:, 0], out[:, 1]))
        indptr = np.searchsorted(out[:, 0], np.arange(self.n + 1))
        for a in (out, keys, indptr):
            a.flags.writeable = False
        self.edges, self.keys, self.indptr = out, keys, indptr
        self.provenance = provenance

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    @cached_property
    def edge_set(self) -> frozenset:
        return frozenset(map(tuple, self.edges.tolist()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpannerGraph)
            and self.n == other.n
            and np.array_equal(self.edges, other.edges)
        )

    def __repr__(self) -> str:
        return f"SpannerGraph(n={self.n}, edges={self.edge_count})"


def _pairs_within(lo, hi):
    """Every pair a < b with lo[i] <= a < b < hi[i], run by run, as two arrays."""
    out_a, out_b = [], []
    sizes = hi - lo
    for size in np.unique(sizes).tolist():
        first = lo[sizes == size][:, None]
        a, b = np.triu_indices(size, 1)
        out_a.append((first + a).ravel())
        out_b.append((first + b).ravel())
    return np.concatenate(out_a), np.concatenate(out_b)


def _matchings(lo, hi, a, b):
    """Rank-aligned matchings between tiles a[i] < b[i], truncated to the smaller."""
    length = np.minimum(hi[a] - lo[a], hi[b] - lo[b])
    rank = np.arange(int(length.sum())) - np.repeat(np.cumsum(length) - length, length)
    return np.repeat(lo[a], length) + rank, np.repeat(lo[b], length) + rank


def build_spanner(
    ps: PointSet, scheme: LayeredScheme, with_provenance: bool = False
) -> SpannerGraph:
    """Assemble the deduplicated edge set for a point set and its layout.

    Cluster ``j`` of a layer spans its tiles ``j`` and ``j+1``, so cluster
    bounds are read off ``scheme.tile_bounds``; the lower-layer tiles inside
    a cluster form a contiguous run found by binary search on tile bounds.
    """
    if ps.n != scheme.n:
        raise SchemeMismatch(f"point set has n={ps.n} but scheme was built for n={scheme.n}")
    n = scheme.n
    if scheme.complete_mode:
        rules = [("complete", _pairs_within(np.array([0]), np.array([n])))]
    else:
        lo, hi = scheme.tile_bounds(1)
        rules = [("clique-layer-1", _pairs_within(lo[:-1], hi[1:]))]
        for layer in range(2, scheme.ell + 1):
            c_lo, c_hi = scheme.tile_bounds(layer)
            first = np.searchsorted(lo, c_lo[:-1])
            stop = np.searchsorted(hi, c_hi[1:], side="right")
            pairs = _pairs_within(first, stop)
            rules.append((f"matching-layer-{layer}", _matchings(lo, hi, *pairs)))
            lo, hi = c_lo, c_hi
        top = _pairs_within(np.array([0]), np.array([lo.size]))
        rules.append(("matching-top", _matchings(lo, hi, *top)))

    tags = [tag for tag, _ in rules]
    sizes = [a.size for _, (a, _) in rules]
    pairs = np.empty((sum(sizes), 2), dtype=np.int64)
    np.concatenate([a for _, (a, _) in rules], out=pairs[:, 0])
    np.concatenate([b for _, (_, b) in rules], out=pairs[:, 1])
    del rules
    prov = None
    if with_provenance:
        rule = np.repeat(np.arange(len(tags)), sizes)
        keys = pairs[:, 0] * n + pairs[:, 1]
        order = np.argsort(keys, kind="stable")
        first = np.diff(keys[order], prepend=-1) != 0
        u, v, rule = (col[order][first].tolist() for col in (*pairs.T, rule))
        prov = {(a, b): tags[r] for a, b, r in zip(u, v, rule)}
    return SpannerGraph(n, pairs, prov)


def edge_count_bound(n: int, ell: int) -> float:
    """Target edge budget ell * n**((ell+2)/(ell+1)) for a depth-ell build."""
    return float(ell) * float(n) ** ((ell + 2) / (ell + 1))


def write_edge_list(graph: SpannerGraph, path: str | Path) -> None:
    """One ``u v`` pair per line, sorted; blank lines and # comments allowed.

    Rows are written ``_WRITE_ROWS`` at a time, so the temporaries stay the
    size of one chunk whatever the edge count.
    """
    n, edges = graph.n, graph.edges
    # word v reads "v " and word n + v reads "v\n", so edge (u, v) picks words u and n + v
    words = np.array([f"{v} " for v in range(n)] + [f"{v}\n" for v in range(n)], dtype=object)
    with Path(path).open("w") as out:
        for i in range(0, len(edges), _WRITE_ROWS):
            out.write("".join(words[edges[i : i + _WRITE_ROWS] + [0, n]].ravel().tolist()))


def read_edge_list(path: str | Path, n: int | None = None) -> SpannerGraph:
    """Read a ``u v`` per line file; n defaults to 1 + the largest endpoint.

    Every non-blank, non-comment row must hold exactly two integers,
    separated by ASCII whitespace. The file is decoded as Latin-1, one
    character per byte, so a comment may hold any bytes and numpy's parser
    never sees a character past U+00FF: numpy 2.4's crashes on some of them.
    """
    with warnings.catch_warnings():
        # An empty or comment-only file is an edgeless graph, not a mistake.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        edges = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2, encoding="latin1")
    if n is None:
        n = 1 + int(edges.max(initial=-1))
    return SpannerGraph(n, edges)
