"""Independent re-implementations of the layout and the single-layer construction.

Coded from the ground rules only, on purpose without reusing the
package's scheme machinery. The layout follows the rules stated in the
``spanner1d.scheme`` docstring: clusters of ``(2m)**i`` points start
every half cluster while they fit, and one trailing cluster takes the
leftover indices. The construction cuts the line into size-m tiles
(last one may be short), makes every union of two consecutive tiles a
clique, and adds a rank-aligned matching between every two tiles. Used
as a cross-check of the package's layout, closure and builder. A plain
depth-first monotone reach serves as the reference the package's bitset
reach is compared against.
"""

from __future__ import annotations


def simple_cluster_size_half(n: int, ell: int = 1) -> int:
    """Largest m with (2m)^(ell+1) <= n."""
    m = 0
    while (2 * (m + 1)) ** (ell + 1) <= n:
        m += 1
    return m


def simple_layout(n: int, size: int):
    """Clusters and half-cluster tiles of one layer with clusters of ``size`` points.

    Regular clusters start every ``size // 2`` indices as long as they fit.
    If indices remain uncovered, one trailing cluster is added: its left
    half is a regular half, its right half holds the leftover indices. The
    tiles are the distinct halves, left to right. Returns ``(spans, tiles)``,
    two lists of ``(lo, hi)``.
    """
    half = size // 2
    spans = [(s, s + size) for s in range(0, n - size + 1, half)]
    full_end = spans[-1][1]
    if full_end < n:
        spans.append((full_end - half, n))
    tiles = [(k * half, (k + 1) * half) for k in range(full_end // half)]
    if full_end < n:
        tiles.append((full_end, n))
    return spans, tiles


def simple_layers(n: int, ell: int) -> list:
    """``simple_layout`` of every layer 1..ell, or ``[]`` when m < 2 (complete graph)."""
    m = simple_cluster_size_half(n, ell)
    if m < 2:
        return []
    return [simple_layout(n, (2 * m) ** layer) for layer in range(1, ell + 1)]


def simple_tile_labels(spans, tiles) -> list:
    """``(ordinal, side, lo, hi)`` per tile: the left half of the cluster it
    starts if any, else the right half of the cluster it ends (1-based)."""
    starts = {lo: j + 1 for j, (lo, _) in enumerate(spans)}
    ends = {hi: j + 1 for j, (_, hi) in enumerate(spans)}
    return [
        (starts[lo], "L", lo, hi) if lo in starts else (ends[hi], "R", lo, hi)
        for lo, hi in tiles
    ]


def simple_closure(n: int, ell: int, failures) -> tuple:
    """Per-layer ignored sets F_0 .. F_ell and the triggering tiles.

    At each layer, every tile that lost at least half its points (odd
    sizes rounded up), counted on the previous layer's set, adds every
    cluster of the layer whose span contains it. Triggers are
    ``(layer, lo, hi)``. In complete mode nothing is added.
    """
    layers = simple_layers(n, ell)
    current = set(failures)
    per_layer = [frozenset(current)]
    triggered = []
    for layer in range(1, ell + 1):
        snapshot = frozenset(current)
        if layers:
            spans, tiles = layers[layer - 1]
            for lo, hi in tiles:
                if sum(v in snapshot for v in range(lo, hi)) >= (hi - lo + 1) // 2:
                    triggered.append((layer, lo, hi))
                    for a, b in spans:
                        if a <= lo and hi <= b:
                            current.update(range(a, b))
        per_layer.append(frozenset(current))
    return per_layer, triggered


def simple_spanner_edges(n: int) -> set:
    """Deduplicated edge set of the single-layer construction."""
    m = simple_cluster_size_half(n)
    if m < 2:
        return {(u, v) for u in range(n) for v in range(u + 1, n)}
    cuts = list(range(0, n, m))
    if cuts[-1] != n:
        cuts.append(n)
    tiles = [list(range(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
    edges = set()
    for a, b in zip(tiles, tiles[1:]):
        block = a + b
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                edges.add((u, v))
    for i, a in enumerate(tiles):
        for b in tiles[i + 1 :]:
            edges.update(zip(a, b))
    return edges


def monotone_reach_up(graph, removed, x: int) -> set:
    """Alive vertices joined to ``x`` by a path whose indices only rise.

    A depth-first search read straight off ``graph.edges``, independent of
    the package's bitset reach: each step follows an edge to a higher,
    alive endpoint. ``x`` is included; it must itself be alive.
    """
    steps = {}
    for u, v in graph.edges.tolist():
        steps.setdefault(u, []).append(v)
        steps.setdefault(v, []).append(u)
    out = {x}
    stack = [x]
    while stack:
        v = stack.pop()
        for w in steps.get(v, ()):
            if w > v and w not in removed and w not in out:
                out.add(w)
                stack.append(w)
    return out
