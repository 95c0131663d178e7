"""Independent re-implementation of the single-layer construction.

Coded from the ground rules only, on purpose without reusing the
package's scheme machinery: cut the line into size-m tiles (last one
may be short), make every union of two consecutive tiles a clique,
and add a rank-aligned matching between every two tiles. Used as a
cross-check that the layered builder at depth 1 produces exactly the
same edge set. A plain depth-first monotone reach serves as the
reference the package's bitset reach is compared against.
"""

from __future__ import annotations


def simple_cluster_size_half(n: int) -> int:
    """Largest m with (2m)^2 <= n."""
    m = 0
    while (2 * (m + 1)) ** 2 <= n:
        m += 1
    return m


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
