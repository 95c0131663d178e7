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

``(n, ell)`` fix all of it, so nothing per cluster is stored: the tiles
of a layer are index arithmetic on ``(n, m, layer)``, computed in
``LayeredScheme.tile_bounds``, and the JSON form holds only ``n``,
``ell``, ``m`` and the mode.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import check_vertex


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


@dataclass(frozen=True)
class LayeredScheme:
    """Cluster layout for all layers of one (n, ell) instance.

    Only the parameters are held; ``tile_bounds`` derives each layer.
    Complete-graph mode has no tiles and is ``m == 0``.
    """

    n: int
    ell: int
    m: int

    @property
    def complete_mode(self) -> bool:
        return self.m == 0

    @property
    def mode(self) -> str:
        """``"complete"`` or ``"layered"``, as stored and printed."""
        return "complete" if self.complete_mode else "layered"

    def tile_of(self, layer: int, v: int) -> int:
        """Index into ``tile_bounds(layer)`` of the tile containing vertex v."""
        _check_layer(self, layer)
        check_vertex(self.n, v)
        if self.complete_mode:
            raise ValueError(f"complete mode (n={self.n}, ell={self.ell}) has no tiles")
        return v // self.tile_width(layer)

    def tile_width(self, layer: int) -> int:
        """Points in a full half-cluster of a layer, ``(2m)**layer // 2``; unchecked."""
        return (2 * self.m) ** layer // 2

    def tile_bounds(self, layer: int) -> tuple:
        """``(lo, hi)`` arrays of the half-cluster tiles of a layer, left to right.

        Tile ``k`` starts at ``k`` half-clusters of ``(2m)**layer // 2``
        points, for every start below ``n``; only the last may be short.
        Cluster ``j`` (ordinal ``j + 1``) spans tiles ``j`` and ``j + 1``,
        ``(lo[j], hi[j + 1])``. Both arrays are empty in complete mode.
        """
        _check_layer(self, layer)
        if self.complete_mode:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        half = self.tile_width(layer)
        lo = np.arange(0, self.n, half, dtype=np.int64)
        return lo, np.minimum(lo + half, self.n)


def _check_layer(s: LayeredScheme, layer: int) -> None:
    if not 1 <= layer <= s.ell:
        raise ValueError(f"layer {layer} outside [1, {s.ell}]")


def choose_m(n: int, ell: int) -> int:
    """Largest m >= 0 with (2m)**(ell+1) <= n (0 when even m=1 is too big)."""
    e = ell + 1
    if n < 1 or n.bit_length() <= e:  # n < 2**e: the root is below 2
        return 0
    # Newton's step on integers from above; stops at floor(n ** (1 / e))
    root = 1 << -(-n.bit_length() // e)
    while True:
        step = ((e - 1) * root + n // root ** (e - 1)) // e
        if step >= root:
            return root // 2
        root = step


def choose_ell_for_epsilon(epsilon: float) -> int:
    """Smallest depth whose edge-count exponent is within 1 + epsilon."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    # The 1e-9 slack keeps float noise at integer boundaries from bumping
    # the ceiling (e.g. epsilon = 1/3).
    return max(1, math.ceil((1.0 - epsilon) / epsilon - 1e-9))


def build_scheme(n: int, ell: int) -> LayeredScheme:
    """Lay out clusters for all layers, or flag complete-graph mode."""
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    if not 1 <= ell < 2**63 - 1:  # ell + 1 is a closure layer, stored as int64
        raise ValueError(f"depth must lie in [1, 2**63 - 1), got ell={ell}")
    m = choose_m(n, ell)
    return LayeredScheme(n, ell, m if m >= 2 else 0)


def half_clusters_of_layer(s: LayeredScheme, layer: int, tiles=None) -> tuple:
    """Distinct half-cluster tiles of a layer, left to right, built on demand.

    ``tiles`` lists the 0-based indices of the tiles wanted, ascending; by
    default every tile. Every tile ``k`` but the last starts cluster
    ``k + 1``; the last is the right half of the last cluster.
    """
    lo, hi = (b.tolist() for b in s.tile_bounds(layer))
    last = len(lo) - 1
    return tuple(
        HalfClusterRef(layer, k + 1 if k < last else k, "L" if k < last else "R", lo[k], hi[k])
        for k in (range(len(lo)) if tiles is None else tiles)
    )


def scheme_to_json(s: LayeredScheme) -> str:
    """The scheme as its four parameters: ``n``, ``ell``, ``m`` and the mode."""
    return json.dumps({"n": s.n, "ell": s.ell, "m": s.m, "mode": s.mode}, indent=2)


def scheme_from_json(text: str) -> LayeredScheme:
    """Rebuild a scheme from its four stored parameters and check them.

    A document that is not JSON, nests too deeply to parse, is not an
    object with exactly the keys ``n``, ``ell``, ``m`` and ``mode`` (an
    older per-cluster ``layers`` listing included), stores a non-integer
    ``n``, ``ell`` or ``m``, or an ``m`` or mode unlike ``build_scheme``'s
    raises ``ValueError``. Nothing is laid out, so a huge size allocates nothing.
    """
    try:
        doc = json.loads(text)
        if type(doc) is not dict or doc.keys() != {"n", "ell", "m", "mode"}:
            raise TypeError("expected an object with exactly the keys n, ell, m and mode")
        n, ell, m = doc["n"], doc["ell"], doc["m"]
        if type(n) is not int or type(ell) is not int or type(m) is not int:
            raise TypeError(f"n={n!r}, ell={ell!r} and m={m!r} must be integers")
    except (TypeError, RecursionError) as exc:
        raise ValueError(f"malformed stored scheme ({type(exc).__name__}: {exc})") from exc
    s = build_scheme(n, ell)
    if m != s.m or doc["mode"] != s.mode:
        raise ValueError("stored scheme does not match its own parameters")
    return s
