"""Failure-set closure: grow F into the ignored set F* layer by layer.

Layer ``i`` looks at the failure set accumulated through layer ``i-1``
(a snapshot; additions made at layer ``i`` never feed back into the same
layer's triggers). Any half-cluster that lost at least half of its
points, counted against its actual size with the odd case rounded up,
drags every layer-``i`` cluster containing it into the ignored set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_failures
from .scheme import LayeredScheme, containing_clusters


@dataclass(frozen=True)
class TriggerEvent:
    """One half-cluster crossing its failure threshold at one layer."""

    layer: int
    half: object
    clusters: tuple

    @property
    def added(self) -> frozenset:
        out = set()
        for c in self.clusters:
            out.update(range(c.lo, c.hi))
        return frozenset(out)


@dataclass(frozen=True)
class ClosureTrace:
    """Snapshots F_0 .. F_ell of the growing ignored set plus all triggers."""

    per_layer: tuple
    triggered: tuple

    @property
    def failures(self) -> frozenset:
        return self.per_layer[0]

    @property
    def f_star(self) -> frozenset:
        return self.per_layer[-1]

    @property
    def ell(self) -> int:
        return len(self.per_layer) - 1


def half_threshold(size: int) -> int:
    """Failure count at which a half-cluster of ``size`` points triggers."""
    return (size + 1) // 2


def compute_closure(scheme: LayeredScheme, failures) -> ClosureTrace:
    """Run the per-layer majority rule and record every snapshot."""
    fs = check_failures(failures, scheme.n)
    if scheme.complete_mode:
        # No cluster structure: nothing beyond the failures is ignored.
        return ClosureTrace((fs,) * (scheme.ell + 1), ())

    per_layer = [fs]
    triggered = []
    failed = np.zeros(scheme.n, dtype=bool)
    failed[list(fs)] = True
    for layer in range(1, scheme.ell + 1):
        csum = np.concatenate(([0], np.cumsum(failed)))
        lo, hi = scheme.tile_bounds(layer)
        # half_threshold takes one size; tiles come in at most two sizes
        sizes, tile_size = np.unique(hi - lo, return_inverse=True)
        threshold = np.array([half_threshold(s) for s in sizes.tolist()])[tile_size]
        hits = np.flatnonzero(csum[hi] - csum[lo] >= threshold)
        grown = failed.copy()
        for k in hits.tolist():
            half = scheme.halves[layer - 1][k]
            owners = containing_clusters(scheme, layer, half.lo, half.hi)
            triggered.append(TriggerEvent(layer, half, owners))
            for c in owners:
                grown[c.lo : c.hi] = True
        failed = grown
        per_layer.append(frozenset(np.flatnonzero(failed).tolist()))
    return ClosureTrace(tuple(per_layer), tuple(triggered))


def within_spec_bound(trace: ClosureTrace) -> bool:
    """True iff |F*| <= 6**ell * |F|, the guaranteed growth bound."""
    return len(trace.f_star) <= 6**trace.ell * len(trace.failures)
