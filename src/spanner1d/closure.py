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
from .scheme import HalfClusterRef, LayeredScheme


@dataclass(frozen=True)
class ClosureTrace:
    """Snapshots F_0 .. F_ell of the growing ignored set plus every triggering tile."""

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
        lost = csum[hi] - csum[lo]
        # every tile is a full half-cluster except possibly a short last one
        hit = lost >= half_threshold(int(hi[0] - lo[0]))
        hit[-1] = lost[-1] >= half_threshold(int(hi[-1] - lo[-1]))
        los, his = lo.tolist(), hi.tolist()
        last = len(los) - 1
        # the counts are taken, so growing in place keeps the snapshot rule
        for k in np.flatnonzero(hit).tolist():
            triggered.append(HalfClusterRef.of_tile(layer, k, last, los[k], his[k]))
            # tile k lies in clusters k-1 and k, which cover tiles k-1 .. k+1
            failed[los[max(k - 1, 0)] : his[min(k + 1, last)]] = True
        per_layer.append(frozenset(np.flatnonzero(failed).tolist()))
    return ClosureTrace(tuple(per_layer), tuple(triggered))


def within_spec_bound(trace: ClosureTrace) -> bool:
    """True iff |F*| <= 6**ell * |F|, the guaranteed growth bound."""
    f_star = len(trace.f_star)
    # past the bit length of |F*|, 6**ell > |F*|, and |F| >= 1 whenever |F*| >= 1
    return f_star <= 6 ** min(trace.ell, f_star.bit_length()) * len(trace.failures)
