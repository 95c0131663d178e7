"""Instance generators and measurement campaigns.

Point generators produce sorted, duplicate-free coordinates with gap
profiles that stress the verifier differently: near-uniform spacing,
tight clusters separated by wide gulfs, and exponentially varied gaps.
Failure models mirror the structures the construction defends against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .builder import build_spanner, edge_count_bound
from .closure import compute_closure, within_spec_bound
from .core import PointSet, make_point_set
from .scheme import build_scheme

POINT_MODELS = ("uniform", "clustered", "expgaps")
FAILURE_MODELS = ("random_k", "half_cluster_wipe", "interval_wipe")


def make_rng(seed: int, *key) -> np.random.Generator:
    """Deterministic generator derived from a seed and a context key."""
    return np.random.default_rng([int(seed), *[int(k) for k in key]])


def generate_points(n: int, model: str, seed: int) -> PointSet:
    """Sorted distinct coordinates; ``model`` picks the gap profile."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if model not in POINT_MODELS:
        raise ValueError(f"unknown point model {model!r}; choose from {POINT_MODELS}")
    rng = make_rng(seed, n, POINT_MODELS.index(model))

    def draw(k: int) -> np.ndarray:
        if model == "uniform":
            return rng.uniform(0.0, float(n), size=k)
        if model == "clustered":
            # tight bunches around scattered centres, spread tiny vs the gulf
            c = rng.integers(0, max(2, n // 8), size=k).astype(np.float64)
            return c * 1e3 + rng.normal(0.0, 1e-5, size=k)
        gaps = 10.0 ** rng.uniform(0.0, 6.0, size=k)
        return np.cumsum(gaps)

    # collisions are astronomically rare; redraw until n distinct values
    vals = np.unique(draw(n))
    while vals.size < n:
        vals = np.unique(np.concatenate([vals, draw(n - vals.size)]))
    return make_point_set(vals[:n])


def random_failures(n: int, k: int, seed: int) -> frozenset:
    """k distinct failed vertices chosen uniformly."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    rng = make_rng(seed, n, k)
    return frozenset(rng.choice(n, size=k, replace=False).tolist())


def half_cluster_wipe(scheme, layer: int, ordinal: int) -> frozenset:
    """Fail every vertex of one half-cluster (1-based ordinal)."""
    lo, hi = scheme.tile_bounds(layer)
    if not 1 <= ordinal <= len(lo):
        raise ValueError(
            f"half ordinal {ordinal} out of range 1..{len(lo)} at layer {layer}"
        )
    return frozenset(range(int(lo[ordinal - 1]), int(hi[ordinal - 1])))


def interval_wipe(n: int, lo: int, hi: int) -> frozenset:
    """Fail the index interval [lo, hi)."""
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"bad interval [{lo}, {hi}) for n={n}")
    return frozenset(range(lo, hi))


@dataclass(frozen=True)
class ScalingRow:
    """One size measurement of a built spanner."""

    n: int
    ell: int
    m: int
    edge_count: int
    bound_value: float
    ratio: float
    build_millis: float


def run_scaling(ns, ells, seed: int = 0, model: str = "uniform"):
    """Edge counts across a size sweep, plus a log-log slope per depth.

    Returns (rows, slopes) where slopes maps ell -> fitted exponent of
    edge_count against n. Rows where the construction degenerates to a
    complete graph are excluded from the fit.
    """
    rows = []
    for ell in ells:
        for n in ns:
            ps = generate_points(n, model, seed)
            scheme = build_scheme(n, ell)
            t0 = time.perf_counter()
            graph = build_spanner(ps, scheme)
            millis = (time.perf_counter() - t0) * 1e3
            bound = edge_count_bound(n, ell)
            rows.append(
                ScalingRow(
                    n=n,
                    ell=ell,
                    m=scheme.m,
                    edge_count=graph.edge_count,
                    bound_value=bound,
                    ratio=graph.edge_count / bound,
                    build_millis=millis,
                )
            )
    slopes = {}
    for ell in ells:
        pts = [
            (r.n, r.edge_count)
            for r in rows
            if r.ell == ell and r.m >= 2 and r.edge_count > 0
        ]
        if len(pts) >= 2:
            xs = np.log([p[0] for p in pts])
            ys = np.log([p[1] for p in pts])
            slopes[ell] = float(np.polyfit(xs, ys, 1)[0])
    return rows, slopes


@dataclass(frozen=True)
class ClosureTrialRow:
    """One closure growth measurement."""

    trial: int
    n: int
    ell: int
    k: int
    f_star_size: int
    ratio: float
    bound: float
    within_bound: bool


def run_closure_stats(n: int, ell: int, k: int, trials: int, seed: int = 0):
    """Growth of the ignored set over random failure draws.

    Returns (rows, offenders) where offenders lists trials whose
    |F*| / |F| ratio exceeds the 6^ell guarantee.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    scheme = build_scheme(n, ell)
    # float(6**ell) overflows from ell = 397 on, past the largest double
    bound = float(6**ell) if ell < 397 else math.inf
    rows = []
    for trial in range(trials):
        trace = compute_closure(scheme, make_rng(seed, trial).choice(n, k, replace=False))
        rows.append(
            ClosureTrialRow(
                trial=trial,
                n=n,
                ell=ell,
                k=k,
                f_star_size=trace.f_star_size,
                ratio=trace.f_star_size / trace.f_size,
                bound=bound,
                within_bound=within_spec_bound(trace),
            )
        )
    offenders = [r for r in rows if not r.within_bound]
    return rows, offenders


def summarize_closure(rows) -> dict:
    ratios = [r.ratio for r in rows]
    return {
        "trials": len(rows),
        "max_ratio": max(ratios),
        "mean_ratio": sum(ratios) / len(ratios),
        "bound": rows[0].bound,
        "offenders": sum(1 for r in rows if not r.within_bound),
    }
