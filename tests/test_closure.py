import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spanner1d as sp
from reference_simple import simple_closure, simple_layers
from spanner1d.closure import ClosureTrace, compute_closure, half_threshold, within_spec_bound
from spanner1d.core import failure_indices
from spanner1d.experiments import make_rng


def layer_snapshots(trace):
    """The snapshots F_0 .. F_ell, each the vertices that joined by its layer."""
    return [frozenset(np.flatnonzero(trace.joined <= i).tolist()) for i in range(trace.ell + 1)]


def test_half_threshold_rounds_up():
    assert [half_threshold(s) for s in range(1, 8)] == [1, 1, 2, 2, 3, 3, 4]


def test_empty_failures_stay_empty():
    for n, ell in [(16, 1), (216, 2), (8, 1)]:
        trace = compute_closure(sp.build_scheme(n, ell), frozenset())
        assert trace.f_star == frozenset()
        assert trace.triggered == ()


def test_complete_mode_adds_nothing():
    trace = compute_closure(sp.build_scheme(10, 1), frozenset({2, 5}))
    assert trace.f_star == frozenset({2, 5})
    assert layer_snapshots(trace) == [frozenset({2, 5})] * 2
    assert trace.triggered == ()


def test_single_failure_golden():
    """One failure in a size-2 half drags in both owning clusters, nothing more.

    The additions {0..5} would re-trigger further halves if they fed back
    into the same layer; the snapshot rule stops exactly here.
    """
    trace = compute_closure(sp.build_scheme(16, 1), frozenset({3}))
    assert trace.f_star == frozenset(range(6))
    assert len(trace.triggered) == 1
    tile = trace.triggered[0]
    assert (tile.layer, tile.ordinal, tile.side, tile.lo, tile.hi) == (1, 2, "L", 2, 4)
    spans, _ = simple_layers(16, 1)[0]
    owners = [(a, b) for a, b in spans if a <= tile.lo and tile.hi <= b]
    assert owners == [(0, 4), (2, 6)]


def test_two_failures_golden():
    trace = compute_closure(sp.build_scheme(16, 1), frozenset({3, 7}))
    assert trace.f_star == frozenset(range(10))


def test_below_threshold_is_inert():
    # halves of size 7 need four failures to trigger
    scheme = sp.build_scheme(196, 1)
    fs = frozenset({10, 11, 12})
    trace = compute_closure(scheme, fs)
    assert trace.f_star == fs


def test_cascade_reaches_higher_layer():
    scheme = sp.build_scheme(64, 2)
    trace = compute_closure(scheme, frozenset({0, 1}))
    layers_hit = {ev.layer for ev in trace.triggered}
    assert layers_hit == {1, 2}
    snapshots = layer_snapshots(trace)
    assert snapshots[0] < snapshots[1] < snapshots[2]


def test_complete_mode_depth_builds_nothing_per_layer():
    """A depth of 30 million in complete mode costs no memory per layer."""
    tracemalloc.start()
    try:
        trace = compute_closure(sp.build_scheme(16, 30_000_000), {3})
        assert trace.f_star_size == 1
        assert within_spec_bound(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"peak {peak} bytes"


def test_failures_out_of_range():
    for n, ell in ((5, 1), (16, 1)):  # complete mode, then layered
        scheme = sp.build_scheme(n, ell)
        for bad in (-1, n, 2**70, -(2**70)):
            for members in (frozenset({bad}), [0, bad]):
                with pytest.raises(sp.IndexOutOfRange, match=f"vertex {bad} outside"):
                    compute_closure(scheme, members)
            if abs(bad) < 2**63:
                with pytest.raises(sp.IndexOutOfRange, match=f"vertex {bad} outside"):
                    compute_closure(scheme, np.array([0, bad], dtype=np.int64))


def test_spec_bound_met_with_equality():
    # worst single-failure growth: 1 -> 6 at depth 1
    trace = compute_closure(sp.build_scheme(16, 1), frozenset({3}))
    assert len(trace.f_star) == 6 * 1
    assert within_spec_bound(trace)


def test_bound_checker_detects_tail_blowup():
    """A lone failure in a size-1 trailing half exceeds the 6x budget.

    This layout anomaly is exactly what the checker exists to catch: the
    rule is applied verbatim and the bound is reported, not enforced.
    """
    trace = compute_closure(sp.build_scheme(145, 1), frozenset({144}))
    assert trace.f_star == frozenset(range(138, 145))
    assert not within_spec_bound(trace)


def test_bound_checker_detects_deep_tail_blowup():
    trace = compute_closure(sp.build_scheme(1001, 2), frozenset({1000}))
    assert len(trace.f_star) == 51
    assert not within_spec_bound(trace)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_closure_monotone_property(n, ell, data):
    scheme = sp.build_scheme(n, ell)
    fs = frozenset(
        data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), max_size=min(n, 12))
        )
    )
    trace = compute_closure(scheme, fs)
    assert trace.failures == fs
    snapshots = layer_snapshots(trace)
    assert len(snapshots) == ell + 1
    for a, b in zip(snapshots, snapshots[1:]):
        assert a <= b
    assert fs <= trace.f_star


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_closure_additions_are_triggered_clusters(n, ell, data):
    """Snapshots and triggering tiles match the reference closure, which adds
    every reference cluster containing a triggered tile."""
    scheme = sp.build_scheme(n, ell)
    fs = frozenset(
        data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=10))
    )
    trace = compute_closure(scheme, fs)
    per_layer, triggered = simple_closure(n, ell, fs)
    assert layer_snapshots(trace) == per_layer
    assert [(t.layer, t.lo, t.hi) for t in trace.triggered] == triggered


@st.composite
def dense_instances(draw):
    """``(n, ell, F)`` with up to n/2 failures: at most two runs, which wipe
    whole tiles and set off adjacent triggers and cascades, then scattered
    points."""
    n = draw(st.integers(min_value=1, max_value=700))
    ell = draw(st.integers(min_value=1, max_value=3))
    fs = set()
    run = st.tuples(st.integers(0, n - 1), st.integers(1, max(1, n // 4)))
    for start, width in draw(st.lists(run, max_size=2)):
        fs.update(range(start, min(n, start + width)))
    rest = np.setdiff1d(np.arange(n), sorted(fs))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    extra = draw(st.integers(min_value=0, max_value=max(0, n // 2 - len(fs))))
    fs.update(rng.choice(rest, size=extra, replace=False).tolist())
    return n, ell, frozenset(fs)


@settings(max_examples=80, deadline=None)
@given(dense_instances())
# a run over the first tiles, a lone failure in the size-1 tail, adjacent
# triggers and a two-layer cascade
@example((16, 1, frozenset({0, 1})))
@example((145, 1, frozenset({144})))
@example((16, 1, frozenset({2, 3, 4, 5})))
@example((64, 2, frozenset({0, 1})))
def test_dense_closure_matches_reference_property(inst):
    """Dense failure sets give the reference's snapshots and triggers, and
    the layer array, the sets and the counts agree."""
    n, ell, fs = inst
    trace = compute_closure(sp.build_scheme(n, ell), fs)
    per_layer, triggered = simple_closure(n, ell, fs)
    snapshots = layer_snapshots(trace)
    assert snapshots == per_layer
    assert [(t.layer, t.lo, t.hi) for t in trace.triggered] == triggered
    assert len(snapshots) == ell + 1
    for i, snapshot in enumerate(snapshots):
        assert snapshot == {v for v in range(n) if trace.joined[v] <= i}
    assert trace.failures == fs and len(trace.failures) == trace.f_size
    assert trace.f_star == per_layer[-1] and len(trace.f_star) == trace.f_star_size
    assert ((trace.joined >= 0) & (trace.joined <= ell + 1)).all()
    # the same set as a list with repeated members, and as an int64 array
    listed = sorted(fs, reverse=True)
    listed += listed[::3]
    for members in (listed, np.array(listed, dtype=np.int64)):
        other = compute_closure(sp.build_scheme(n, ell), members)
        assert np.array_equal(other.joined, trace.joined) and other.hits == trace.hits
        assert (other.f_size, other.f_star_size) == (trace.f_size, trace.f_star_size)


# the closure as it was counted per vertex, kept as the reference of the tile count
def vertex_closure(scheme: sp.LayeredScheme, failures) -> ClosureTrace:
    """Run the per-layer majority rule, recording the layer each vertex joins at."""
    joined = np.full(scheme.n, np.int64(scheme.ell + 1))
    joined[failure_indices(failures, scheme.n)] = 0
    f_size = int(np.count_nonzero(joined == 0))  # repeated members count once
    if scheme.complete_mode:
        # No cluster structure: nothing beyond the failures is ignored.
        return ClosureTrace(scheme, joined, (), f_size, f_size)

    hits = []
    for layer in range(1, scheme.ell + 1):
        lo, hi = scheme.tile_bounds(layer)
        # counted on F_{layer-1}, before this layer grows it: the snapshot rule
        lost = np.add.reduceat(joined < layer, lo, dtype=np.int64)
        # every tile is a full half-cluster except possibly a short last one
        hit = lost >= half_threshold(int(hi[0] - lo[0]))
        hit[-1] = lost[-1] >= half_threshold(int(hi[-1] - lo[-1]))
        hits.append(np.flatnonzero(hit).tolist())
        # tile k lies in clusters k-1 and k, which cover tiles k-1 .. k+1
        grow = hit.copy()
        grow[1:] |= hit[:-1]
        grow[:-1] |= hit[1:]
        joined[np.repeat(grow, hi - lo) & (joined > layer)] = layer
    return ClosureTrace(scheme, joined, tuple(hits), f_size, int((joined <= scheme.ell).sum()))


@st.composite
def tile_instances(draw):
    """``(n, ell, members)`` up to n = 70,000 and depth 4 (layered from n = 1024).

    The members are empty, every vertex, a scattered draw, or runs that
    straddle the tile boundaries of one layer, and may repeat. The shape
    comes from a seeded generator, so large sizes and depth 4 turn up as
    often as small ones.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 2_000) if rng.random() < 0.3 else rng.integers(1_024, 70_001))
    ell = int(rng.integers(1, 5))
    kind = ["empty", "all", "scattered", "runs"][rng.choice(4, p=[0.1, 0.1, 0.4, 0.4])]
    scheme = sp.build_scheme(n, ell)
    if kind == "empty":
        members = np.zeros(0, dtype=np.int64)
    elif kind == "all":
        members = np.arange(n)
    elif kind == "scattered" or scheme.complete_mode:
        members = rng.choice(n, int(rng.choice([0.001, 0.05, 0.2, 0.5, 0.9]) * n), replace=False)
    else:
        # runs reaching up to a tile width either side of a boundary
        lo, _ = scheme.tile_bounds(int(rng.integers(1, ell + 1)))
        width = int(lo[1]) if lo.size > 1 else n
        runs = [rng.choice(n, n // 100, replace=False)]
        bounds = rng.choice(lo, size=min(lo.size, int(rng.integers(1, 5))), replace=False)
        for b in bounds.tolist():
            left, right = rng.integers(1, width + 1, size=2).tolist()
            runs.append(np.arange(max(0, b - left), min(n, b + right)))
        members = np.concatenate(runs)
    if rng.random() < 0.3:
        members = np.concatenate([members, members[::3]])
    return n, ell, members.astype(np.int64)


@settings(max_examples=80, deadline=None)
@given(tile_instances())
# closure-stats at its target scale: one trial's draw at k = n / 5
@example((65536, 3, make_rng(0, 0).choice(65536, 65536 // 5, replace=False)))
@example((1024, 4, np.arange(0, 1024, 2)))
@example((145, 1, np.array([144, 144], dtype=np.int64)))
def test_tile_closure_matches_vertex_closure_property(inst):
    """Counting on tiles gives the per-vertex closure's layers, triggers and counts,
    for a failure set passed as a frozenset, a list or an int64 array."""
    n, ell, members = inst
    scheme = sp.build_scheme(n, ell)
    want = vertex_closure(scheme, members)
    for form in (frozenset(members.tolist()), members.tolist(), members):
        got = compute_closure(scheme, form)
        assert got.joined.dtype == np.int64
        assert np.array_equal(got.joined, want.joined)
        assert got.hits == want.hits
        assert (got.f_size, got.f_star_size) == (want.f_size, want.f_star_size)
