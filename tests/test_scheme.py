import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spanner1d as sp
from spanner1d.scheme import _layout


def test_choose_m_examples():
    assert sp.choose_m(16, 1) == 2
    assert sp.choose_m(35, 1) == 2
    assert sp.choose_m(36, 1) == 3
    assert sp.choose_m(216, 2) == 3
    assert sp.choose_m(15, 1) == 1
    assert sp.choose_m(3, 1) == 0


@given(st.integers(min_value=1, max_value=100_000), st.integers(min_value=1, max_value=4))
def test_choose_m_bracket(n, ell):
    m = sp.choose_m(n, ell)
    assert (2 * m) ** (ell + 1) <= n or m == 0
    assert (2 * (m + 1)) ** (ell + 1) > n


def test_choose_ell_for_epsilon():
    assert sp.choose_ell_for_epsilon(1.0) == 1
    assert sp.choose_ell_for_epsilon(0.5) == 1
    assert sp.choose_ell_for_epsilon(1.0 / 3.0) == 2
    assert sp.choose_ell_for_epsilon(0.25) == 3
    assert sp.choose_ell_for_epsilon(0.2) == 4


@pytest.mark.parametrize("eps", [0.0, -0.5, 1.5])
def test_invalid_epsilon(eps):
    with pytest.raises(sp.InvalidEpsilon):
        sp.choose_ell_for_epsilon(eps)


def test_bad_build_arguments():
    with pytest.raises(ValueError):
        sp.build_scheme(0, 1)
    with pytest.raises(ValueError):
        sp.build_scheme(10, 0)


def test_complete_mode_below_threshold():
    # structured layouts need (2*2)**(ell+1) points
    s = sp.build_scheme(15, 1)
    assert s.complete_mode and s.m == 0
    assert sp.clusters_of_layer(s, 1) == ()
    assert sp.half_clusters_of_layer(s, 1) == ()
    assert sp.build_scheme(63, 2).complete_mode
    assert not sp.build_scheme(64, 2).complete_mode


def test_complete_mode_lookups():
    """Complete mode has no clusters or tiles; lookups say so instead of crashing."""
    s = sp.build_scheme(8, 1)
    assert s.complete_mode
    assert sp.containing_clusters(s, 1, 0, 2) == ()
    lo, hi = s.tile_bounds(1)
    assert lo.dtype == hi.dtype == np.int64
    assert lo.shape == hi.shape == (0,)
    with pytest.raises(ValueError, match="complete mode"):
        s.tile_of(1, 0)
    with pytest.raises(sp.LayerOutOfRange):
        s.tile_bounds(2)


def test_layer_out_of_range():
    s = sp.build_scheme(16, 1)
    with pytest.raises(sp.LayerOutOfRange):
        sp.clusters_of_layer(s, 2)
    with pytest.raises(sp.LayerOutOfRange):
        s.tile_of(0, 3)


def test_n16_layout():
    s = sp.build_scheme(16, 1)
    assert (s.m, s.ell, s.complete_mode) == (2, 1, False)
    spans = [(c.lo, c.hi) for c in sp.clusters_of_layer(s, 1)]
    assert spans == [(0, 4), (2, 6), (4, 8), (6, 10), (8, 12), (10, 14), (12, 16)]
    assert [c.ordinal for c in sp.clusters_of_layer(s, 1)] == list(range(1, 8))
    tiles = [(h.lo, h.hi) for h in sp.half_clusters_of_layer(s, 1)]
    assert tiles == [(k * 2, k * 2 + 2) for k in range(8)]
    last = sp.half_clusters_of_layer(s, 1)[-1]
    assert (last.side, last.ordinal) == ("R", 7)


def test_tail_layout_n216():
    """203..215 end up in one trailing cluster with a short right half."""
    s = sp.build_scheme(216, 1)
    assert s.m == 7
    clusters = sp.clusters_of_layer(s, 1)
    assert (clusters[-1].lo, clusters[-1].hi) == (203, 216)
    halves = sp.half_clusters_of_layer(s, 1)
    assert (halves[-1].lo, halves[-1].hi, halves[-1].size) == (210, 216, 6)
    assert halves[-1].side == "R"


def test_layout_degenerate_exact_cover():
    # exact perfect power: no trailing cluster, all tiles full
    spans, tiles = _layout(16, 4)
    assert spans[-1] == (12, 16)
    assert all(hi - lo == 2 for lo, hi in tiles)


@pytest.mark.parametrize(
    "n,ell", [(16, 1), (20, 1), (145, 1), (216, 1), (64, 2), (100, 2), (500, 3)]
)
def test_tiles_partition_range(n, ell):
    s = sp.build_scheme(n, ell)
    for layer in range(1, ell + 1):
        tiles = sp.half_clusters_of_layer(s, layer)
        covered = []
        for h in tiles:
            covered.extend(range(h.lo, h.hi))
        assert covered == list(range(n))
        for v in range(n):
            t = s.tile_of(layer, v)
            assert tiles[t].contains(v)


@pytest.mark.parametrize("n,ell", [(16, 1), (216, 1), (100, 2), (256, 3)])
def test_every_cluster_is_two_adjacent_tiles(n, ell):
    s = sp.build_scheme(n, ell)
    for layer in range(1, ell + 1):
        tiles = [(h.lo, h.hi) for h in sp.half_clusters_of_layer(s, layer)]
        for c in sp.clusters_of_layer(s, layer):
            inside = [t for t in tiles if c.lo <= t[0] and t[1] <= c.hi]
            assert len(inside) == 2
            assert inside[0][1] == inside[1][0]
            assert (inside[0][0], inside[1][1]) == (c.lo, c.hi)


def test_containing_clusters():
    s = sp.build_scheme(16, 1)
    owners = sp.containing_clusters(s, 1, 2, 4)
    assert [(c.lo, c.hi) for c in owners] == [(0, 4), (2, 6)]
    first = sp.containing_clusters(s, 1, 0, 2)
    assert [(c.lo, c.hi) for c in first] == [(0, 4)]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=16, max_value=5000), st.integers(min_value=1, max_value=3))
def test_cluster_lookup_matches_linear_scan(n, ell):
    s = sp.build_scheme(n, ell)
    if s.complete_mode:
        return
    for layer in range(1, ell + 1):
        tiles = s.halves[layer - 1]
        lo, hi = s.tile_bounds(layer)
        assert list(zip(lo.tolist(), hi.tolist())) == [(h.lo, h.hi) for h in tiles]
        for up in {layer, min(layer + 1, ell)}:
            for h in tiles:
                scan = tuple(c for c in s.layers[up - 1] if c.lo <= h.lo and h.hi <= c.hi)
                assert sp.containing_clusters(s, up, h.lo, h.hi) == scan


def test_scheme_json_round_trip():
    for n, ell in [(16, 1), (216, 2), (15, 1)]:
        s = sp.build_scheme(n, ell)
        assert sp.scheme_from_json(sp.scheme_to_json(s)) == s


def test_scheme_json_tamper_detected():
    import json

    doc = json.loads(sp.scheme_to_json(sp.build_scheme(16, 1)))
    doc["m"] = 3
    with pytest.raises(ValueError):
        sp.scheme_from_json(json.dumps(doc))
    doc = json.loads(sp.scheme_to_json(sp.build_scheme(16, 1)))
    doc["layers"][0]["clusters"][0]["hi"] = 5
    with pytest.raises(ValueError):
        sp.scheme_from_json(json.dumps(doc))
    # malformed documents raise ValueError too, not KeyError or TypeError
    good = json.loads(sp.scheme_to_json(sp.build_scheme(16, 1)))
    for bad in (
        {k: v for k, v in good.items() if k != "n"},
        [good],
        {**good, "layers": [{"layer": 1}]},
        {**good, "n": float("inf")},
    ):
        with pytest.raises(ValueError, match="malformed stored scheme"):
            sp.scheme_from_json(json.dumps(bad))


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3))
def test_structure_properties(n, ell):
    s = sp.build_scheme(n, ell)
    assert s.complete_mode == (n < 4 ** (ell + 1))
    if s.complete_mode:
        return
    for layer in range(1, ell + 1):
        size = (2 * s.m) ** layer
        clusters = sp.clusters_of_layer(s, layer)
        # regular clusters have the layer size; only the trailing one may be short
        assert all(c.size == size for c in clusters[:-1])
        assert clusters[0].lo == 0 and clusters[-1].hi == n
        tiles = sp.half_clusters_of_layer(s, layer)
        assert tiles[0].lo == 0 and tiles[-1].hi == n
        assert all(a.hi == b.lo for a, b in zip(tiles, tiles[1:]))
