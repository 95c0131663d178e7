import dataclasses
import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spanner1d as sp
from spanner1d.scheme import LayeredScheme, choose_ell_for_epsilon, choose_m, scheme_to_json
from reference_simple import simple_layers, simple_tile_labels


def test_choose_m_examples():
    assert choose_m(16, 1) == 2
    assert choose_m(35, 1) == 2
    assert choose_m(36, 1) == 3
    assert choose_m(216, 2) == 3
    assert choose_m(15, 1) == 1
    assert choose_m(3, 1) == 0


@given(st.integers(min_value=1, max_value=10**18), st.integers(min_value=1, max_value=4))
@example(n=10**18, ell=1)
@example(n=4**18, ell=17)
def test_choose_m_bracket(n, ell):
    m = choose_m(n, ell)
    assert (2 * m) ** (ell + 1) <= n or m == 0
    assert (2 * (m + 1)) ** (ell + 1) > n


def test_choose_ell_for_epsilon():
    assert choose_ell_for_epsilon(1.0) == 1
    assert choose_ell_for_epsilon(0.5) == 1
    assert choose_ell_for_epsilon(1.0 / 3.0) == 2
    assert choose_ell_for_epsilon(0.25) == 3
    assert choose_ell_for_epsilon(0.2) == 4


@pytest.mark.parametrize("eps", [0.0, -0.5, 1.5])
def test_invalid_epsilon(eps):
    with pytest.raises(ValueError, match=rf"epsilon must lie in \(0, 1\], got {eps}"):
        choose_ell_for_epsilon(eps)


def test_bad_build_arguments():
    with pytest.raises(ValueError):
        sp.build_scheme(0, 1)
    with pytest.raises(ValueError):
        sp.build_scheme(10, 0)


def test_complete_mode_below_threshold():
    # structured layouts need (2*2)**(ell+1) points
    s = sp.build_scheme(15, 1)
    assert s.complete_mode and s.m == 0
    assert sp.half_clusters_of_layer(s, 1) == ()
    assert sp.build_scheme(63, 2).complete_mode
    assert not sp.build_scheme(64, 2).complete_mode


def test_mode_is_derived_from_m():
    """A scheme holds its three parameters; complete mode is ``m == 0``."""
    assert [f.name for f in dataclasses.fields(LayeredScheme)] == ["n", "ell", "m"]
    for n, ell, mode in [(15, 1, "complete"), (16, 1, "layered"), (63, 2, "complete")]:
        s = sp.build_scheme(n, ell)
        assert s.mode == mode and s.complete_mode == (s.m == 0) == (mode == "complete")


def test_complete_mode_lookups():
    """Complete mode has no clusters or tiles; lookups say so instead of crashing."""
    s = sp.build_scheme(8, 1)
    assert s.complete_mode
    lo, hi = s.tile_bounds(1)
    assert lo.dtype == hi.dtype == np.int64
    assert lo.shape == hi.shape == (0,)
    with pytest.raises(ValueError, match="complete mode"):
        s.tile_of(1, 0)
    with pytest.raises(ValueError, match=r"layer 2 outside \[1, 1\]"):
        s.tile_bounds(2)


def test_layer_out_of_range():
    s = sp.build_scheme(16, 1)
    for bad in (0, 2):
        message = rf"layer {bad} outside \[1, 1\]"
        with pytest.raises(ValueError, match=message):
            sp.half_clusters_of_layer(s, bad)
        with pytest.raises(ValueError, match=message):
            s.tile_bounds(bad)
        with pytest.raises(ValueError, match=message):
            s.tile_of(bad, 3)


def cluster_spans(s, layer):
    """Cluster j of a layer is tiles j and j + 1 of ``tile_bounds``."""
    lo, hi = s.tile_bounds(layer)
    return list(zip(lo[:-1].tolist(), hi[1:].tolist()))


def test_n16_layout():
    s = sp.build_scheme(16, 1)
    assert (s.m, s.ell, s.complete_mode) == (2, 1, False)
    spans = cluster_spans(s, 1)
    assert spans == [(0, 4), (2, 6), (4, 8), (6, 10), (8, 12), (10, 14), (12, 16)]
    tiles = [(h.lo, h.hi) for h in sp.half_clusters_of_layer(s, 1)]
    assert tiles == [(k * 2, k * 2 + 2) for k in range(8)]
    last = sp.half_clusters_of_layer(s, 1)[-1]
    assert (last.side, last.ordinal) == ("R", 7)


def test_tail_layout_n216():
    """203..215 end up in one trailing cluster with a short right half."""
    s = sp.build_scheme(216, 1)
    assert s.m == 7
    assert cluster_spans(s, 1)[-1] == (203, 216)
    halves = sp.half_clusters_of_layer(s, 1)
    assert (halves[-1].lo, halves[-1].hi, halves[-1].size) == (210, 216, 6)
    assert halves[-1].side == "R"


def test_layout_degenerate_exact_cover():
    # exact perfect power: no trailing cluster, all tiles full
    s = sp.build_scheme(16, 1)
    assert cluster_spans(s, 1)[-1] == (12, 16)
    lo, hi = s.tile_bounds(1)
    assert (hi - lo).tolist() == [2] * 8


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
            assert tiles[t].lo <= v < tiles[t].hi


@pytest.mark.parametrize("n,ell", [(16, 1), (216, 1), (100, 2), (256, 3)])
def test_every_cluster_is_two_adjacent_tiles(n, ell):
    """Each cluster of the reference layout is exactly two adjacent package tiles."""
    s = sp.build_scheme(n, ell)
    for layer, (spans, _) in enumerate(simple_layers(n, ell), start=1):
        tiles = [(h.lo, h.hi) for h in sp.half_clusters_of_layer(s, layer)]
        for c_lo, c_hi in spans:
            inside = [t for t in tiles if c_lo <= t[0] and t[1] <= c_hi]
            assert len(inside) == 2
            assert inside[0][1] == inside[1][0]
            assert (inside[0][0], inside[1][1]) == (c_lo, c_hi)
        assert cluster_spans(s, layer) == spans


def test_containing_clusters():
    """Tile k lies in clusters k-1 and k, and in no other, at both ends too."""
    s = sp.build_scheme(16, 1)
    spans = cluster_spans(s, 1)
    lo, hi = s.tile_bounds(1)
    owners = [
        [j for j, (a, b) in enumerate(spans) if a <= t_lo and t_hi <= b]
        for t_lo, t_hi in zip(lo.tolist(), hi.tolist())
    ]
    assert owners == [[0]] + [[k - 1, k] for k in range(1, 7)] + [[6]]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=16, max_value=5000), st.integers(min_value=1, max_value=3))
def test_cluster_lookup_matches_linear_scan(n, ell):
    """Tiles, labels and cluster spans match the reference layout's."""
    s = sp.build_scheme(n, ell)
    layers = simple_layers(n, ell)
    assert s.complete_mode == (not layers)
    for layer, (spans, tiles) in enumerate(layers, start=1):
        lo, hi = s.tile_bounds(layer)
        assert list(zip(lo.tolist(), hi.tolist())) == tiles
        assert cluster_spans(s, layer) == spans
        labels = [(h.ordinal, h.side, h.lo, h.hi) for h in sp.half_clusters_of_layer(s, layer)]
        assert labels == simple_tile_labels(spans, tiles)
        assert all(h.layer == layer for h in sp.half_clusters_of_layer(s, layer))


def test_scheme_json_round_trip():
    for n, ell in [(16, 1), (216, 2), (15, 1)]:
        s = sp.build_scheme(n, ell)
        assert sp.scheme_from_json(scheme_to_json(s)) == s


def listing_json(s):
    """The per-cluster ``.scheme.json`` text of earlier versions, rebuilt from ``tile_bounds``."""
    layers = [
        {
            "layer": layer,
            "clusters": [
                {"ordinal": j, "lo": lo, "hi": hi}
                for j, (lo, hi) in enumerate(cluster_spans(s, layer), start=1)
            ],
        }
        for layer in (range(1, s.ell + 1) if not s.complete_mode else ())
    ]
    mode = "complete" if s.complete_mode else "layered"
    doc = {"n": s.n, "ell": s.ell, "m": s.m, "mode": mode, "layers": layers}
    return json.dumps(doc, indent=2)


# sha256 of the per-cluster listing, taken before the layout became pure
# arithmetic: tile_bounds still lays out the same clusters
SCHEME_JSON_SHA256 = {
    (16, 1): "e0f3cbb26f90aaa5fde78dcda2bbea1246d380ba59d2ba4add2b05e3c3d3d6d1",
    (145, 1): "568820bb1f789385701fc7649d6767f2b2d05347bf55ff589bac3fa1fc595761",
    (216, 1): "5b8c788cd780887a796e32e82c5df08721e576f60c627bdb388bb717764681a0",
    (216, 2): "67150cd81544d47a38318ecd6a3e1a85e0ba44e373b180e6392f3853b510ae84",
    (1001, 2): "7cbdd6224d7d7bf57165d110f88c8b862e155502e1a45e766d1dae8daaf9ef77",
    (1012, 2): "65623587e7d5d9fc7d2898440b7bba11f1b70cd99314fdc23352cf08cbac5763",
    (65536, 3): "9f456ded293584ae72db22e9605b7cffdff839ad3296f19157667282c8cc27ea",
}


@pytest.mark.parametrize("n,ell", sorted(SCHEME_JSON_SHA256))
def test_scheme_json_golden_digest(n, ell):
    text = listing_json(sp.build_scheme(n, ell))
    assert hashlib.sha256(text.encode()).hexdigest() == SCHEME_JSON_SHA256[(n, ell)]


def test_scheme_json_tamper_detected():
    doc = json.loads(scheme_to_json(sp.build_scheme(16, 1)))
    doc["m"] = 3
    with pytest.raises(ValueError):
        sp.scheme_from_json(json.dumps(doc))
    # the listing of earlier versions is an unknown key, even when it is right
    for listing in (listing_json(sp.build_scheme(16, 1)), listing_json(sp.build_scheme(15, 1))):
        with pytest.raises(ValueError, match="malformed stored scheme"):
            sp.scheme_from_json(listing)
    # malformed documents raise ValueError too, not KeyError or TypeError
    good = json.loads(scheme_to_json(sp.build_scheme(16, 1)))
    for bad in (
        {k: v for k, v in good.items() if k != "n"},
        [good],
        {**good, "layers": [{"layer": 1}]},
        {**good, "extra": None},
        {k: v for k, v in good.items() if k != "mode"},
        {**good, "n": float("inf")},
        {**good, "n": 16.9},
        {**good, "n": 16.0},
        {**good, "n": "16"},
        {**good, "ell": True},
        {**good, "ell": 1.0},
        {**good, "m": 2.0},
        {**json.loads(scheme_to_json(sp.build_scheme(15, 1))), "m": False},
    ):
        with pytest.raises(ValueError, match="malformed stored scheme"):
            sp.scheme_from_json(json.dumps(bad))
    # a huge stored size whose m matches reads without laying out a tile
    huge = {**good, "n": 10**18, "m": choose_m(10**18, 1)}
    with mock.patch.object(LayeredScheme, "tile_bounds", side_effect=AssertionError):
        assert sp.scheme_from_json(json.dumps(huge)) == sp.build_scheme(10**18, 1)


# the whole stored document of a layered and a complete-mode scheme
SCHEME_JSON_TEXT = {
    (2048, 2): '{\n  "n": 2048,\n  "ell": 2,\n  "m": 6,\n  "mode": "layered"\n}',
    (15, 1): '{\n  "n": 15,\n  "ell": 1,\n  "m": 0,\n  "mode": "complete"\n}',
}


@pytest.mark.parametrize("n,ell", sorted(SCHEME_JSON_TEXT))
def test_scheme_json_exact_text(n, ell):
    s = sp.build_scheme(n, ell)
    assert scheme_to_json(s) == SCHEME_JSON_TEXT[(n, ell)]
    assert sp.scheme_from_json(SCHEME_JSON_TEXT[(n, ell)]) == s


def test_depth_must_fit_in_int64():
    """Layer ell + 1 is stored as int64, so the deepest depth is 2**63 - 2."""
    for ell in (2**63 - 1, 10**300):
        with pytest.raises(ValueError, match=r"depth must lie in \[1, 2\*\*63 - 1\), got ell="):
            sp.build_scheme(16, ell)
    s = sp.build_scheme(16, 2**63 - 2)
    assert s.complete_mode
    assert sp.compute_closure(s, {3}).joined.tolist() == [2**63 - 1] * 3 + [0] + [2**63 - 1] * 12


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3))
def test_structure_properties(n, ell):
    s = sp.build_scheme(n, ell)
    assert s.complete_mode == (n < 4 ** (ell + 1))
    if s.complete_mode:
        return
    for layer in range(1, ell + 1):
        size = (2 * s.m) ** layer
        clusters = cluster_spans(s, layer)
        # regular clusters have the layer size; only the trailing one may be short
        assert all(hi - lo == size for lo, hi in clusters[:-1])
        assert clusters[0][0] == 0 and clusters[-1][1] == n
        tiles = sp.half_clusters_of_layer(s, layer)
        assert tiles[0].lo == 0 and tiles[-1].hi == n
        assert all(a.hi == b.lo for a, b in zip(tiles, tiles[1:]))
