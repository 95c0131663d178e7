import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spanner1d as sp
from reference_simple import simple_layers, simple_spanner_edges
from spanner1d import builder

# exact deduplicated counts, pinned; single layer follows 14m^3 - 9m^2 + m
GOLDEN_COUNTS = {
    (16, 1): 78,
    (36, 1): 300,
    (64, 1): 756,
    (100, 1): 1530,
    (64, 2): 582,
    (216, 2): 3360,
    (256, 3): 3462,
}


@pytest.mark.parametrize("n,ell", sorted(GOLDEN_COUNTS))
def test_golden_edge_counts(n, ell, instance):
    _, _, graph = instance(n, ell)
    assert graph.edge_count == GOLDEN_COUNTS[(n, ell)]


# closed-form counts at n = (2m)^(ell+1): ell -> (count, values of m)
CLOSED_FORMS = {
    1: (lambda m: 14 * m**3 - 9 * m**2 + m, range(2, 33)),
    2: (lambda m: 52 * m**4 - 32 * m**3 + m**2 + m, range(2, 7)),
    3: (lambda m: 152 * m**5 - 88 * m**4 + m**2 + m, range(2, 5)),
}


def test_single_layer_count_formula():
    for ell, (count, ms) in CLOSED_FORMS.items():
        for m in ms:
            n = (2 * m) ** (ell + 1)
            graph = sp.build_spanner(sp.generate_points(n, "uniform", 0), sp.build_scheme(n, ell))
            assert graph.edge_count == count(m), (ell, m)


def test_complete_mode_is_all_pairs(instance):
    _, scheme, graph = instance(8, 1)
    assert scheme.complete_mode
    assert graph.edge_count == 8 * 7 // 2


def test_n16_spot_edges(instance):
    _, _, g = instance(16, 1)
    assert (0, 1) in g.edge_set  # clique inside [0, 4)
    assert (0, 14) in g.edge_set  # rank 0 of tiles [0,2) and [14,16)
    assert (1, 15) in g.edge_set
    assert (0, 15) not in g.edge_set  # ranks differ and no shared cluster
    assert (0, 7) not in g.edge_set


def test_provenance_tags(instance):
    ps, scheme, _ = instance(64, 2)
    g = sp.build_spanner(ps, scheme, with_provenance=True)
    tags = set(g.provenance.values())
    assert {"clique-layer-1", "matching-layer-2", "matching-top"} <= tags
    assert g.provenance[(0, 1)] == "clique-layer-1"
    assert set(g.provenance) == g.edge_set


RULES = {"clique-layer-1", "matching-layer-2", "matching-layer-3", "matching-top"}


def test_provenance_depth_3(instance):
    ps, scheme, graph = instance(1296, 3)
    g = sp.build_spanner(ps, scheme, with_provenance=True)
    assert g == graph
    assert set(g.provenance) == g.edge_set
    assert set(g.provenance.values()) == RULES


def loop_provenance(n: int, ell: int) -> dict:
    """The construction rules as plain loops over the reference layout: edge -> first rule."""
    prov = {}
    layers = simple_layers(n, ell)
    if not layers:
        for e in combinations(range(n), 2):
            prov[e] = "complete"
        return prov

    def match(ha, hb, tag):
        for k in range(min(ha[1] - ha[0], hb[1] - hb[0])):
            prov.setdefault((ha[0] + k, hb[0] + k), tag)

    for lo, hi in layers[0][0]:
        for e in combinations(range(lo, hi), 2):
            prov.setdefault(e, "clique-layer-1")
    for layer in range(2, ell + 1):
        for lo, hi in layers[layer - 1][0]:
            inside = [h for h in layers[layer - 2][1] if lo <= h[0] and h[1] <= hi]
            for ha, hb in combinations(inside, 2):
                match(ha, hb, f"matching-layer-{layer}")
    for ha, hb in combinations(layers[-1][1], 2):
        match(ha, hb, "matching-top")
    return prov


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=700), st.integers(min_value=1, max_value=3))
# a 6-point last half-cluster: its matchings truncate at the short side
@example(n=216, ell=1)
def test_builder_matches_loop_reference(n, ell):
    scheme = sp.build_scheme(n, ell)
    g = sp.build_spanner(sp.generate_points(n, "uniform", 2), scheme, with_provenance=True)
    assert g.provenance == loop_provenance(n, ell)
    assert g.edges.tolist() == sorted(map(list, g.provenance))


@pytest.mark.parametrize("n,ell", [(217, 2), (8, 1)])
def test_csr_rows_agree_with_edge_set(n, ell, instance):
    _, _, g = instance(n, ell)
    rows = g.indptr.tolist()
    for u in range(n):
        higher = g.edges[rows[u] : rows[u + 1], 1].tolist()
        assert higher == [v for v in range(n) if (u, v) in g.edge_set]


def test_edgeless_graph():
    g = sp.SpannerGraph(1, [])
    assert g.edge_set == frozenset() and g.indptr.tolist() == [0, 0]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=80,
            ),
        )
    )
)
def test_graph_arrays_match_set_normalisation(case):
    n, pairs = case
    g = sp.SpannerGraph(n, pairs)
    want = sorted({(min(e), max(e)) for e in pairs})
    assert g.edges.tolist() == [list(e) for e in want]


def test_graph_normalization():
    g = sp.SpannerGraph(4, [(2, 1), (1, 2), (0, 3)])
    assert g.edge_count == 2
    assert g.edges.tolist() == [[0, 3], [1, 2]]


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        sp.SpannerGraph(4, [(1, 1)])
    with pytest.raises(sp.SchemeMismatch):
        sp.SpannerGraph(4, [(0, 4)])


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 2**70)],
        [(-(2**70), 1)],
        [(0, 1), (2, 2**63)],
        np.array([[0, 2**64 - 1]], dtype=np.uint64),
        np.array([[0, 1], [2**63, 2]], dtype=np.uint64),
    ],
)
def test_graph_rejects_endpoints_past_int64(edges):
    """An endpoint int64 cannot hold is out of range, named as passed, not an OverflowError."""
    a, b = [int(v) for v in edges[-1]]
    with pytest.raises(sp.SchemeMismatch, match=rf"edge \({a}, {b}\) outside vertex range \[0, 3\)"):
        sp.SpannerGraph(3, edges)


@pytest.mark.parametrize(
    "edges",
    [
        [(0.5, 2)],
        np.array([[1.9, 2.2]]),
        [("0", "2")],
        [(True, 2)],
        [(0, 1), (1, 2.0)],
        np.array([[True, False]]),
        np.array([[0, "2"]], dtype=object),
    ],
)
def test_graph_rejects_non_integer_endpoints(edges):
    """Each of these used to be truncated or parsed into an integer edge."""
    with pytest.raises(ValueError, match="must be integers"):
        sp.SpannerGraph(3, edges)


def test_graph_accepts_integer_endpoints_of_any_width():
    want = [[0, 2], [1, 2]]
    assert sp.SpannerGraph(3, [(0, 2), (np.int64(1), 2)]).edges.tolist() == want
    assert sp.SpannerGraph(3, np.array(want, dtype=np.uint8)).edges.tolist() == want
    assert sp.SpannerGraph(3, np.array(want, dtype=object)).edges.tolist() == want
    assert sp.SpannerGraph(3, np.zeros((0, 2))).edge_count == 0


def test_graph_edges_frozen():
    g = sp.SpannerGraph(3, [(0, 1)])
    with pytest.raises(ValueError):
        g.edges[0, 0] = 2


def assert_keys_match_edges(g):
    assert g.keys.shape == (g.edge_count,) and g.keys.dtype == np.int64
    assert np.array_equal(g.keys, g.edges[:, 0] * g.n + g.edges[:, 1])
    assert (np.diff(g.keys) > 0).all()
    assert not g.keys.flags.writeable


def test_graph_keeps_its_sorted_keys(tmp_path, instance):
    """``keys`` is the strictly increasing ``u * n + v`` per edge row, read-only."""
    graphs = [instance(n, ell)[2] for n, ell in ((5, 1), (216, 2), (700, 3))]
    # unsorted, reversed and repeated pairs
    graphs.append(sp.SpannerGraph(6, [(4, 1), (1, 4), (5, 0), (2, 3), (0, 5), (3, 2), (0, 1)]))
    path = tmp_path / "g.edges"
    builder.write_edge_list(graphs[1], path)
    graphs.append(sp.read_edge_list(path, 216))
    for g in graphs:
        assert_keys_match_edges(g)
    assert graphs[3].keys.tolist() == [1, 5, 10, 15]
    assert np.array_equal(graphs[4].keys, graphs[1].keys)
    empty = sp.SpannerGraph(4, [])
    assert_keys_match_edges(empty)
    assert empty.keys.shape == (0,)
    with pytest.raises(ValueError):
        graphs[0].keys[0] = 7


def test_size_mismatch_rejected():
    ps = sp.generate_points(20, "uniform", 0)
    with pytest.raises(sp.SchemeMismatch):
        sp.build_spanner(ps, sp.build_scheme(16, 1))


@pytest.mark.parametrize("n", [16, 20, 26, 36, 50, 64, 100, 145])
def test_matches_independent_single_layer_builder(n, instance):
    """Dual-route check: the layered builder at depth 1 vs a from-scratch one."""
    _, _, graph = instance(n, 1)
    assert graph.edge_set == simple_spanner_edges(n)


def test_determinism(instance):
    ps, scheme, graph = instance(100, 2)
    assert sp.build_spanner(ps, scheme) == graph


def test_edge_count_bound():
    assert sp.edge_count_bound(16, 1) == 64.0
    assert sp.edge_count_bound(64, 2) == pytest.approx(2 * 64.0 ** (4 / 3))


def test_edge_list_round_trip(tmp_path, instance):
    _, _, g = instance(20, 1)
    path = tmp_path / "g.edges"
    sp.write_edge_list(g, path)
    assert sp.read_edge_list(path, n=20) == g
    assert sp.read_edge_list(path) == g  # n inferred from endpoints


def test_edge_list_exact_bytes(tmp_path, instance):
    """One ``u v`` line per edge in sorted order, newline-terminated, nothing else."""
    path = tmp_path / "g.edges"
    sp.write_edge_list(sp.SpannerGraph(4, []), path)
    assert path.read_bytes() == b""
    _, _, complete = instance(5, 1)
    sp.write_edge_list(complete, path)
    assert path.read_bytes() == (
        b"0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
    )
    _, _, layered = instance(216, 2)
    sp.write_edge_list(layered, path)
    want = "".join(f"{u} {v}\n" for u, v in sorted(layered.edge_set))
    assert path.read_bytes() == want.encode()
    assert path.read_bytes().count(b"\n") == layered.edge_count == 3360
    # the bytes of the "%d %d\n" form, top vertex and widest numbers included
    for g in (sp.SpannerGraph(1, []), sp.SpannerGraph(4, []), complete, layered):
        sp.write_edge_list(g, path)
        want = ("%d %d\n" * g.edge_count) % tuple(g.edges.ravel().tolist())
        assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("rows", [1, 11, 3360, 4096])
def test_edge_list_chunks_write_the_same_bytes(tmp_path, instance, monkeypatch, rows):
    """Writing a bounded number of rows at a time gives the bytes of one write.

    3,360 edges are one chunk of 3,360 or 4,096 rows, and 306 chunks of 11,
    the last one short.
    """
    _, _, layered = instance(216, 2)
    monkeypatch.setattr(builder, "_WRITE_ROWS", rows)
    path = tmp_path / "g.edges"
    sp.write_edge_list(layered, path)
    want = ("%d %d\n" * layered.edge_count) % tuple(layered.edges.ravel().tolist())
    assert path.read_bytes() == want.encode()


def test_edge_list_comments(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# spanner\n0 2\n\n1 2  # last\n")
    g = sp.read_edge_list(path)
    assert g.n == 3 and g.edge_count == 2


@pytest.mark.parametrize(
    "text",
    ["0 1 2\n", "0\n", "0 1.5\n", "0 x\n", "0 1\n1 2 3\n", "0 1\n2\n"],
    ids=["three-fields", "one-field", "float", "text", "ragged-three", "ragged-one"],
)
def test_edge_list_rejects_malformed_rows(tmp_path, text):
    path = tmp_path / "g.edges"
    path.write_text(text)
    with pytest.raises(ValueError):
        sp.read_edge_list(path)


def test_edge_list_reads_bytes_one_character_each(tmp_path):
    # numpy 2.4 decoding UTF-8 crashed on U+100000 and up in a row; each byte
    # now reads as one Latin-1 character, so such a row is just malformed, as
    # is one whose fields a non-ASCII space separates
    path = tmp_path / "g.edges"
    for text in ("0 \U0010ffff\n", "\U00100000\n", "0\u00a01\n"):
        path.write_bytes(text.encode("utf-8"))
        for _ in range(20):
            with pytest.raises(ValueError):
                sp.read_edge_list(path, n=3)
    # a comment may hold any bytes
    path.write_bytes("# café \U0010ffff\n0 1\n".encode("utf-8"))
    assert sp.read_edge_list(path).edges.tolist() == [[0, 1]]


@pytest.mark.parametrize("text", ["", "# header only\n\n# more\n"], ids=["empty", "comments"])
def test_edge_list_without_rows_is_edgeless(tmp_path, text):
    path = tmp_path / "g.edges"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = sp.read_edge_list(path, n=3)
        assert sp.read_edge_list(path).n == 0
    assert g.n == 3 and g.edge_count == 0


def test_edgeless_graph_io(tmp_path):
    g = sp.SpannerGraph(1, [])
    path = tmp_path / "empty.edges"
    sp.write_edge_list(g, path)
    assert sp.read_edge_list(path, n=1) == g


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=140), st.integers(min_value=1, max_value=2))
def test_edges_well_formed_property(n, ell):
    ps = sp.generate_points(n, "uniform", 1)
    g = sp.build_spanner(ps, sp.build_scheme(n, ell))
    e = g.edges
    if n == 1:
        assert g.edge_count == 0
        return
    assert np.all(e[:, 0] < e[:, 1])
    assert e.min() >= 0 and e.max() < n
    # consecutive points always share a layer-1 cluster (or the complete graph)
    assert all((v, v + 1) in g.edge_set for v in range(n - 1))
