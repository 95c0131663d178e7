import contextlib
import dataclasses
import hashlib
import json
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

import spanner1d as sp
from reference_simple import monotone_reach_up
from spanner1d import verify
from spanner1d.verify import (
    ORACLE_RELATIVE_TOLERANCE,
    _broken_links,
    _check_pairs,
    _forward_reach,
    _sample_pairs,
)


def path_graph():
    # 0 - 1 - 2 with a long last gap; vertex 1 is a cut vertex
    ps = sp.make_point_set([0.0, 1.0, 5.0])
    return sp.SpannerGraph(3, [(0, 1), (1, 2)]), ps


def reach_sets(graph, alive, lo=0, hi=None):
    """``_forward_reach`` rows of the window ``[lo, hi)`` as sets of vertex indices."""
    rows = _forward_reach(graph, alive, lo, hi)
    return [{lo + y for y in range(len(rows)) if (r >> y) & 1} for r in rows]


def test_exact_reach_on_path():
    g, _ = path_graph()
    assert reach_sets(g, [True] * 3) == [{0, 1, 2}, {1, 2}, {2}]


def test_reach_requires_monotone_steps():
    # 1 is only reachable from 0 by going up to 2 and back down
    g = sp.SpannerGraph(3, [(0, 2), (1, 2)])
    assert reach_sets(g, [True] * 3) == [{0, 2}, {1, 2}, {2}]


def test_reach_respects_removals():
    g, _ = path_graph()
    assert reach_sets(g, [True, False, True]) == [{0}, set(), {2}]


def test_forward_reach_matches_per_source(instance):
    _, _, intact = instance(20, 1)
    _, _, dropped, fs, _ = dropped_instance(300, 2, "clustered", 0.05, 3)
    assert fs
    for g, removed in ((intact, frozenset({4, 11})), (dropped, fs)):
        rows = reach_sets(g, [v not in removed for v in range(g.n)])
        for x in range(g.n):
            want = set() if x in removed else monotone_reach_up(g, removed, x)
            assert rows[x] == want


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    density=st.floats(min_value=0.0, max_value=1.0),
    removal=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    lo=st.integers(min_value=0, max_value=39),
    width=st.integers(min_value=1, max_value=40),
)
@example(n=1, density=1.0, removal=0.0, seed=0, lo=0, width=1)
@example(n=40, density=0.5, removal=1.0, seed=0, lo=3, width=20)  # every vertex dead
@example(n=40, density=0.2, removal=0.0, seed=1, lo=5, width=30)  # every vertex alive
@example(n=40, density=0.6, removal=0.1, seed=2, lo=39, width=1)  # the top vertex alone
def test_forward_reach_matches_reference_property(n, density, removal, seed, lo, width):
    """Skipping covered neighbours leaves every row as the per-source search finds it.

    The full rows are checked, and then the rows of the window ``[lo, hi)``
    against a per-source search that never leaves it.
    """
    rng = np.random.default_rng(seed)
    u, v = np.triu_indices(n, 1)
    keep = rng.random(len(u)) < density
    g = sp.SpannerGraph(n, np.stack([u[keep], v[keep]], 1))
    removed = frozenset(np.flatnonzero(rng.random(n) < removal).tolist())
    alive = [x not in removed for x in range(n)]
    rows = reach_sets(g, alive)
    assert rows == [set() if x in removed else monotone_reach_up(g, removed, x) for x in range(n)]
    lo = min(lo, n - 1)
    hi = min(lo + width, n)
    outside = removed | frozenset(range(hi, n))
    want = [set() if x in removed else monotone_reach_up(g, outside, x) for x in range(lo, hi)]
    assert reach_sets(g, alive, lo, hi) == want


def test_oracle_on_complete_graph(instance):
    ps, _, g = instance(8, 1)
    lengths = sp.brute_force_oracle(g, ps, frozenset())
    assert len(lengths) == 28
    for (x, y), d in lengths.items():
        assert d == pytest.approx(ps.coords[y] - ps.coords[x], rel=1e-15)


def test_oracle_reports_unreachable():
    g, ps = path_graph()
    lengths = sp.brute_force_oracle(g, ps, frozenset({1}))
    assert math.isinf(lengths[(0, 2)])


def test_oracle_rejects_a_point_set_of_another_size():
    g, _ = path_graph()
    with pytest.raises(ValueError, match="graph n=3 vs point set n=4"):
        sp.brute_force_oracle(g, sp.make_point_set([0.0, 1.0, 2.0, 3.0]), frozenset())


def test_oracle_with_every_vertex_failed_is_empty():
    g, ps = path_graph()
    assert sp.brute_force_oracle(g, ps, frozenset({0, 1, 2})) == {}


def loop_brute_force_oracle(graph, ps, failures):
    """The per-pair loop the one-gather dict replaced, kept as its reference."""
    alive = [v for v in range(graph.n) if v not in failures]
    rows = dijkstra(verify._oracle_csr(ps, alive_edges(graph, failures)), indices=alive)
    return {(x, y): float(rows[i, y]) for i, x in enumerate(alive) for y in alive[i + 1 :]}


@pytest.mark.parametrize("n, ell, drop, seed", [(40, 1, 0.9, 0), (216, 2, 0.97, 1), (3, 1, 0.0, 2)])
def test_oracle_matches_per_pair_reference(n, ell, drop, seed):
    """Same keys in the same order, ``int`` keys and ``float`` lengths, inf included."""
    _, _, g, fs, _ = dropped_instance(n, ell, "uniform", drop, seed)
    ps = sp.generate_points(n, "uniform", seed)
    got, want = sp.brute_force_oracle(g, ps, fs), loop_brute_force_oracle(g, ps, fs)
    assert list(got.items()) == list(want.items())
    assert all(type(x) is type(y) is int and type(d) is float for (x, y), d in got.items())
    if drop:
        assert any(math.isinf(d) for d in got.values())


def test_oracle_prices_every_pair_in_one_full_search():
    """No alive vertex and one alive vertex give no pair; two components read inf across."""
    ps = sp.make_point_set([0.0, 1.0, 2.0, 3.0])
    g = sp.SpannerGraph(4, [(0, 1), (2, 3)])
    with mock.patch.object(verify, "_price_pairs", wraps=verify._price_pairs) as full:
        assert sp.brute_force_oracle(g, ps, frozenset(range(4))) == {}
        assert sp.brute_force_oracle(g, ps, frozenset({0, 1, 3})) == {}
        assert full.call_count == 0
        lengths = sp.brute_force_oracle(g, ps, frozenset())
    assert full.call_count == 1
    across = dict.fromkeys([(0, 2), (0, 3), (1, 2), (1, 3)], math.inf)
    assert list(lengths.items()) == list(({(0, 1): 1.0} | across | {(2, 3): 1.0}).items())


def test_oracle_size_guard():
    g = sp.SpannerGraph(600, [(0, 1)])
    ps = sp.make_point_set(np.arange(600.0))
    with pytest.raises(sp.TooLarge):
        sp.brute_force_oracle(g, ps, frozenset())
    assert sp.brute_force_oracle(g, ps, frozenset(), limit=600)


def test_verify_passes_without_failures(instance):
    ps, scheme, g = instance(64, 1)
    rep = sp.verify_robust_spanner(g, ps, scheme, frozenset())
    assert rep.passed and rep.exhaustive
    assert rep.pairs_checked == 64 * 63 // 2
    assert rep.exact_pairs == rep.pairs_checked
    assert rep.violations == () and rep.oracle_mismatches == ()
    assert rep.strong_variant_ok is True
    assert math.isnan(rep.max_stretch_over_ignored)


def test_verify_with_failures(instance):
    ps, scheme, g = instance(64, 1)
    fs = frozenset({8, 9, 30})
    rep = sp.verify_robust_spanner(g, ps, scheme, fs, seed=5)
    assert rep.passed
    assert rep.f_size == 3
    assert rep.f_star_size >= 3
    targets = 64 - rep.f_star_size
    assert rep.pairs_checked == targets * (targets - 1) // 2
    if rep.f_star_size > rep.f_size:
        assert rep.max_stretch_over_ignored >= 1.0 or math.isnan(
            rep.max_stretch_over_ignored
        )


def test_verify_detects_missing_edge(instance):
    ps, scheme, g = instance(16, 1)
    pruned = sp.SpannerGraph(16, [e for e in g.edge_set if e != (3, 4)])
    rep = sp.verify_robust_spanner(pruned, ps, scheme, frozenset())
    assert not rep.passed
    assert [(u, v) for u, v, _ in rep.violations] == [(3, 4)]
    d = rep.violations[0][2]
    assert d is None or d > ps.coords[4] - ps.coords[3]


def test_verify_sampled_mode(instance):
    ps, scheme, g = instance(100, 1)
    rep = sp.verify_robust_spanner(
        g, ps, scheme, frozenset({50}), exhaustive_limit=64, pair_sample=700, seed=2
    )
    assert not rep.exhaustive
    assert rep.pairs_checked == 700
    assert rep.passed and rep.exact_pairs == 700


def test_verify_seed_reproducible(instance):
    ps, scheme, g = instance(100, 1)
    kwargs = dict(exhaustive_limit=64, pair_sample=300, seed=9)
    a = sp.verify_robust_spanner(g, ps, scheme, frozenset({7}), **kwargs)
    b = sp.verify_robust_spanner(g, ps, scheme, frozenset({7}), **kwargs)
    assert a.to_json() == b.to_json()


def test_verify_size_mismatch(instance):
    ps, scheme, g = instance(16, 1)
    with pytest.raises(
        ValueError, match="size mismatch: graph n=16, points n=20, scheme n=16"
    ):
        sp.verify_robust_spanner(g, sp.generate_points(20, "uniform", 0), scheme, frozenset())


def test_strong_check_disabled(instance):
    ps, scheme, g = instance(16, 1)
    rep = sp.verify_robust_spanner(g, ps, scheme, frozenset({3}), strong_check=False)
    assert rep.strong_variant_ok is None


def test_report_json_shape(instance):
    ps, scheme, g = instance(16, 1)
    rep = sp.verify_robust_spanner(g, ps, scheme, frozenset({3}), seed=4)
    doc = json.loads(rep.to_json())
    assert doc["n"] == 16 and doc["seed"] == 4
    assert doc["pass"] is True
    assert doc["f_star_size"] == 6
    assert doc["violations"] == []
    assert isinstance(doc["strong_variant_ok"], bool)
    assert doc["max_stretch_over_ignored"] is None or doc["max_stretch_over_ignored"] >= 1


def test_summary_line(instance):
    ps, scheme, g = instance(16, 1)
    rep = sp.verify_robust_spanner(g, ps, scheme, frozenset())
    assert rep.summary().startswith("PASS n=16 seed=0")


def test_criterion_equivalence_campaign(instance):
    """Monotone reachability and the numeric oracle must agree pairwise."""
    ps, scheme, g = instance(16, 1)
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(0, 5))
        fs = frozenset(rng.choice(16, size=k, replace=False).tolist())
        alive = [v not in fs for v in range(16)]
        reach = _forward_reach(g, alive)
        for (x, y), found in sp.brute_force_oracle(g, ps, fs).items():
            want = ps.coords[y] - ps.coords[x]
            numeric = math.isfinite(found) and abs(found - want) <= want * ORACLE_RELATIVE_TOLERANCE
            assert bool((reach[x] >> y) & 1) == numeric


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=90),
    st.integers(min_value=1, max_value=2),
    st.data(),
)
def test_exactness_survives_any_failures_property(n, ell, data):
    """Survivor pairs outside the ignored set never lose their exact path.

    The 6**ell growth constant can fail on tail layouts, the exactness
    itself never does, so only violations are asserted here.
    """
    fs = frozenset(
        data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=8))
    )
    ps = sp.generate_points(n, "uniform", 5)
    scheme = sp.build_scheme(n, ell)
    g = sp.build_spanner(ps, scheme)
    rep = sp.verify_robust_spanner(g, ps, scheme, fs, oracle_sample=100, seed=1)
    assert rep.violations == ()
    assert rep.oracle_mismatches == ()
    # deleting the whole ignored set is a strictly stronger ask and does
    # fail on some draws; the field is recorded, never required
    assert rep.strong_variant_ok is not None


def dropped_instance(n, ell, model, drop, seed):
    """A built spanner with a ``drop`` share of its edges removed at random,
    and up to ``n // 10`` random failures; the rng is returned for reuse."""
    ps = sp.generate_points(n, model, seed)
    scheme = sp.build_scheme(n, ell)
    g = sp.build_spanner(ps, scheme)
    rng = np.random.default_rng(seed)
    g = sp.SpannerGraph(n, g.edges[rng.random(g.edge_count) >= drop])
    fs = frozenset(rng.choice(n, size=int(rng.integers(0, n // 10 + 1)), replace=False).tolist())
    return ps, scheme, g, fs, rng


def flipped_reach(rows):
    """``_forward_reach`` with every bit of the given sources' full rows inverted.

    A window call, as the links make, is passed through unchanged.
    """

    def reach(graph, alive, lo=0, hi=None):
        out = _forward_reach(graph, alive, lo, hi)
        if hi is not None:
            return out
        for x in rows:
            out[x] ^= (1 << graph.n) - 1
        return out

    return reach


def test_oracle_mismatch_reports_detour_length(monkeypatch):
    # 0 and 1 meet only through 2, a detour past the bounded search's reach
    ps = sp.make_point_set([0.0, 1.0, 5.0])
    g = sp.SpannerGraph(3, [(0, 2), (1, 2)])
    monkeypatch.setattr(verify, "_forward_reach", flipped_reach([0]))
    rep = sp.verify_robust_spanner(g, ps, sp.build_scheme(3, 1), frozenset(), seed=1)
    detour = sp.brute_force_oracle(g, ps, frozenset())[(0, 1)]
    assert detour == 9.0
    # 0 -> 2 is an edge, so the flip turns it into the other kind of mismatch
    assert set(rep.oracle_mismatches) == {(0, 1, detour), (0, 2, 5.0)}


def a_broken_link(graph, alive, targets):
    """``_broken_links`` reporting the first link broken, so the verify reads the reach rows."""
    return [tuple(targets[:2].tolist())]


def test_oracle_mismatch_on_exact_pair_reports_gap(monkeypatch):
    g, ps = path_graph()
    # every link is an edge, so without the planted break no row is read
    monkeypatch.setattr(verify, "_broken_links", a_broken_link)
    monkeypatch.setattr(verify, "_forward_reach", flipped_reach([0]))
    rep = sp.verify_robust_spanner(g, ps, sp.build_scheme(3, 1), frozenset(), seed=1)
    assert set(rep.oracle_mismatches) == {(0, 1, 1.0), (0, 2, 5.0)}
    assert not rep.passed


def price_forward(ps, edges, pairs):
    """``_price_forward`` on the forward copy of ``edges``."""
    return verify._price_forward(verify._forward_rows(ps, edges), pairs)


def never_certify(forward, pairs):
    """``_price_forward`` with no forward path found, so every pair takes the full search."""
    return [math.inf] * len(pairs)


def never_search(forward, u, v):
    """``_search_forward`` finding no path, so a dead-ended walk takes the full search."""
    return math.inf


@contextlib.contextmanager
def full_search_only():
    """Neither the walk nor the depth-first search certifies: every pair takes the full search."""
    with mock.patch.object(verify, "_price_forward", never_certify), \
            mock.patch.object(verify, "_search_forward", never_search):
        yield


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=140),
    ell=st.integers(min_value=1, max_value=2),
    model=st.sampled_from(["uniform", "clustered", "expgaps"]),
    drop=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**16),
    flip_all=st.booleans(),
    oracle_sample=st.sampled_from([20, 500]),
    exhaustive_limit=st.sampled_from([64, 512]),
)
@example(
    n=77, ell=2, model="uniform", drop=0.57, seed=1, flip_all=True, oracle_sample=20, exhaustive_limit=64
)
# ignored survivors that reach others only by backtracking: stretch 2.31
@example(
    n=120, ell=2, model="uniform", drop=0.3, seed=0, flip_all=True, oracle_sample=20, exhaustive_limit=64
)
def test_forward_certificates_match_full_search_property(
    n, ell, model, drop, seed, flip_all, oracle_sample, exhaustive_limit
):
    """Certifying pairs on the forward copy never changes a report.

    Instances have dropped edges, random failures and inverted reach rows,
    so that mismatches of both kinds reach the report. The reference run certifies nothing,
    so every sampled pair goes through the search on the full alive graph.
    A link is reported broken in both runs, so that the inverted rows are read.
    """
    ps, scheme, g, fs, rng = dropped_instance(n, ell, model, drop, seed)
    rows = range(n) if flip_all else rng.choice(n, size=3, replace=False).tolist()
    kwargs = dict(
        exhaustive_limit=exhaustive_limit, pair_sample=300, oracle_sample=oracle_sample, seed=seed
    )
    with mock.patch.object(verify, "_broken_links", a_broken_link), \
            mock.patch.object(verify, "_forward_reach", flipped_reach(rows)):
        certified = sp.verify_robust_spanner(g, ps, scheme, fs, **kwargs)
        with full_search_only():
            full = sp.verify_robust_spanner(g, ps, scheme, fs, **kwargs)
    assert certified.to_json() == full.to_json()


def alive_edges(graph, removed):
    """``verify._alive_edges`` with the removed vertices given as a set."""
    dead = np.zeros(graph.n, dtype=bool)
    dead[list(removed)] = True
    return verify._alive_edges(graph, dead)


def forward_csr(graph, ps, removed):
    """Directed CSR of the alive edges, each pointing up the line and weighted
    by its gap: the matrix the forward path search replaced."""
    edges = alive_edges(graph, removed)
    ends = ps.coords[edges]
    up = ends[:, 0] < ends[:, 1]
    tail = np.where(up, edges[:, 0], edges[:, 1])
    head = np.where(up, edges[:, 1], edges[:, 0])
    return csr_matrix((np.abs(ends[:, 1] - ends[:, 0]), (tail, head)), shape=(graph.n, graph.n))


def dijkstra_price_forward(graph, ps, removed, pairs):
    """The bounded Dijkstra the forward path search replaced, kept as its reference.

    Each pair is searched on ``forward_csr`` from its endpoint with the
    smaller coordinate, stopping past the gap; a finite length is the
    shortest alive path that never backtracks.
    """
    coords = ps.coords
    mat = forward_csr(graph, ps, removed)
    out = []
    for x, y in pairs:
        if coords[x] > coords[y]:
            x, y = y, x
        limit = (coords[y] - coords[x]) * (1.0 + 2.0 * ORACLE_RELATIVE_TOLERANCE)
        out.append(float(dijkstra(mat, indices=x, limit=limit)[y]))
    return out


def certified(ps, pairs, lengths):
    return [
        verify._within_tolerance(d, abs(ps.coords[y] - ps.coords[x]))
        for (x, y), d in zip(pairs, lengths)
    ]


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=140),
    ell=st.integers(min_value=1, max_value=2),
    model=st.sampled_from(["uniform", "clustered", "expgaps"]),
    drop=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**16),
)
# seven of these pairs have a forward path but dead-end on the walk
@example(n=20, ell=1, model="uniform", drop=0.1, seed=0)
def test_path_search_certifies_the_dijkstra_pairs_property(n, ell, model, drop, seed):
    """The walk certifies only pairs that the reference certifies too."""
    ps, _, g, fs, rng = dropped_instance(n, ell, model, drop, seed)
    alive = np.array(sorted(set(range(n)) - fs))
    xs, ys = _sample_pairs(rng, alive, 200)
    # either endpoint may come first
    pairs = [(x, y) if i % 2 else (y, x) for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist()))]
    got = certified(ps, pairs, price_forward(ps, alive_edges(g, fs), pairs))
    want = certified(ps, pairs, dijkstra_price_forward(g, ps, fs, pairs))
    assert all(w for c, w in zip(got, want) if c)


def dead_end():
    """From 0 the walk takes 2, the largest head not past 3, but 2 has no edge up the line."""
    ps = sp.make_point_set([0.0, 1.0, 2.0, 3.0])
    return ps, sp.SpannerGraph(4, [(0, 1), (0, 2), (1, 3)])


def no_full_search(mat, us, vs):
    raise AssertionError(f"full search for {len(us)} pairs")


def test_dead_ended_walk_is_priced_by_the_full_search():
    # once some pair in the call is untrusted, as a violation is, a dead end
    # goes to the full search too, with no depth-first search; it finds the
    # path through 1
    ps, g = dead_end()
    assert price_forward(ps, g.edges, [(3, 0)]) == [math.inf]
    assert price_forward(ps, g.edges, [(2, 3)]) == [math.inf]
    with mock.patch.object(verify, "_search_forward", side_effect=AssertionError("searched")):
        lengths, exact = verify._price_exact(ps, g.edges, [(2, 3), (3, 0)], [False, True])
    # 2 reaches 3 only back through 0: 2 + 1 + 2
    assert (lengths, exact) == ([5.0, 3.0], [False, True])
    rep = sp.verify_robust_spanner(g, ps, sp.build_scheme(4, 1), frozenset(), seed=1)
    # 2 reaches 3 only back through 0, and 1 reaches 2 the same way
    assert {(x, y) for x, y, _ in rep.violations} == {(2, 3), (1, 2)}
    assert rep.oracle_checked and not rep.oracle_mismatches


def test_depth_first_search_backs_out_of_a_dead_end():
    # while every pair is trusted, the search backs out of 2 and finds the
    # path through 1, so scipy's search is not needed
    ps, g = dead_end()
    forward = verify._forward_rows(ps, g.edges)
    assert verify._search_forward(forward, 0, 3) == 3.0
    assert verify._search_forward(forward, 2, 3) == math.inf
    with mock.patch.object(verify, "_price_pairs", no_full_search):
        assert verify._price_exact(ps, g.edges, [(3, 0)], [True]) == ([3.0], [True])


@pytest.mark.parametrize(
    "pairs, searched",
    [
        ([(3, 0), (2, 3)], [(3, 0), (2, 3)]),
        ([(2, 3), (3, 0)], [(2, 3)]),  # the first search is vain: the rest go to the full search
        ([(0, 1), (3, 0), (2, 3)], [(3, 0), (2, 3)]),  # a certified walk is not searched
    ],
)
def test_depth_first_search_stops_at_its_first_vain_search(pairs, searched):
    """Each uncertified pair is searched as given, the search orienting it itself."""
    ps, g = dead_end()
    calls = []

    def spy(forward, u, v):
        calls.append((u, v))
        return search_forward(forward, u, v)

    search_forward = verify._search_forward
    with mock.patch.object(verify, "_search_forward", spy):
        lengths, exact = verify._price_exact(ps, g.edges, pairs, [True] * len(pairs))
    assert calls == searched
    # 2 reaches 3 only back through 0: 2 + 1 + 2
    want = {(3, 0): (3.0, True), (2, 3): (5.0, False), (0, 1): (1.0, True)}
    assert list(zip(lengths, exact)) == [want[p] for p in pairs]


@pytest.mark.parametrize(
    "pairs, trusted",
    [
        ([(3, 0), (0, 1), (2, 3)], [True, True, False]),
        ([(3, 0), (0, 1)], [True, False]),
        ([(3, 0), (0, 1)], [False, True]),
    ],
    ids=["untrusted-third-pair", "untrusted-second-pair", "untrusted-dead-end"],
)
def test_no_depth_first_search_once_the_full_search_runs(pairs, trusted):
    """An untrusted pair in the same call sends the dead ends straight to the full search."""
    ps, g = dead_end()
    with mock.patch.object(verify, "_search_forward", side_effect=AssertionError("searched")):
        lengths, exact = verify._price_exact(ps, g.edges, pairs, trusted)
    # 2 reaches 3 only back through 0: 2 + 1 + 2
    want = {(3, 0): (3.0, True), (0, 1): (1.0, True), (2, 3): (5.0, False)}
    assert list(zip(lengths, exact)) == [want[p] for p in pairs]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=140),
    ell=st.integers(min_value=1, max_value=2),
    model=st.sampled_from(["uniform", "clustered", "expgaps"]),
    drop=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**16),
)
# seven of these pairs dead-end on the walk but have a forward path; two have none
@example(n=20, ell=1, model="uniform", drop=0.1, seed=0)
def test_depth_first_search_certifies_exactly_the_dijkstra_pairs_property(
    n, ell, model, drop, seed
):
    """The search finds a forward path exactly when the reference finds one."""
    ps, _, g, fs, rng = dropped_instance(n, ell, model, drop, seed)
    alive = np.array(sorted(set(range(n)) - fs))
    xs, ys = _sample_pairs(rng, alive, 200)
    ends = zip(xs.tolist(), ys.tolist())
    pairs = [(x, y) if ps.coords[x] < ps.coords[y] else (y, x) for x, y in ends]
    forward = verify._forward_rows(ps, alive_edges(g, fs))
    got = certified(ps, pairs, [verify._search_forward(forward, x, y) for x, y in pairs])
    want = certified(ps, pairs, dijkstra_price_forward(g, ps, fs, pairs))
    assert got == want


@pytest.mark.parametrize("model", ["clustered", "expgaps"])
def test_dead_ends_on_a_spanner_take_no_full_search(model):
    """A half-cluster wipe whose walks dead-end: the search certifies them, with the same report.

    On these intact spanners every dead-ended pair has a forward path, so
    the verify never calls scipy's search.
    """
    n, ell = 500, 2
    ps = sp.generate_points(n, model, 8)
    scheme = sp.build_scheme(n, ell)
    g = sp.build_spanner(ps, scheme)
    fs = sp.half_cluster_wipe(scheme, 1, 9)
    calls = []
    search_forward = verify._search_forward

    def spy(*args):
        calls.append(args[1:])
        return search_forward(*args)

    with mock.patch.object(verify, "_search_forward", spy), \
            mock.patch.object(verify, "_price_pairs", no_full_search):
        rep = sp.verify_robust_spanner(g, ps, scheme, fs, seed=8)
    assert calls
    with full_search_only():
        full = sp.verify_robust_spanner(g, ps, scheme, fs, seed=8)
    assert rep.to_json() == full.to_json()
    assert rep.passed


def walk_price_forward(ps, edges, pairs):
    """The greedy walk one pair at a time, as the batched walk's reference.

    Each pair walks from its endpoint with the smaller coordinate and at each
    vertex takes the head with the largest coordinate not past the other
    endpoint, its goal; a vertex with no such head ends the walk at inf. The
    heads are read off the coordinates and the alive ``edges`` alone, never
    off the forward copy.
    """
    c = ps.coords.tolist()
    heads = [[] for _ in c]
    for x, y in edges.tolist():
        lo, hi = (x, y) if c[x] < c[y] else (y, x)
        heads[lo].append(hi)

    def walk(v, goal):
        d = 0.0
        while v != goal:
            ahead = [w for w in heads[v] if c[w] <= c[goal]]
            if not ahead:
                return math.inf
            w = max(ahead, key=c.__getitem__)
            d += abs(c[w] - c[v])
            v = w
        return d

    return [walk(x, y) if c[x] < c[y] else walk(y, x) for x, y in pairs]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=140),
    ell=st.integers(min_value=1, max_value=2),
    model=st.sampled_from(["uniform", "clustered", "expgaps"]),
    drop=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=1, max_value=600),
)
# most edges dropped, so many walks dead-end
@example(n=40, ell=1, model="uniform", drop=0.6, seed=0, count=600)
# some walks dead-end, between pairs that walk to their goal
@example(n=20, ell=1, model="uniform", drop=0.1, seed=0, count=200)
def test_batched_walk_matches_per_pair_search_property(n, ell, model, drop, seed, count):
    """The batched walk prices every pair exactly as the per-pair walk does.

    Pairs come in either orientation, and the lengths must be equal as
    floats, each summed along its path in path order.
    """
    ps, _, g, fs, rng = dropped_instance(n, ell, model, drop, seed)
    alive = np.array(sorted(set(range(n)) - fs))
    xs, ys = _sample_pairs(rng, alive, count)
    flip = rng.random(count) < 0.5
    pairs = list(zip(np.where(flip, ys, xs).tolist(), np.where(flip, xs, ys).tolist()))
    edges = alive_edges(g, fs)
    assert price_forward(ps, edges, pairs) == walk_price_forward(ps, edges, pairs)


@pytest.mark.parametrize(
    "n, ell, model, seed", [(60, 1, "uniform", 0), (140, 2, "expgaps", 3), (100, 2, "clustered", 5)]
)
def test_forward_copy_prices_in_coordinate_ranks_not_index_order(n, ell, model, seed):
    """Relabelled so that index order is not coordinate order, an instance prices the same.

    The vertices and the edge labels are permuted, and the point set is
    duck-typed, since a ``PointSet`` holds its coordinates sorted. The walk
    and the depth-first search must give the sorted instance's lengths.
    """
    ps, _, g, fs, rng = dropped_instance(n, ell, model, 0.3, seed)
    edges = alive_edges(g, fs)
    xs, ys = _sample_pairs(rng, np.array(sorted(set(range(n)) - fs)), 300)
    pairs = np.stack([xs, ys], 1)
    label = rng.permutation(n)
    coords = np.empty(n)
    coords[label] = ps.coords
    shuffled = types.SimpleNamespace(coords=coords, n=n)
    assert not (np.diff(coords) > 0).all()
    sorted_copy = verify._forward_rows(ps, edges)
    shuffled_copy = verify._forward_rows(shuffled, label[edges])
    want = verify._price_forward(sorted_copy, pairs)
    assert verify._price_forward(shuffled_copy, label[pairs]) == want
    searched = [verify._search_forward(sorted_copy, x, y) for x, y in pairs.tolist()]
    relabelled = [verify._search_forward(shuffled_copy, x, y) for x, y in label[pairs].tolist()]
    assert relabelled == searched
    assert any(math.isfinite(d) for d in want)


@pytest.mark.parametrize("n, ell", [(700, 2), (1296, 3)])
def test_walk_to_the_goal_takes_no_depth_first_search(instance, n, ell):
    """On an intact spanner every walk reaches its goal, and a dead end fails only its own pair.

    The walk is the oracle's only forward search, so every pair of an intact
    spanner is certified by it alone.
    """
    ps, _, g = instance(n, ell)
    xs, ys = _sample_pairs(np.random.default_rng(n), np.arange(n), 500)
    pairs = list(zip(xs.tolist(), ys.tolist()))
    lengths = price_forward(ps, g.edges, pairs)
    assert all(certified(ps, pairs, lengths))
    # the dead end of test_dead_ended_walk_is_priced_by_the_full_search, in a
    # batch with pairs on either side of it that walk to their goal
    ps = sp.make_point_set([0.0, 1.0, 2.0, 3.0])
    g = sp.SpannerGraph(4, [(0, 1), (0, 2), (1, 3)])
    assert price_forward(ps, g.edges, [(0, 1), (0, 3), (1, 3)]) == [1.0, math.inf, 2.0]


def half_clique(n):
    """A clique on the lower half of the vertices and a path on the upper half, never joined."""
    h = n // 2
    a, b = np.triu_indices(h, 1)
    path = np.arange(h, n - 1)
    return sp.SpannerGraph(n, np.concatenate([np.stack([a, b], 1), np.stack([path, path + 1], 1)]))


def test_half_clique_cross_pairs_read_inf():
    """Cross pairs have no path, so their walks dead-end and read inf.

    The report is the one where nothing is certified.
    """
    n = 300
    ps = sp.generate_points(n, "uniform", 0)
    g = half_clique(n)
    inside = [(160, 290), (3, 140)]
    cross = [(x, y) for x in range(0, 150, 7) for y in range(150, 300, 11)]
    lengths = price_forward(ps, g.edges, inside + cross)
    assert certified(ps, inside, lengths[:2]) == [True, True]
    assert all(math.isinf(d) for d in lengths[2:])
    scheme = sp.build_scheme(n, 1)
    fs = sp.random_failures(n, 15, 1)
    rep = sp.verify_robust_spanner(g, ps, scheme, fs, seed=2)
    with full_search_only():
        full = sp.verify_robust_spanner(g, ps, scheme, fs, seed=2)
    assert rep.to_json() == full.to_json()
    assert rep.violations and not rep.passed


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=140),
    ell=st.integers(min_value=1, max_value=2),
    model=st.sampled_from(["uniform", "clustered", "expgaps"]),
    drop=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**16),
    oracle_sample=st.sampled_from([0, 20, 500]),
)
def test_priced_violations_are_full_graph_lengths_property(
    n, ell, model, drop, seed, oracle_sample
):
    """Priced in one call with the oracle and stretch pairs, each violation has its exact length.

    The length is the brute-force oracle's, null for an unreachable pair;
    only the first 512 are priced.
    """
    ps, scheme, g, fs, _ = dropped_instance(n, ell, model, drop, seed)
    rep = sp.verify_robust_spanner(g, ps, scheme, fs, oracle_sample=oracle_sample, seed=seed)
    lengths = sp.brute_force_oracle(g, ps, fs)
    for i, (x, y, d) in enumerate(rep.violations):
        want = lengths[(x, y)]
        assert d == (None if i >= 512 or math.isinf(want) else want)


def test_one_full_search_prices_violations_and_oracle_pairs():
    """A verify with violations and oracle pairs the reach denies calls scipy's search once."""
    ps, g = dead_end()
    with mock.patch.object(verify, "_price_pairs", wraps=verify._price_pairs) as full:
        rep = sp.verify_robust_spanner(g, ps, sp.build_scheme(4, 1), frozenset(), seed=1)
    assert rep.violations and full.call_count == 1
    # the violations come first, then the denied oracle pairs
    us, vs = full.call_args.args[1:]
    priced = list(zip(us.tolist(), vs.tolist()))
    assert priced[: len(rep.violations)] == [(x, y) for x, y, _ in rep.violations]
    assert len(priced) > len(rep.violations)


def test_detour_within_tolerance_reaches_the_full_search():
    # 0 and 1 meet only through 2, which sits 1e-14 past 1: the forward copy
    # has no path, but the detour passes the oracle's 1e-12 test
    ps = sp.make_point_set([0.0, 1.0, 1.0 + 1e-14])
    g = sp.SpannerGraph(3, [(0, 2), (1, 2)])
    assert price_forward(ps, g.edges, [(0, 1)]) == [math.inf]
    detour = sp.brute_force_oracle(g, ps, frozenset())[(0, 1)]
    assert 1.0 < detour <= 1.0 + ORACLE_RELATIVE_TOLERANCE
    rep = sp.verify_robust_spanner(g, ps, sp.build_scheme(3, 1), frozenset(), seed=1)
    assert rep.violations == ((0, 1, detour),)
    assert set(rep.oracle_mismatches) == {(0, 1, detour)}


def test_flipped_exact_pair_reports_full_graph_length(monkeypatch):
    # the only forward path 1 -> 2 -> 3 -> 4 sums to 3 + 4.4e-16 in floats;
    # the detour through vertex 0, just left of 1, sums to exactly 3
    ps = sp.make_point_set([-1e-20, 0.0, 0.7, 2.9, 3.0])
    g = sp.SpannerGraph(5, [(1, 2), (2, 3), (3, 4), (0, 1), (0, 4)])
    assert price_forward(ps, g.edges, [(1, 4)]) == [3.0000000000000004]
    exact = sp.brute_force_oracle(g, ps, frozenset())
    assert exact[(1, 4)] == 3.0
    full = []
    unspied = verify._price_pairs

    def spy(mat, us, vs):
        full.extend(zip(us.tolist(), vs.tolist()))
        return unspied(mat, us, vs)

    # every link is an edge, so without the planted break no row is read
    monkeypatch.setattr(verify, "_broken_links", a_broken_link)
    monkeypatch.setattr(verify, "_forward_reach", flipped_reach([1]))
    monkeypatch.setattr(verify, "_price_pairs", spy)
    rep = sp.verify_robust_spanner(g, ps, sp.build_scheme(5, 1), frozenset(), seed=0)
    # (1, 4) is drawn first; the reach denies it, so it follows the violations
    # into the full search
    assert full[len(rep.violations)] == (1, 4)
    assert set(rep.oracle_mismatches) == {(1, y, exact[(1, y)]) for y in (2, 3, 4)}


def test_certified_stretch_pairs_take_no_full_search(instance):
    """Stretch pairs with a forward path have stretch exactly 1, with no full search."""
    ps, scheme, g = instance(100, 2)
    fs = sp.random_failures(100, 5, 1)
    with mock.patch.object(verify, "_price_pairs", no_full_search):
        rep = sp.verify_robust_spanner(g, ps, scheme, fs, seed=1)
    assert rep.f_star_size > rep.f_size
    assert rep.max_stretch_over_ignored == 1.0


def test_forward_copy_is_built_once_per_verify(instance):
    """The oracle sample and the ignored-set stretch price on one forward copy."""
    ps, scheme, g = instance(100, 2)
    fs = sp.random_failures(100, 5, 1)
    built = []
    forward_rows = verify._forward_rows

    def counted(ps, edges):
        built.append(len(edges))
        return forward_rows(ps, edges)

    with mock.patch.object(verify, "_forward_rows", counted):
        rep = sp.verify_robust_spanner(g, ps, scheme, fs, seed=1)
    assert rep.oracle_checked > 0 and rep.max_stretch_over_ignored == 1.0
    assert len(built) == 1


def test_backtracking_stretch_is_full_graph_length_over_gap():
    # every vertex but 5, 6 and 9 fails, so all three survivors are ignored;
    # 5 reaches 6 only through 9, past 6 and back
    ps = sp.make_point_set(np.arange(16.0))
    g = sp.SpannerGraph(16, [(5, 9), (6, 9)])
    fs = frozenset(range(16)) - {5, 6, 9}
    assert price_forward(ps, g.edges, [(5, 6)]) == [math.inf]
    rep = sp.verify_robust_spanner(g, ps, sp.build_scheme(16, 1), fs, seed=1)
    assert rep.f_star_size == 16
    detour = sp.brute_force_oracle(g, ps, fs)[(5, 6)]
    assert detour == 7.0
    assert rep.max_stretch_over_ignored == detour / (ps.coords[6] - ps.coords[5])


@pytest.mark.parametrize(
    "n, ell, model", [(300, 1, "expgaps"), (700, 2, "clustered"), (700, 3, "uniform")]
)
def test_forward_step_certifies_exactly_the_monotone_pairs(n, ell, model):
    """On well-spread points a certified pair has a monotone path.

    A walk that dead-ends leaves a monotone pair uncertified, for the full
    search to settle; with 60% of the edges dropped some walks do.
    """
    ps = sp.generate_points(n, model, 4)
    scheme = sp.build_scheme(n, ell)
    g = sp.build_spanner(ps, scheme)
    rng = np.random.default_rng(n)
    g = sp.SpannerGraph(n, g.edges[rng.random(g.edge_count) >= 0.6])
    fs = sp.random_failures(n, n // 20, 2)
    alive = [v for v in range(n) if v not in fs]
    pairs = [tuple(sorted(p)) for p in rng.choice(alive, size=(400, 2)).tolist() if p[0] != p[1]]
    reach = _forward_reach(g, [v not in fs for v in range(n)])
    lengths = price_forward(ps, alive_edges(g, fs), pairs)
    certified = [
        verify._within_tolerance(d, ps.coords[y] - ps.coords[x])
        for (x, y), d in zip(pairs, lengths)
    ]
    monotone = [bool((reach[x] >> y) & 1) for x, y in pairs]
    assert all(m for c, m in zip(certified, monotone) if c)
    assert 0 < sum(certified) < sum(monotone)


def loop_sample_pairs(rng, pool, count):
    """The tuple-at-a-time sampler the array version replaced, kept as its reference."""
    t = len(pool)
    pairs = []
    while len(pairs) < count:
        need = count - len(pairs)
        a = rng.integers(0, t, size=2 * need + 8)
        b = rng.integers(0, t, size=2 * need + 8)
        for i, j in zip(a.tolist(), b.tolist()):
            if i != j:
                x, y = pool[i], pool[j]
                pairs.append((x, y) if x < y else (y, x))
                if len(pairs) == count:
                    break
    return pairs


def checked_reach(n, ell, drop, seed, flips):
    """Full reach rows and targets of a spanner with dropped edges and random failures.

    Edges are dropped so pairs go missing, and per ``flips`` no, some or all
    rows are inverted, which sets bits below each row's own vertex and
    clears its own bit. The rng is returned for reuse.
    """
    ps = sp.generate_points(n, "uniform", seed)
    scheme = sp.build_scheme(n, ell)
    g = sp.build_spanner(ps, scheme)
    rng = np.random.default_rng(seed)
    g = sp.SpannerGraph(n, g.edges[rng.random(g.edge_count) >= drop])
    fs = frozenset(rng.choice(n, size=int(rng.integers(0, n // 4 + 1)), replace=False).tolist())
    f_star = sp.compute_closure(scheme, fs).f_star
    targets = [v for v in range(n) if v not in f_star]
    rows = {"none": [], "some": rng.choice(n, size=min(n, 3), replace=False).tolist(),
            "all": range(n)}[flips]
    return flipped_reach(rows)(g, [v not in fs for v in range(n)]), targets, rng


def pairwise_check_pairs_exhaustive(reach, targets):
    """Each target pair's own bit; missing pairs in descending ``x``, then ascending ``y``."""
    missing = []
    for i in reversed(range(len(targets))):
        x = targets[i]
        missing.extend((x, y) for y in targets[i + 1 :] if not (reach[x] >> y) & 1)
    return missing


@settings(max_examples=60, deadline=None)
@given(
    t=st.integers(min_value=2, max_value=3000),
    count=st.sampled_from([0, 1, 20_000]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(t=2, count=20_000, seed=0)
@example(t=2, count=1, seed=3)
def test_sample_pairs_matches_loop_reference(t, count, seed):
    """Same pairs, same order, same generator state as the tuple loop."""
    pool = np.sort(np.random.default_rng(seed).choice(4 * t, size=t, replace=False))
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    xs, ys = _sample_pairs(rng_new, pool, count)
    want = loop_sample_pairs(rng_old, pool.tolist(), count)
    assert xs.dtype == ys.dtype == np.int64
    assert list(zip(xs.tolist(), ys.tolist())) == want
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=140),
    ell=st.integers(min_value=1, max_value=2),
    drop=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**16),
    flips=st.sampled_from(["none", "some", "all"]),
)
@example(n=77, ell=2, drop=0.57, seed=1, flips="all")
@example(n=9, ell=1, drop=0.5, seed=2, flips="some")
def test_exhaustive_count_matches_bigint_reference(n, ell, drop, seed, flips):
    """Missing pairs, in order, agree with a per-pair bit test."""
    reach, targets, _ = checked_reach(n, ell, drop, seed, flips)
    want = pairwise_check_pairs_exhaustive(reach, targets)
    assert _check_pairs(reach, targets) == want


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=140),
    ell=st.integers(min_value=1, max_value=2),
    drop=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**16),
    flips=st.sampled_from(["none", "some", "all"]),
    count=st.sampled_from([1, 30, 2000]),
    repeats=st.integers(min_value=0, max_value=40),
)
@example(n=77, ell=2, drop=0.57, seed=1, flips="all", count=2000, repeats=40)
@example(n=90, ell=2, drop=0.3, seed=0, flips="none", count=2000, repeats=10)  # rows as swept
def test_sampled_check_matches_per_pair_bits_property(n, ell, drop, seed, flips, count, repeats):
    """Missing pairs, in sample order, agree with each sampled pair's own bit.

    The sample ends with some of its pairs again, so a missing pair is listed
    as often as it is drawn. Dropped edges and flipped rows make many rows miss a
    target, so a check that reads only some of the flagged rows fails.
    """
    reach, targets, rng = checked_reach(n, ell, drop, seed, flips)
    pool = np.array(targets, dtype=np.int64)
    xs = ys = pool[:0]
    if len(pool) >= 2:
        xs, ys = _sample_pairs(rng, pool, count)
    xs, ys = (np.concatenate([a, a[::-1][:repeats]]) for a in (xs, ys))
    hit = [(reach[x] >> y) & 1 for x, y in zip(xs.tolist(), ys.tolist())]
    missing = [(x, y) for x, y, h in zip(xs.tolist(), ys.tolist(), hit) if not h]
    assert _check_pairs(reach, targets, xs, ys) == missing


def test_exhaustive_missing_pairs_order():
    # three isolated vertices: every pair is missing
    reach = [1, 2, 4, 8]
    missing = _check_pairs(reach, [0, 1, 2, 3])
    assert missing == [(2, 3), (1, 2), (1, 3), (0, 1), (0, 2), (0, 3)]


def full_width_spy(calls):
    """``_forward_reach`` appending the ``alive`` of each full-width sweep to ``calls``.

    The links' sweeps of their own ranges run unrecorded.
    """

    def reach(graph, alive, lo=0, hi=None):
        if hi is None:
            calls.append(alive)
        return _forward_reach(graph, alive, lo, hi)

    return reach


def all_joined(g, removed, targets):
    """Whether a fresh reach joins every pair of ``targets`` with ``removed`` deleted."""
    reach = _forward_reach(g, [v not in removed for v in range(g.n)])
    return not pairwise_check_pairs_exhaustive(reach, targets)


def strong_reference(g, f_star, exhaustive, seed, pair_sample):
    """The strong verdict from a fresh reach with the whole ignored set deleted."""
    targets = [v for v in range(g.n) if v not in f_star]
    if exhaustive:
        return all_joined(g, f_star, targets)
    reach2 = _forward_reach(g, [v not in f_star for v in range(g.n)])
    pairs = loop_sample_pairs(np.random.default_rng(seed), targets, pair_sample)
    return all((reach2[x] >> y) & 1 for x, y in pairs)


@pytest.mark.parametrize("exhaustive_limit", [512, 0])
def test_strong_variant_reads_its_own_pass(instance, exhaustive_limit):
    """Deleting the whole ignored set here cuts pairs the first pass keeps."""
    ps, scheme, g = instance(64, 1, seed=5)
    fs = frozenset({24, 25, 55})
    rep = sp.verify_robust_spanner(
        g, ps, scheme, fs, exhaustive_limit=exhaustive_limit, pair_sample=2000, seed=1
    )
    assert rep.passed and rep.violations == ()
    f_star = sp.compute_closure(scheme, fs).f_star
    want = strong_reference(g, f_star, exhaustive_limit > 0, 1, 2000)
    assert rep.strong_variant_ok is want is False


@pytest.mark.parametrize("exhaustive_limit", [512, 0])
@pytest.mark.parametrize("fs", [(), (3,), (8, 9, 30), (24, 25, 55)])
@pytest.mark.parametrize("cut", [False, True])
def test_strong_pass_sweeps_only_when_the_closure_grows(instance, cut, fs, exhaustive_limit):
    """A pass sweeps once when one of its links breaks, exhaustive or sampled, and never otherwise.

    When ``F* == F`` the first pass's verdict is the strong one, with no
    second look at the links.
    """
    ps, scheme, g = instance(64, 1)
    if cut:
        # the edge is the only path between consecutive vertices, so pairs go missing
        g = sp.SpannerGraph(64, [e for e in g.edge_set if e != (10, 11)])
    fs = frozenset(fs)
    f_star = sp.compute_closure(scheme, fs).f_star
    targets = [v for v in range(64) if v not in f_star]
    kwargs = dict(exhaustive_limit=exhaustive_limit, pair_sample=2000, seed=1)
    links, calls, sampled = [], [], []

    def counted_links(graph, alive, targets):
        links.append(alive)
        return _broken_links(graph, alive, targets)

    def counted_check(reach, targets, xs=None, ys=None):
        if xs is not None:
            sampled.append(len(xs))
        return _check_pairs(reach, targets, xs, ys)

    with mock.patch.object(verify, "_broken_links", counted_links), \
            mock.patch.object(verify, "_forward_reach", full_width_spy(calls)), \
            mock.patch.object(verify, "_check_pairs", counted_check):
        rep = sp.verify_robust_spanner(g, ps, scheme, fs, **kwargs)
    alive, alive2 = ([v not in r for v in range(64)] for r in (fs, f_star))
    assert links == ([alive] if f_star == fs else [alive, alive2])
    sweeps = [] if all_joined(g, fs, targets) else [alive]
    if f_star != fs and not all_joined(g, f_star, targets):
        sweeps.append(alive2)
    assert calls == sweeps
    if not cut:
        # an intact spanner's first pass holds on its links alone
        assert alive not in calls
    # a sampled check runs once per sweep; an exhaustive verify runs none
    assert len(sampled) == (0 if exhaustive_limit else len(calls))
    want = strong_reference(g, f_star, exhaustive_limit > 0, 1, 2000)
    base = sp.verify_robust_spanner(g, ps, scheme, fs, strong_check=False, **kwargs)
    assert rep.to_json() == dataclasses.replace(base, strong_variant_ok=want).to_json()


@pytest.mark.parametrize(
    "n, k, seed, exhaustive_limit, grows, strong",
    [
        (1024, 51, 0, 512, False, True),
        (216, 10, 2, 512, True, True),
        (216, 10, 2, 0, True, True),
        (216, 10, 3, 512, True, False),
    ],
)
def test_intact_spanner_is_decided_by_its_links(
    instance, n, k, seed, exhaustive_limit, grows, strong
):
    """Every first-pass link of an intact spanner holds: its pass runs no full-width sweep.

    At n = 1024 the closure adds nothing, so the strong pass takes the first
    pass's verdict. At n = 216 it grows: the strong pass holds on its links,
    or, when one breaks, sweeps once to list its missing pairs.
    """
    ps, scheme, g = instance(n, 2)
    fs = sp.random_failures(n, k, seed)
    f_star = sp.compute_closure(scheme, fs).f_star
    assert (f_star != fs) is grows
    full = []
    with mock.patch.object(verify, "_forward_reach", full_width_spy(full)):
        rep = sp.verify_robust_spanner(
            g, ps, scheme, fs, exhaustive_limit=exhaustive_limit, seed=1
        )
    # only a strong pass with a broken link sweeps
    assert full == ([] if strong else [[v not in f_star for v in range(n)]])
    assert rep.passed and rep.exact_pairs == rep.pairs_checked > 0
    assert rep.oracle_checked == 500 and rep.oracle_mismatches == ()
    exhaustive = n <= exhaustive_limit
    assert rep.strong_variant_ok is strong is strong_reference(g, f_star, exhaustive, 1, 20_000)


def test_broken_links_stay_inside_their_range():
    # 0 reaches 3 through 1, past the link (0, 2), so a search that ran past 2
    # would hand 3 on to the next link and join 2 to 4
    g = sp.SpannerGraph(5, [(0, 1), (1, 3), (3, 4)])
    targets = np.array([0, 2, 4])
    assert _broken_links(g, [True] * 5, targets) == [(0, 2), (2, 4)]
    # the only path from 0 to 2 runs through a dead vertex
    g = sp.SpannerGraph(3, [(0, 1), (1, 2)])
    assert _broken_links(g, [True, False, True], np.array([0, 2])) == [(0, 2)]
    assert _broken_links(g, [True] * 3, np.array([0, 2])) == []
    assert _broken_links(g, [True] * 3, np.array([1])) == []


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=400),
    ell=st.integers(min_value=1, max_value=3),
    model=st.sampled_from(["uniform", "clustered", "expgaps"]),
    drop=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(n=8, ell=1, model="uniform", drop=0.0, seed=0)
@example(n=300, ell=2, model="clustered", drop=0.3, seed=1)
def test_no_broken_link_iff_the_full_scan_is_exact_property(n, ell, model, drop, seed):
    """For either pass's alive mask, the links agree with the full scan of the reach rows.

    No link is broken exactly when every target pair is exact, and the broken
    links are the consecutive target pairs whose bit is missing.
    """
    ps, scheme, g, fs, _ = dropped_instance(n, ell, model, drop, seed)
    f_star = sp.compute_closure(scheme, fs).f_star
    targets = [v for v in range(n) if v not in f_star]
    for removed in (fs, f_star):
        alive = [v not in removed for v in range(n)]
        reach = _forward_reach(g, alive)
        missing = _check_pairs(reach, targets)
        broken = _broken_links(g, alive, np.array(targets, dtype=np.int64))
        assert (not broken) == (not missing)
        assert broken == [(x, y) for x, y in zip(targets, targets[1:]) if not (reach[x] >> y) & 1]


def swept_links(graph, alive, targets):
    """The link check before the two-hop certificate, kept as its reference.

    A link with a direct edge holds; every other link is swept on its range.
    """
    n, edges = graph.n, graph.edges
    lo, hi = targets[:-1], targets[1:]
    keys = edges[:, 0] * n + edges[:, 1]
    want = lo * n + hi
    direct = np.searchsorted(keys, want, side="right") > np.searchsorted(keys, want)
    return [
        (x, y)
        for x, y in zip(lo[~direct].tolist(), hi[~direct].tolist())
        if not (_forward_reach(graph, alive, x, y + 1)[0] >> (y - x)) & 1
    ]


def window_spy(calls):
    """``_forward_reach`` appending ``(lo, hi)`` of each window sweep to ``calls``."""

    def reach(graph, alive, lo=0, hi=None):
        if hi is not None:
            calls.append((lo, hi))
        return _forward_reach(graph, alive, lo, hi)

    return reach


def uncertified_links(graph, alive, targets):
    """The links with neither a direct edge nor one alive middle vertex, as swept windows."""
    edges = graph.edge_set
    return [
        (x, y + 1)
        for x, y in zip(targets, targets[1:])
        if (x, y) not in edges
        and not any(alive[w] and (x, w) in edges and (w, y) in edges for w in range(x + 1, y))
    ]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=400),
    ell=st.integers(min_value=1, max_value=3),
    model=st.sampled_from(["uniform", "clustered", "expgaps"]),
    drop=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**16),
    removal=st.floats(min_value=0.0, max_value=0.5),
)
@example(n=8, ell=1, model="uniform", drop=0.0, seed=0, removal=0.0)
@example(n=300, ell=2, model="clustered", drop=0.6, seed=1, removal=0.5)
def test_two_hop_links_match_the_swept_links_property(n, ell, model, drop, seed, removal):
    """The links are those the reference finds, and only uncertified links are swept.

    Masks come from both passes and from a random failure set, whose
    targets are a random share of its survivors, so alive vertices lie
    between targets.
    """
    ps, scheme, g, fs, rng = dropped_instance(n, ell, model, drop, seed)
    f_star = sp.compute_closure(scheme, fs).f_star
    targets = np.array([v for v in range(n) if v not in f_star], dtype=np.int64)
    alive = rng.random(n) >= removal
    cases = [([v not in r for v in range(n)], targets) for r in (fs, f_star)]
    cases.append((alive.tolist(), np.flatnonzero(alive & (rng.random(n) < 0.5))))
    for alive, targets in cases:
        calls = []
        with mock.patch.object(verify, "_forward_reach", window_spy(calls)):
            broken = _broken_links(g, alive, targets)
        assert broken == swept_links(g, alive, targets)
        assert calls == uncertified_links(g, alive, targets.tolist())


def test_two_hop_certificate_examples():
    # the only middle vertex is dead: the link is swept, and breaks
    g = sp.SpannerGraph(3, [(0, 1), (1, 2)])
    calls = []
    with mock.patch.object(verify, "_forward_reach", window_spy(calls)):
        assert _broken_links(g, [True, False, True], np.array([0, 2])) == [(0, 2)]
        assert calls == [(0, 3)]
        # alive, it certifies the link without a sweep
        assert _broken_links(g, [True] * 3, np.array([0, 2])) == []
        assert calls == [(0, 3)]
        # joined only by three hops: swept, and holds
        g = sp.SpannerGraph(6, [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4)])
        assert _broken_links(g, [True] * 6, np.array([0, 5])) == []
        assert calls == [(0, 3), (0, 6)]
        # an alive middle vertex with an edge to one end only certifies nothing
        g = sp.SpannerGraph(3, [(0, 1)])
        assert _broken_links(g, [True] * 3, np.array([0, 2])) == [(0, 2)]
        assert calls == [(0, 3), (0, 6), (0, 3)]
    # an edgeless graph has no keys to look up
    assert _broken_links(sp.SpannerGraph(3, []), [True] * 3, np.array([0, 2])) == [(0, 2)]


@pytest.mark.parametrize("layer, half, link", [(1, 6, (11, 21)), (1, 14, (17, 72))])
def test_link_through_a_middle_vertex_takes_no_sweep(instance, layer, half, link):
    """A wipe leaves this first-pass link without a direct edge, joined through
    an alive ignored vertex: no range sweep runs for it. With the whole ignored
    set deleted, the strong pass, it has no middle vertex and is swept."""
    ps, scheme, g = instance(216, 2)
    fs = sp.half_cluster_wipe(scheme, layer, half)
    f_star = sp.compute_closure(scheme, fs).f_star
    targets = np.array([v for v in range(216) if v not in f_star], dtype=np.int64)
    assert link in zip(targets.tolist(), targets[1:].tolist()) and link not in g.edge_set
    calls = []
    with mock.patch.object(verify, "_forward_reach", window_spy(calls)):
        assert _broken_links(g, [v not in fs for v in range(216)], targets) == []
        assert calls == []
        broken = _broken_links(g, [v not in f_star for v in range(216)], targets)
    assert (link[0], link[1] + 1) in calls
    assert broken == swept_links(g, [v not in f_star for v in range(216)], targets)


def test_pair_sample_is_drawn_only_when_read(instance):
    """The sampled check's pairs are drawn when a check first reads them.

    An intact spanner with the oracle off never reads them. With the oracle
    on they are drawn once, before the oracle's pairs, so the seeded stream
    is the one the oracle always drew from. Two passes that both read them
    share one draw.
    """
    ps, scheme, g = instance(1024, 2)
    with mock.patch.object(verify, "_sample_pairs", wraps=_sample_pairs) as draw:
        rep = sp.verify_robust_spanner(g, ps, scheme, frozenset(), oracle_sample=0, seed=1)
    assert draw.call_count == 0
    assert rep.passed and rep.pairs_checked == rep.exact_pairs == 20_000
    with mock.patch.object(verify, "_sample_pairs", wraps=_sample_pairs) as draw:
        sp.verify_robust_spanner(g, ps, scheme, frozenset(), seed=1)
    assert [c.args[2] for c in draw.call_args_list] == [20_000, 500]

    ps, scheme, g = instance(216, 2)
    fs = sp.random_failures(216, 10, 2)
    assert sp.compute_closure(scheme, fs).f_star != fs
    with mock.patch.object(verify, "_sample_pairs", wraps=_sample_pairs) as draw, \
            mock.patch.object(verify, "_broken_links", a_broken_link):
        rep = sp.verify_robust_spanner(
            g, ps, scheme, fs, exhaustive_limit=0, pair_sample=300, oracle_sample=0, seed=1
        )
    assert [c.args[2] for c in draw.call_args_list] == [300]
    assert rep.pairs_checked == 300 and rep.strong_variant_ok is not None


def spied_verify(*args, **kwargs):
    """One verify with the generator and the oracle's builders wrapped by spies.

    Returns the report, each spy's call count and the spies, by name.
    """
    with contextlib.ExitStack() as stack:
        spies = {
            name: stack.enter_context(mock.patch.object(verify, name, wraps=getattr(verify, name)))
            for name in ("_alive_edges", "_forward_rows", "_oracle_csr")
        }
        spies["default_rng"] = stack.enter_context(
            mock.patch.object(verify.np.random, "default_rng", wraps=np.random.default_rng)
        )
        rep = sp.verify_robust_spanner(*args, **kwargs)
    return rep, {name: spy.call_count for name, spy in spies.items()}, spies


@pytest.mark.parametrize(
    "n, k, seed, exhaustive_limit", [(1024, 51, 0, 512), (216, 10, 2, 512), (216, 0, 0, 0)]
)
def test_intact_verify_with_the_oracle_off_builds_nothing(instance, n, k, seed, exhaustive_limit):
    """No generator is seeded and no oracle state is built when nothing reads them."""
    ps, scheme, g = instance(n, 2)
    fs = sp.random_failures(n, k, seed)
    rep, counts, _ = spied_verify(
        g, ps, scheme, fs, oracle_sample=0, exhaustive_limit=exhaustive_limit, seed=1
    )
    assert counts == dict.fromkeys(counts, 0)
    assert rep.passed and rep.exact_pairs == rep.pairs_checked > 0


def test_missing_pair_with_the_oracle_off_is_priced(instance):
    ps, scheme, g = instance(16, 1)
    pruned = sp.SpannerGraph(16, [e for e in g.edge_set if e != (3, 4)])
    rep, counts, _ = spied_verify(pruned, ps, scheme, frozenset(), oracle_sample=0)
    assert counts == dict(default_rng=0, _alive_edges=1, _forward_rows=0, _oracle_csr=1)
    assert [(x, y) for x, y, _ in rep.violations] == [(3, 4)]


@pytest.mark.parametrize("exhaustive_limit", [512, 0])
def test_oracle_seeds_the_generator_once(instance, exhaustive_limit):
    """The sampled check's, the oracle's and the stretch pairs come from one generator."""
    ps, scheme, g = instance(216, 2)
    fs = sp.random_failures(216, 10, 2)
    rep, counts, spies = spied_verify(
        g, ps, scheme, fs, exhaustive_limit=exhaustive_limit, pair_sample=300, seed=7
    )
    assert counts["default_rng"] == 1 and spies["default_rng"].call_args.args == (7,)
    assert counts["_alive_edges"] == counts["_forward_rows"] == 1
    assert rep.oracle_checked == 500 and rep.max_stretch_over_ignored == 1.0


@pytest.mark.parametrize("exhaustive_limit", [512, 0])
def test_exact_pairs_are_the_checked_pairs_a_fresh_reach_joins(exhaustive_limit):
    """Both counts agree with each checked pair's bit in a fresh reach; some pairs miss."""
    ps, scheme, g, fs, _ = dropped_instance(120, 2, "uniform", 0.3, 0)
    rep = sp.verify_robust_spanner(
        g, ps, scheme, fs, exhaustive_limit=exhaustive_limit, pair_sample=2000, seed=3
    )
    f_star = sp.compute_closure(scheme, fs).f_star
    targets = [v for v in range(120) if v not in f_star]
    reach = _forward_reach(g, [v not in fs for v in range(120)])
    if exhaustive_limit:
        pairs = [(x, y) for i, x in enumerate(targets) for y in targets[i + 1 :]]
    else:
        pairs = loop_sample_pairs(np.random.default_rng(3), targets, 2000)
    exact = sum((reach[x] >> y) & 1 for x, y in pairs)
    assert 0 < exact < len(pairs)
    assert (rep.pairs_checked, rep.exact_pairs) == (len(pairs), exact)


@pytest.mark.parametrize("exhaustive_limit", [512, 0])
def test_stretch_reads_its_own_pairs_after_the_oracle_pairs(exhaustive_limit):
    """The worst stretch, from full-graph lengths, over the pairs drawn after the oracle's.

    The oracle's pairs come first in the one pricing call; here the first of
    them are exact, while some stretch pairs join only by backtracking.
    """
    ps, scheme, g, fs, _ = dropped_instance(120, 2, "uniform", 0.3, 15)
    kwargs = dict(exhaustive_limit=exhaustive_limit, pair_sample=300, oracle_sample=20, seed=4)
    rep = sp.verify_robust_spanner(g, ps, scheme, fs, **kwargs)
    joined = sp.compute_closure(scheme, fs).joined
    targets = np.flatnonzero(joined > scheme.ell)
    rng = np.random.default_rng(4)
    if not exhaustive_limit:
        _sample_pairs(rng, targets, 300)
    _sample_pairs(rng, targets, 20)
    ignored, live = np.flatnonzero((joined > 0) & (joined <= scheme.ell)), np.flatnonzero(joined)
    k = min(20, 4 * len(ignored))
    xs = ignored[rng.integers(0, len(ignored), size=k)]
    ys = live[rng.integers(0, len(live), size=k)]
    dist = sp.brute_force_oracle(g, ps, fs)
    stretch = []
    for x, y in zip(xs.tolist(), ys.tolist()):
        if x != y:
            d, gap = dist[min(x, y), max(x, y)], abs(ps.coords[y] - ps.coords[x])
            stretch.append(1.0 if verify._within_tolerance(d, gap) else d / gap)
    assert rep.oracle_mismatches == () and max(stretch) > 1.0
    assert rep.max_stretch_over_ignored == max(stretch)


@pytest.mark.parametrize("kwargs", [dict(pair_sample=-1), dict(oracle_sample=-3)])
def test_negative_samples_rejected(instance, kwargs):
    ps, scheme, g = instance(16, 1)
    with pytest.raises(ValueError, match="must be >= 0"):
        sp.verify_robust_spanner(g, ps, scheme, frozenset(), exhaustive_limit=0, **kwargs)


def test_target_scale_report_is_pinned():
    """n = 65536 at depth 3: the report the CLI writes for ``--random-k 3276 --seed 1``."""
    ps = sp.generate_points(65536, "uniform", 0)
    scheme = sp.build_scheme(65536, 3)
    graph = sp.build_spanner(ps, scheme)
    rep = sp.verify_robust_spanner(graph, ps, scheme, sp.random_failures(65536, 3276, 1), seed=1)
    digest = hashlib.sha256((rep.to_json() + "\n").encode()).hexdigest()
    assert digest.startswith("c2f7d4f168d374c0")
    assert rep.f_star_size == 3370
    assert rep.summary() == (
        "PASS n=65536 seed=1 |F|=3276 |F*|=3370 pairs=20000 violations=0 bound_ok=True"
    )
