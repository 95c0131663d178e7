"""Exactness verification under failures.

On sorted coordinates a path realises the true distance between two
vertices exactly when its vertex indices move strictly monotonically
(every detour adds at least one doubled gap). The primary check is
therefore purely combinatorial: after deleting failed vertices, every
surviving pair outside the ignored set must be joined by an
index-monotone path. A weighted shortest-path oracle (independent
numeric route) cross-checks sampled pairs and prices violations.

One routine decides monotone reach: a bigint sweep over a range of
vertices from its top down, each row the OR of its alive higher
neighbours' rows in the range. A neighbour inside the run of vertices
that an already OR-ed row covers is skipped: it is in that row, so
everything it reaches is too. Reach is transitive, so every target pair
is joined exactly when each target reaches the next one. These links are
checked first, in ``O(n + E)``, off the graph's sorted edge keys: most
by a direct edge, most of the rest by one alive middle vertex with an
edge to each end, and only the others by the sweep run on the range
between the two targets. When every link holds, every target pair is
exact and no full sweep runs. Only when a link breaks does the sweep run
on all vertices, to name the missing pairs; both passes, on the
survivors of F and of F*, run this sequence. Both pair checks,
exhaustive and sampled, scan its rows once from the top target down,
each under the mask of the targets above it; a sampled check then reads
the bits of only the pairs whose row misses a target. The oracle reads
its bits straight off the rows.

The oracle certifies exactness on a directed copy of the alive edges in
coordinate ranks, each edge the key ``r * n + h`` from its smaller rank
to its larger, sorted: a path in the copy never backtracks, so it has
the gap as its length up to rounding, and one path per pair suffices. A
walk takes at each step the head with the largest rank not past its
goal, and all pairs step together, one ``searchsorted`` in the keys per
step. A verify prices all its pairs in one call: violations, sampled
pairs and ignored-set stretch pairs. Violations and sampled pairs the
reach denies are not trusted and skip the walk. A walk that dead-ends
reads inf; while every pair is trusted, such a pair is searched again
depth-first on the copy, which backs out of dead ends. Untrusted and
uncertified pairs go to the one Dijkstra call, on the whole alive graph,
whose matrix is built, and scipy imported, only then. A stretch pair
that passes the oracle's tolerance test has stretch exactly 1. Ranks
come from the coordinates alone, never from the links, the bitset reach
or index order, so the oracle stays independent of the criterion.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, fields

import numpy as np

from .builder import SchemeMismatch, SpannerGraph
from .closure import compute_closure, within_spec_bound
from .core import PointSet, failure_indices
from .scheme import LayeredScheme

ORACLE_RELATIVE_TOLERANCE = 1e-12


class TooLarge(ValueError):
    """The brute-force oracle refuses instances past its size guard."""


def _lookup(keys: np.ndarray, want: np.ndarray):
    """Insertion points of ``want`` in the sorted ``keys``, and which of them are found."""
    at = np.searchsorted(keys, want)
    found = at < keys.size
    found[found] = keys[at[found]] == want[found]
    return at, found


def _broken_links(graph: SpannerGraph, alive, targets: np.ndarray) -> list:
    """The links ``(t_i, t_{i+1})`` of the ascending ``targets`` that no monotone alive path joins.

    Monotone reach is transitive, so every pair of targets is joined
    exactly when every link is. A link ``(x, y)`` holds when its key
    ``x * n + y`` is among the graph's sorted edge keys, a direct edge.
    Otherwise its insertion point there ends row x's heads below ``y``;
    they are gathered for all such links at once, and an alive head ``w``
    whose key ``w * n + y`` is found joins the link by ``x -> w -> y``.
    Only a link with neither certificate holds when bit ``y - x`` of row 0
    of the sweep run on ``[x, y]``, the only vertices a monotone path for
    it visits, is set. The ranges are disjoint, so no vertex or edge is
    read twice.
    """
    n, keys = graph.n, graph.keys
    x, y = targets[:-1], targets[1:]
    at, direct = _lookup(keys, x * n + y)
    x, y, at = x[~direct], y[~direct], at[~direct]
    if not x.size:
        return []
    count = at - graph.indptr[x]
    link = np.repeat(np.arange(x.size), count)
    mid = graph.edges[np.arange(link.size) + np.repeat(at - np.cumsum(count), count), 1]
    live = np.fromiter(map(alive.__getitem__, mid.tolist()), dtype=bool, count=mid.size)
    link, mid = link[live], mid[live]
    held = np.zeros(x.size, dtype=bool)
    held[link[_lookup(keys, mid * n + y[link])[1]]] = True
    return [
        (a, b)
        for a, b in zip(x[~held].tolist(), y[~held].tolist())
        if not (_forward_reach(graph, alive, a, b + 1)[0] >> (b - a)) & 1
    ]


def _forward_reach(graph: SpannerGraph, alive, lo: int = 0, hi: int | None = None) -> list:
    """Bitset per vertex of ``[lo, hi)`` of what it reaches by increasing-index paths inside it.

    Bit ``y - lo`` of row ``x - lo`` is set when an alive path with rising
    indices below ``hi`` joins ``x`` to ``y``; ``hi`` defaults to ``n``, so
    with no window the rows are the full ones. The CSR rows are read as one
    flat list of heads relative to ``lo``, each cut at ``hi``: the work is
    ``O(hi - lo)`` plus the window's edges.

    Rows are built from the top vertex down, each the OR of its alive
    higher neighbours' rows. A finished row ``x`` records ``top[x]``, the
    last vertex of the run ``[x, top[x]]`` it covers, dead vertices
    counting as covered. Neighbours are walked in ascending order, and a
    neighbour ``w`` at or below the ``top`` of the last row OR-ed, say
    ``v``'s, is skipped: if ``w`` is alive and ``v < w <= top[v]``, then
    ``w`` is in ``v``'s row, and every monotone path from ``w`` extends
    the path from ``v`` to ``w``, so ``w``'s row is already in ``v``'s.
    """
    hi = graph.n if hi is None else hi
    width, live, indptr = hi - lo, alive[lo:hi], graph.indptr
    bounds = (indptr[lo : hi + 1] - indptr[lo]).tolist()
    heads = (graph.edges[indptr[lo] : indptr[hi], 1] - lo).tolist()
    dead = int.from_bytes(
        np.packbits(~np.asarray(live, dtype=bool), bitorder="little").tobytes(), "little"
    )
    reach, top = [0] * width, [0] * width
    for x in range(width - 1, -1, -1):
        if not live[x]:
            continue
        r = 1 << x
        i = bounds[x]
        end = bisect_right(heads, width - 1, i, bounds[x + 1])
        while i < end:
            w = heads[i]
            if live[w]:
                r |= reach[w]
                i = bisect_right(heads, top[w], i + 1, end)
            else:
                i += 1
        reach[x] = r
        # the run of ones from bit x of r | dead ends at top[x]
        t = (r | dead) >> x
        top[x] = x + (t ^ (t + 1)).bit_length() - 2
    return reach


def _alive_edges(graph: SpannerGraph, dead: np.ndarray) -> np.ndarray:
    """The (E, 2) edges with neither endpoint marked in the boolean mask ``dead``."""
    edges = graph.edges
    if dead.any():
        # the rows of a boolean row index, several times faster
        edges = np.compress(~(dead[edges[:, 0]] | dead[edges[:, 1]]), edges, axis=0)
    return edges


def _oracle_csr(ps: PointSet, edges: np.ndarray):
    """Symmetric scipy CSR matrix of the alive ``edges``, each weighted by its gap.

    Removed vertices keep no edges, so shortest paths to them read inf.
    """
    from scipy.sparse import csr_matrix

    u, v = edges[:, 0], edges[:, 1]
    w = np.abs(ps.coords[v] - ps.coords[u])
    return csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(ps.n, ps.n),
    )


def _forward_rows(ps: PointSet, edges: np.ndarray):
    """The alive ``edges`` pointed up the line, as rows in coordinate ranks.

    Returns ``(indptr, keys, rank, coords)``: ``rank[v]`` is v's place in
    coordinate order and ``coords`` the coordinates in that order. An edge
    runs from its smaller rank ``r`` to its larger ``h``, kept as the key
    ``r * n + h``; sorted, ``keys[indptr[r]:indptr[r + 1]]`` is row ``r``,
    its heads in increasing coordinate. Rank is read off the coordinates
    alone, never off vertex indices.
    """
    n = ps.n
    order = np.argsort(ps.coords, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    a, b = rank[edges.T]
    keys = np.minimum(a, b) * n + np.maximum(a, b)
    # edges arrive sorted, so this stable sort runs on near-sorted keys
    keys.sort(kind="stable")
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    return indptr, keys, rank, ps.coords[order]


def brute_force_oracle(
    graph: SpannerGraph, ps: PointSet, failures, limit: int = 512
) -> dict:
    """Exact shortest-path length for every alive pair (u < v), inf allowed."""
    if graph.n != ps.n:
        raise SchemeMismatch(f"graph n={graph.n} vs point set n={ps.n}")
    if graph.n > limit:
        raise TooLarge(f"oracle guard: n={graph.n} exceeds limit={limit}")
    dead = np.zeros(graph.n, dtype=bool)
    dead[failure_indices(failures, graph.n)] = True
    alive = np.flatnonzero(~dead)
    if alive.size < 2:
        return {}
    i, j = np.triu_indices(alive.size, 1)
    us, vs = alive[i], alive[j]
    lengths = _price_pairs(_oracle_csr(ps, _alive_edges(graph, dead)), us, vs)
    return dict(zip(zip(us.tolist(), vs.tolist()), lengths.tolist()))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one robustness check; PASS means no violations and bounds hold."""

    n: int
    seed: int
    f_size: int
    f_star_size: int
    pairs_checked: int
    exact_pairs: int
    violations: tuple
    oracle_checked: int
    oracle_mismatches: tuple
    max_stretch_over_ignored: float
    bound_ok: bool
    exhaustive: bool
    strong_variant_ok: bool | None

    @property
    def passed(self) -> bool:
        return not self.violations and not self.oracle_mismatches and self.bound_ok

    def to_json(self) -> str:
        def enc(x):
            if x is None or math.isnan(x):
                return None
            return "inf" if math.isinf(x) else x

        # keys in field order, then the verdict
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        for key in ("violations", "oracle_mismatches"):
            doc[key] = [[u, v, enc(d)] for u, v, d in doc[key]]
        doc["max_stretch_over_ignored"] = enc(self.max_stretch_over_ignored)
        doc["pass"] = self.passed
        return json.dumps(doc, indent=2)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict} n={self.n} seed={self.seed} |F|={self.f_size} "
            f"|F*|={self.f_star_size} pairs={self.pairs_checked} "
            f"violations={len(self.violations)} bound_ok={self.bound_ok}"
        )


def _once(make):
    """A function that returns ``make()``, calling it only the first time."""
    made = []
    return lambda: made[0] if made else made.append(make()) or made[0]


def _sample_pairs(rng, pool: np.ndarray, count: int):
    """Seeded distinct-endpoint pairs drawn uniformly from ``pool``.

    Returns int64 arrays ``(xs, ys)`` with ``xs < ys``. Each round draws
    ``2 * need + 8`` indices for either end and keeps the first ``need``
    draws whose indices differ, until ``count`` pairs are kept.
    """
    t = len(pool)
    firsts, seconds = [pool[:0]], [pool[:0]]
    have = 0
    while have < count:
        need = count - have
        a = rng.integers(0, t, size=2 * need + 8)
        b = rng.integers(0, t, size=2 * need + 8)
        keep = np.flatnonzero(a != b)[:need]
        firsts.append(pool[a[keep]])
        seconds.append(pool[b[keep]])
        have += len(keep)
    u, v = np.concatenate(firsts), np.concatenate(seconds)
    return np.minimum(u, v), np.maximum(u, v)


def _price_pairs(mat, us, vs) -> np.ndarray:
    """Length from ``us[i]`` to ``vs[i]`` in ``mat``, by the oracle's one Dijkstra call."""
    from scipy.sparse.csgraph import dijkstra

    sources, row = np.unique(us, return_inverse=True)
    return dijkstra(mat, indices=sources)[row, vs]


def _price_forward(forward, pairs):
    """Length of one path per pair on the ``_forward_rows`` copy that never backtracks, or inf.

    Each pair is mapped to ranks and walked from its smaller rank to its
    larger, its goal, taking at each vertex the head with the largest rank
    not past the goal. Every such path has the gap as its length, up to
    rounding, so any one will do; the length is summed along it in path
    order. All pairs step together: a step from rank ``v`` takes the last
    sorted key at or below ``v * n + goal``, whose head is ``key - v * n``
    when the key lies in v's row. A walk that finds none there reads inf.
    """
    indptr, keys, rank, c = forward
    n = len(rank)
    at, goal = np.sort(rank[np.asarray(pairs, dtype=np.int64).reshape(-1, 2)].T, axis=0)
    length = np.zeros(len(at))
    walking = np.arange(len(at))
    while walking.size:
        v, to = at[walking], goal[walking]
        i = np.searchsorted(keys, v * n + to, side="right") - 1
        step = i >= indptr[v]
        length[walking[~step]] = math.inf
        walking, v, to = walking[step], v[step], to[step]
        w = keys[i[step]] - v * n
        length[walking] += c[w] - c[v]
        at[walking] = w
        walking = walking[w != to]
    return length.tolist()


def _search_forward(forward, u: int, v: int) -> float:
    """Length of a path between ``u`` and ``v`` on the ``_forward_rows`` copy, or inf.

    A depth-first search from the pair's smaller rank up to its larger, the
    goal, that tries at each vertex its heads not past the goal, the largest
    rank first, so its first descent is the walk of ``_price_forward``; from
    a dead end it backs up to the next head not yet tried. It enters every
    vertex at most once, so it reads each edge below the goal at most once.
    The length is summed along the path found, in path order.
    """
    indptr, keys, rank, c = forward
    n = len(rank)
    start, goal = sorted(rank[[u, v]].tolist())

    def ahead(r):
        """r's heads not past the goal, the largest rank first."""
        end = np.searchsorted(keys, r * n + goal, side="right")
        return reversed((keys[indptr[r] : end] - r * n).tolist())

    path, tries, seen = [start], [ahead(start)], {start}
    while tries:
        w = next((w for w in tries[-1] if w not in seen), None)
        if w is None:
            path.pop()
            tries.pop()
            continue
        path.append(w)
        if w == goal:
            return float(sum(c[b] - c[a] for a, b in zip(path, path[1:])))
        seen.add(w)
        tries.append(ahead(w))
    return math.inf


def _within_tolerance(found, want):
    """The oracle's exactness test, elementwise: finite and within 1e-12 of the gap, relatively."""
    return np.isfinite(found) & (np.abs(found - want) <= ORACLE_RELATIVE_TOLERANCE * want)


def _price_exact(ps: PointSet, edges, pairs, trusted):
    """Each pair's length on the alive ``edges``, and whether it passes the exactness test.

    The pairs ``trusted`` marks are walked on the forward copy, built from
    ``edges`` only for them. While every pair is trusted, those the walk
    leaves uncertified are searched again depth-first, one at a time, up to
    the first search that finds no forward path passing the test. Every
    pair still uncertified, untrusted ones included, is priced without a
    bound on the full alive graph, in one ``_price_pairs`` call on a matrix
    built then. So pricing loads scipy only for an untrusted pair or one
    with no forward path that passes the test, and runs at most one vain
    search.
    """
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    wants = np.abs(ps.coords[ends[:, 1]] - ps.coords[ends[:, 0]])
    trusted = np.array(trusted, dtype=bool)
    lengths = np.full(len(ends), math.inf)
    walked = np.flatnonzero(trusted)
    if walked.size:
        forward = _forward_rows(ps, edges)
        lengths[walked] = _price_forward(forward, ends[walked])
    exact = trusted & _within_tolerance(lengths, wants)
    if trusted.all():
        for i in np.flatnonzero(~exact).tolist():
            lengths[i] = _search_forward(forward, *pairs[i])
            exact[i] = _within_tolerance(lengths[i], wants[i])
            if not exact[i]:
                break
    full = np.flatnonzero(~exact)
    if full.size:
        lengths[full] = _price_pairs(_oracle_csr(ps, edges), ends[full, 0], ends[full, 1])
        exact[full] = _within_tolerance(lengths[full], wants[full])
    return lengths.tolist(), exact.tolist()


def _check_pairs(reach: list, targets: list, xs=None, ys=None) -> list:
    """The missing pairs among all target pairs, or among the sample ``(xs, ys)`` of them.

    One scan walks the targets downwards and reads row ``x`` only under the
    mask of the targets above it, so its own bit and anything below never
    count; a row that misses none of them has every pair it heads exact.
    With no sample every miss is listed, in descending ``x``, then
    ascending ``y``. With one, the rows that miss a target are flagged, and
    only the pairs whose ``x`` is flagged have their bit read; missing
    pairs keep sample order.
    """
    above, flagged, missing = 0, [], []
    for x in reversed(targets):
        gone = above & ~reach[x]
        above |= 1 << x
        if gone and xs is not None:
            flagged.append(x)
            continue
        while gone:
            low = gone & -gone
            missing.append((x, low.bit_length() - 1))
            gone ^= low
    if xs is None:
        return missing
    rows = np.zeros(len(reach), dtype=bool)
    rows[flagged] = True
    read = np.flatnonzero(rows[xs])
    hit = np.ones(len(xs), dtype=bool)
    hit[read] = [(reach[x] >> y) & 1 for x, y in zip(xs[read].tolist(), ys[read].tolist())]
    return list(zip(xs[~hit].tolist(), ys[~hit].tolist()))


def verify_robust_spanner(
    graph: SpannerGraph,
    ps: PointSet,
    scheme: LayeredScheme,
    failures,
    *,
    exhaustive_limit: int = 512,
    pair_sample: int = 20_000,
    oracle_sample: int = 500,
    seed: int = 0,
    strong_check: bool = True,
) -> VerificationReport:
    """Check that survivors outside the ignored set keep exact paths.

    All target pairs are checked when n <= exhaustive_limit, otherwise
    ``pair_sample`` seeded random pairs. Each pass, on the survivors of F
    and, for the strong variant, of the whole ignored set, checks the links
    between consecutive targets first: when all hold, every checked pair is
    exact, every oracle pair is monotone and no reach sweep runs. Only when
    a link breaks does the pass sweep, and the pair check scan its rows as
    the module docstring describes. The strong variant holds when its pass
    misses no checked pair; when the closure adds nothing to the failures,
    it takes the first pass's verdict. Only the first 512 missing pairs are
    priced: the rest are reported with a null length, which the JSON report
    cannot tell apart from an unreachable pair.

    ``oracle_sample`` pairs are also priced by the numeric oracle and must
    agree with the monotone criterion to within a 1e-12 relative tolerance;
    a pair the reach denies is priced on the full alive graph, never walked,
    so every mismatch reports its full-graph length. Up to as many
    ignored-set stretch pairs are priced too: one that passes the tolerance
    test has stretch exactly 1, any other its full-graph length over its
    gap. Violations, oracle pairs and stretch pairs go to ``_price_exact``
    in one call, in that order, and violations are never trusted.

    One generator, seeded at its first draw, gives the sampled check's
    pairs, then the oracle's, then the stretch pairs. The sampled check's
    pairs are drawn when a check first reads them, but always before the
    oracle's, so no report depends on whether a check reads them. The alive
    edges are filtered only when some pair is priced: with no missing pair
    and the oracle off, nothing is drawn or built.
    """
    if not (graph.n == ps.n == scheme.n):
        raise SchemeMismatch(
            f"size mismatch: graph n={graph.n}, points n={ps.n}, scheme n={scheme.n}"
        )
    if pair_sample < 0 or oracle_sample < 0:
        raise ValueError(
            f"pair_sample={pair_sample} and oracle_sample={oracle_sample} must be >= 0"
        )
    n = graph.n
    trace = compute_closure(scheme, failures)
    dead = trace.joined == 0
    ignored = trace.joined <= trace.ell
    targets = np.flatnonzero(~ignored)
    exhaustive = n <= exhaustive_limit
    count = pair_sample if len(targets) >= 2 else 0
    # one generator, seeded at its first draw, and the sampled check's pairs
    rng = _once(lambda: np.random.default_rng(seed))
    sampled = _once(lambda: (None, None) if exhaustive else _sample_pairs(rng(), targets, count))

    def check(alive):
        """A pass on ``alive``: missing pairs and reach rows, or ([], None) if no link breaks."""
        if not _broken_links(graph, alive, targets):
            return [], None
        reach = _forward_reach(graph, alive)
        return _check_pairs(reach, targets.tolist(), *sampled()), reach

    sample, stretch = [], []
    if oracle_sample > 0:
        if len(targets) >= 2:
            sampled()  # drawn first, whether or not a check reads them
            xs, ys = _sample_pairs(rng(), targets, min(oracle_sample, 4 * len(targets)))
            sample = list(zip(xs.tolist(), ys.tolist()))
        ignored_alive = np.flatnonzero(ignored & ~dead)
        if len(ignored_alive):
            live = np.flatnonzero(~dead)
            k = min(oracle_sample, 4 * len(ignored_alive))
            xs = ignored_alive[rng().integers(0, len(ignored_alive), size=k)]
            ys = live[rng().integers(0, len(live), size=k)]
            stretch = [(x, y) for x, y in zip(xs.tolist(), ys.tolist()) if x != y]

    missing, reach = check((~dead).tolist())
    monotone = [reach is None or bool((reach[x] >> y) & 1) for x, y in sample]
    del reach
    pairs_checked = len(targets) * (len(targets) - 1) // 2 if exhaustive else count

    violations, oracle_mismatches, max_stretch = [], [], math.nan
    priced = missing[:512]
    if priced or sample or stretch:
        trusted = [False] * len(priced) + monotone + [True] * len(stretch)
        lengths, exact = _price_exact(
            ps, _alive_edges(graph, dead), priced + sample + stretch, trusted
        )
        violations = [(x, y, None if math.isinf(d) else d) for (x, y), d in zip(priced, lengths)]
        violations.extend((x, y, None) for x, y in missing[512:])
        pricing = zip(sample, lengths[len(priced) :], monotone, exact[len(priced) :])
        oracle_mismatches = [(x, y, d) for (x, y), d, mono, ok in pricing if mono != ok]
        if stretch:
            x, y = np.array(stretch).T
            # an exact path never backtracks, so in exact arithmetic its length is the gap
            ratios = np.array(lengths[-len(stretch) :]) / np.abs(ps.coords[y] - ps.coords[x])
            max_stretch = float(np.where(exact[-len(stretch) :], 1.0, ratios).max())

    strong_ok = None
    if strong_check:
        strong_ok = not missing
        # when the closure adds nothing, the strong pass would repeat the first
        if trace.f_star_size != trace.f_size:
            strong_ok = not check((~ignored).tolist())[0]

    return VerificationReport(
        n=n,
        seed=seed,
        f_size=trace.f_size,
        f_star_size=trace.f_star_size,
        pairs_checked=pairs_checked,
        exact_pairs=pairs_checked - len(missing),
        violations=tuple(violations),
        oracle_checked=len(sample),
        oracle_mismatches=tuple(oracle_mismatches),
        max_stretch_over_ignored=max_stretch,
        bound_ok=within_spec_bound(trace),
        exhaustive=exhaustive,
        strong_variant_ok=strong_ok,
    )
