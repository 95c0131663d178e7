"""Digest of 1,080 verification reports, to show that a change keeps every report byte for byte.

Run from the repository root as ``PYTHONPATH=src python tests/report_grid.py``.
It prints one line, ``reports failing sha256-prefix``: the number of
reports, how many fail, and the first 16 hex digits of the sha256 of their
``to_json()`` texts joined in loop order. Two trees whose lines agree write
the same reports on the whole grid. It exits 1 when its line differs from
``EXPECTED``, the line of the reports as they stand: a change that alters a
report on purpose says so by updating it.

The grid: ``n`` in {216, 500, 700, 1024, 1296, 2048}, ``ell`` 1-3, uniform,
clustered and expgaps points at point seed 3; each spanner intact, and
again keeping only the edges where ``default_rng([n, ell]).random(E) >= 0.02``;
``n // 20`` and ``n // 8`` random failures at failure seed 7; verify seed 5
under five flag sets. Not a collected test: it takes several seconds.
"""

import hashlib

import numpy as np

import spanner1d as sp

EXPECTED = "1080 282 724967ac61a3450e"

FLAG_SETS = [
    {},
    {"oracle_sample": 0},
    {"exhaustive_limit": 0},
    {"exhaustive_limit": 4096},
    {"strong_check": False, "exhaustive_limit": 0},
]


def reports():
    for n in (216, 500, 700, 1024, 1296, 2048):
        for ell in (1, 2, 3):
            scheme = sp.build_scheme(n, ell)
            for model in ("uniform", "clustered", "expgaps"):
                ps = sp.generate_points(n, model, 3)
                g = sp.build_spanner(ps, scheme)
                keep = np.random.default_rng([n, ell]).random(g.edge_count) >= 0.02
                for graph in (g, sp.SpannerGraph(n, g.edges[keep])):
                    for k in (n // 20, n // 8):
                        fs = sp.random_failures(n, k, 7)
                        for flags in FLAG_SETS:
                            yield sp.verify_robust_spanner(graph, ps, scheme, fs, seed=5, **flags)


def main():
    digest, count, failing = hashlib.sha256(), 0, 0
    for rep in reports():
        digest.update(rep.to_json().encode())
        count += 1
        failing += not rep.passed
    line = f"{count} {failing} {digest.hexdigest()[:16]}"
    print(line)
    return 0 if line == EXPECTED else 1


if __name__ == "__main__":
    raise SystemExit(main())
