"""Command line front end.

Subcommands:

  build          construct a spanner and write it to disk
  verify         check exactness under failures, freshly built or from disk
  scaling        edge-count sweep with fitted growth exponents
  closure-stats  ignored-set growth over random failure draws

Exit codes: 0 for success or a passing check, 1 for a failed check,
2 for bad usage or malformed input.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from .builder import build_spanner, edge_count_bound, read_edge_list, write_edge_list
from .core import load_failures, load_points, write_points
from .experiments import (
    FAILURE_MODELS,
    POINT_MODELS,
    generate_points,
    half_cluster_wipe,
    interval_wipe,
    random_failures,
    run_closure_stats,
    run_scaling,
    summarize_closure,
)
from .scheme import build_scheme, choose_ell_for_epsilon, scheme_from_json, scheme_to_json
from .verify import verify_robust_spanner


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group()
    src.add_argument("--n", type=int, help="number of generated points")
    src.add_argument("--points", type=Path, help="file with one coordinate per line")
    depth = p.add_mutually_exclusive_group()
    depth.add_argument("--ell", type=int, help="number of layers (default 1)")
    depth.add_argument(
        "--epsilon", type=float, help="pick the smallest depth with n^(1+eps) size"
    )
    p.add_argument("--model", choices=POINT_MODELS, help="point model for --n (default uniform)")
    p.add_argument("--seed", type=int, default=0)


def _resolve_instance(args):
    if args.points is not None:
        if args.model is not None:
            raise ValueError("--model does not apply to --points")
        ps = load_points(args.points)
    elif args.n is not None:
        ps = generate_points(args.n, args.model or "uniform", args.seed)
    else:
        raise ValueError("one of --n or --points is required")
    if args.epsilon is not None:
        ell = choose_ell_for_epsilon(args.epsilon)
    else:
        ell = args.ell if args.ell is not None else 1
    return ps, build_scheme(ps.n, ell)


def _add_failure_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--failures", type=Path, help="file with comma-separated indices")
    g.add_argument("--random-k", type=int, metavar="K", help=f"{FAILURE_MODELS[0]}")
    g.add_argument(
        "--wipe-half",
        metavar="LAYER:ORDINAL",
        help=f"{FAILURE_MODELS[1]}: fail one half-cluster",
    )
    g.add_argument(
        "--wipe-interval", metavar="LO:HI", help=f"{FAILURE_MODELS[2]}: fail [LO, HI)"
    )


def _resolve_failures(args, scheme) -> frozenset:
    if args.failures is not None:
        return load_failures(args.failures, scheme.n)
    if args.random_k is not None:
        return random_failures(scheme.n, args.random_k, args.seed)
    if args.wipe_half is not None:
        layer, ordinal = (int(t) for t in args.wipe_half.split(":"))
        return half_cluster_wipe(scheme, layer, ordinal)
    if args.wipe_interval is not None:
        lo, hi = (int(t) for t in args.wipe_interval.split(":"))
        return interval_wipe(scheme.n, lo, hi)
    return frozenset()


def _int_list(text: str) -> list:
    values = [int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"expected a comma-separated list of integers, got {text!r}")
    return values


def cmd_build(args) -> int:
    ps, scheme = _resolve_instance(args)
    graph = build_spanner(ps, scheme)
    out = str(args.out)
    write_edge_list(graph, out + ".edges")
    Path(out + ".scheme.json").write_text(scheme_to_json(scheme) + "\n")
    write_points(ps, out + ".points")
    print(
        f"built n={scheme.n} ell={scheme.ell} m={scheme.m} mode={scheme.mode} "
        f"edges={graph.edge_count} bound={edge_count_bound(scheme.n, scheme.ell):.1f} "
        f"seed={args.seed}"
    )
    print(f"wrote {out}.edges {out}.scheme.json {out}.points")
    return 0


def cmd_verify(args) -> int:
    if args.graph is not None:
        # the stored files fix the instance: only the seed and the failure flags apply
        for flag in ("n", "points", "ell", "epsilon", "model"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} does not apply to a stored --graph")
        prefix = str(args.graph)
        ps = load_points(prefix + ".points")
        scheme = scheme_from_json(Path(prefix + ".scheme.json").read_text())
        # before the edges are read or failures drawn, both sized by the scheme
        if ps.n != scheme.n:
            raise ValueError(f"point set has n={ps.n} but stored scheme has n={scheme.n}")
        graph = read_edge_list(prefix + ".edges", n=scheme.n)
    else:
        ps, scheme = _resolve_instance(args)
        graph = build_spanner(ps, scheme)
    failures = _resolve_failures(args, scheme)
    report = verify_robust_spanner(
        graph,
        ps,
        scheme,
        failures,
        exhaustive_limit=args.exhaustive_limit,
        pair_sample=args.pair_sample,
        oracle_sample=args.oracle_sample,
        seed=args.seed,
        strong_check=not args.no_strong,
    )
    print(report.summary())
    for u, v, d in report.violations[:10]:
        found = "unreachable" if d is None else f"{d:.17g}"
        print(f"  violation: pair ({u}, {v}) shortest={found}")
    if len(report.violations) > 10:
        print(f"  ... {len(report.violations) - 10} more")
    for u, v, d in report.oracle_mismatches[:10]:
        print(f"  oracle mismatch: pair ({u}, {v}) length={d}")
    if args.report is not None:
        Path(args.report).write_text(report.to_json() + "\n")
        print(f"wrote {args.report}")
    return 0 if report.passed else 1


def cmd_scaling(args) -> int:
    rows, slopes = run_scaling(
        _int_list(args.ns), _int_list(args.ells), seed=args.seed, model=args.model
    )
    header = f"{'n':>8} {'ell':>4} {'m':>4} {'edges':>10} {'bound':>12} {'ratio':>7} {'ms':>8}"
    print(header)
    for r in rows:
        print(
            f"{r.n:>8} {r.ell:>4} {r.m:>4} {r.edge_count:>10} "
            f"{r.bound_value:>12.1f} {r.ratio:>7.3f} {r.build_millis:>8.1f}"
        )
    for ell, slope in sorted(slopes.items()):
        expected = (ell + 2) / (ell + 1)
        print(f"slope ell={ell}: {slope:.4f} (size bound exponent {expected:.4f})")
    if args.csv is not None:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f.name for f in dataclasses.fields(rows[0])])
            for r in rows:
                writer.writerow(dataclasses.astuple(r))
        print(f"wrote {args.csv}")
    if args.json is not None:
        doc = {
            "rows": [dataclasses.asdict(r) for r in rows],
            "slopes": {str(k): v for k, v in slopes.items()},
        }
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


def cmd_closure_stats(args) -> int:
    rows, offenders = run_closure_stats(
        args.n, args.ell, args.k, args.trials, seed=args.seed
    )
    summary = summarize_closure(rows)
    print(
        f"closure n={args.n} ell={args.ell} k={args.k} trials={summary['trials']} "
        f"max_ratio={summary['max_ratio']:.3f} mean_ratio={summary['mean_ratio']:.3f} "
        f"bound={summary['bound']:.1f}"
    )
    if args.json is not None:
        # strict JSON has no Infinity: an infinite bound is "inf", as in a verify report
        bound = {"bound": "inf"} if math.isinf(summary["bound"]) else {}
        doc = {
            "summary": summary | bound,
            "rows": [dataclasses.asdict(r) | bound for r in rows],
        }
        Path(args.json).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")
        print(f"wrote {args.json}")
    if offenders:
        for r in offenders[:10]:
            print(
                f"bound exceeded: trial={r.trial} (rng key [{args.seed}, {r.trial}]) "
                f"|F*|={r.f_star_size} ratio={r.ratio:.3f} > {r.bound:.1f}"
            )
        return 1
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanner1d",
        description="Failure-tolerant exact spanners on points of a line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a spanner and write it to disk")
    _add_instance_flags(p)
    p.add_argument("--out", type=Path, required=True, help="output path prefix")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="check exactness under failures")
    _add_instance_flags(p)
    p.add_argument("--graph", type=Path, help="path prefix written by build")
    _add_failure_flags(p)
    p.add_argument("--report", type=Path, help="write a JSON report here")
    p.add_argument("--exhaustive-limit", type=int, default=512)
    p.add_argument("--pair-sample", type=int, default=20_000)
    p.add_argument("--oracle-sample", type=int, default=500)
    p.add_argument("--no-strong", action="store_true", help="skip the stricter variant")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scaling", help="edge-count sweep with fitted exponents")
    p.add_argument("--ns", default="16,32,64,128,256,512,1024")
    p.add_argument("--ells", default="1,2")
    p.add_argument("--model", choices=POINT_MODELS, default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", type=Path)
    p.add_argument("--json", type=Path)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("closure-stats", help="ignored-set growth statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", type=Path)
    p.set_defaults(func=cmd_closure_stats)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
