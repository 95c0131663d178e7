import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import spanner1d as sp
from spanner1d.cli import _build_parser, main


def test_build_writes_files(tmp_path, capsys):
    out = tmp_path / "g16"
    assert main(["build", "--n", "16", "--ell", "1", "--seed", "7", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "n=16" in text and "edges=78" in text and "seed=7" in text
    for suffix in (".edges", ".scheme.json", ".points"):
        assert (tmp_path / f"g16{suffix}").exists()
    assert sp.load_points(tmp_path / "g16.points").n == 16


def test_build_rejects_zero_points(tmp_path, capsys):
    assert main(["build", "--n", "0", "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


def test_build_too_large_to_allocate(tmp_path, capsys):
    # numpy refuses the 72.8 TiB coordinate array at once, touching no memory
    assert main(["build", "--n", "10000000000000", "--out", str(tmp_path / "x")]) == 2
    assert "error: Unable to allocate" in capsys.readouterr().err


def test_build_requires_a_point_source(tmp_path, capsys):
    assert main(["build", "--out", str(tmp_path / "x")]) == 2


def test_usage_errors():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    """One parser serves every call in a process, and no call leaks into the next."""
    assert _build_parser() is _build_parser()
    assert main(["verify", "--n", "64", "--frobnicate"]) == 2
    argv = ["verify", "--n", "64", "--ell", "1", "--random-k", "3", "--seed", "5", "--report"]
    assert main(argv + [str(tmp_path / "a.json"), "--no-strong"]) == 0
    assert main(argv + [str(tmp_path / "b.json")]) == 0
    assert json.loads((tmp_path / "a.json").read_text())["strong_variant_ok"] is None
    assert type(json.loads((tmp_path / "b.json").read_text())["strong_variant_ok"]) is bool


def test_epsilon_matches_explicit_depth(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["build", "--n", "16", "--ell", "1", "--seed", "7", "--out", str(a)]) == 0
    assert main(["build", "--n", "16", "--epsilon", "0.5", "--seed", "7", "--out", str(b)]) == 0
    assert (tmp_path / "a.edges").read_text() == (tmp_path / "b.edges").read_text()


def test_build_from_points_file(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    sp.write_points(sp.generate_points(20, "uniform", 3), pts)
    assert main(["build", "--points", str(pts), "--out", str(tmp_path / "g")]) == 0
    assert "n=20" in capsys.readouterr().out


def test_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "g"
    main(["build", "--n", "64", "--ell", "1", "--out", str(out)])
    capsys.readouterr()
    report = tmp_path / "rep.json"
    code = main(
        ["verify", "--graph", str(out), "--random-k", "3", "--seed", "5",
         "--report", str(report)]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS")
    doc = json.loads(report.read_text())
    assert doc["pass"] is True and doc["n"] == 64 and doc["seed"] == 5


@pytest.mark.parametrize(
    "flags",
    [
        ["--ell", "3"],
        ["--n", "64"],
        ["--points", "g.points"],
        ["--epsilon", "0.5"],
        ["--model", "clustered"],
    ],
)
def test_verify_of_a_stored_graph_refuses_instance_flags(tmp_path, capsys, flags):
    """The stored files fix the instance, so a flag that would change it is an error."""
    out = tmp_path / "g"
    assert main(["build", "--n", "64", "--ell", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    argv = ["verify", "--graph", str(out), *flags, "--random-k", "3", "--seed", "5"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {flags[0]} does not apply to a stored --graph\n"


@pytest.mark.parametrize("command", ["build", "verify"])
def test_points_file_refuses_a_point_model(tmp_path, capsys, command):
    """The file fixes the points, so a model beside it is an error, not ignored."""
    pts = tmp_path / "pts.txt"
    sp.write_points(sp.generate_points(4, "uniform", 3), pts)
    out = ["--out", str(tmp_path / "g")] if command == "build" else []
    argv = [command, *out, "--points", str(pts), "--model", "clustered", "--ell", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --model does not apply to --points\n"
    assert not list(tmp_path.glob("g.*"))


def test_verify_fresh_build_with_failure_file(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("3, 7\n")
    code = main(["verify", "--n", "16", "--ell", "1", "--failures", str(f)])
    assert code == 0
    assert "|F|=2" in capsys.readouterr().out


def test_verify_flags_tampered_edge_list(tmp_path, capsys):
    out = tmp_path / "g"
    main(["build", "--n", "16", "--ell", "1", "--out", str(out)])
    edges = tmp_path / "g.edges"
    kept = [ln for ln in edges.read_text().splitlines() if ln != "3 4"]
    assert len(kept) == 77
    edges.write_text("\n".join(kept) + "\n")
    assert main(["verify", "--graph", str(out)]) == 1
    text = capsys.readouterr().out
    assert "FAIL" in text and "(3, 4)" in text


def test_verify_lists_ten_violations_then_a_count(tmp_path, capsys):
    out = tmp_path / "g"
    main(["build", "--n", "16", "--ell", "1", "--out", str(out)])
    edges = tmp_path / "g.edges"
    # vertex 8 loses every edge, so its 15 pairs have no path
    kept = [ln for ln in edges.read_text().splitlines() if "8" not in ln.split()]
    edges.write_text("\n".join(kept) + "\n")
    assert main(["verify", "--graph", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sum(ln.startswith("  violation: pair") for ln in lines) == 10
    assert "  ... 5 more" in lines


def test_verify_rejects_corrupted_edge_list(tmp_path, capsys):
    out = tmp_path / "g"
    main(["build", "--n", "16", "--ell", "1", "--out", str(out)])
    edges = tmp_path / "g.edges"
    edges.write_text(edges.read_text() + "5 6 7\n")
    assert main(["verify", "--graph", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("end", [2**70, -(2**70)])
def test_verify_rejects_an_endpoint_past_int64(end, tmp_path, capsys):
    out = tmp_path / "g"
    main(["build", "--n", "16", "--ell", "1", "--out", str(out)])
    edges = tmp_path / "g.edges"
    edges.write_text(edges.read_text() + f"0 {end}\n")
    assert main(["verify", "--graph", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_finite_points_file_rejected(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0.0\nnan\n2.0\n")
    assert main(["build", "--points", str(pts), "--out", str(tmp_path / "g")]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "g.edges").exists()
    out = tmp_path / "h"
    assert main(["build", "--n", "16", "--ell", "1", "--out", str(out)]) == 0
    points = tmp_path / "h.points"
    lines = points.read_text().splitlines()
    lines[5] = "nan"
    points.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--graph", str(out)]) == 2
    assert "finite" in capsys.readouterr().err


def test_verify_rejects_points_whose_span_overflows(tmp_path, capsys):
    pts = tmp_path / "big.points"
    pts.write_text("-1e308\n0\n1e308\n")
    assert main(["verify", "--points", str(pts), "--ell", "1"]) == 2
    captured = capsys.readouterr()
    assert "span a finite range" in captured.err and captured.out == ""


def test_verify_rejects_malformed_scheme_file(tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["build", "--n", "16", "--ell", "1", "--out", str(out)]) == 0
    scheme = tmp_path / "g.scheme.json"
    doc = json.loads(scheme.read_text())
    del doc["n"]
    scheme.write_text(json.dumps(doc))
    assert main(["verify", "--graph", str(out)]) == 2
    assert "error: malformed stored scheme" in capsys.readouterr().err


def test_verify_rejects_deeply_nested_scheme_file(tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["build", "--n", "16", "--ell", "1", "--out", str(out)]) == 0
    (tmp_path / "g.scheme.json").write_text("[" * 200_000)
    assert main(["verify", "--graph", str(out)]) == 2
    assert "error: malformed stored scheme (RecursionError" in capsys.readouterr().err


def run_capped(*argv):
    """The CLI in a child process with 2 GB of address space and a 10 s timeout.

    A size guard that fails shows as an allocation error or a timeout
    here, instead of exhausting the machine.
    """

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(sp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env["OPENBLAS_NUM_THREADS"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "spanner1d.cli", *argv],
        capture_output=True, text=True, timeout=10, env=env, preexec_fn=cap,
    )


def test_closure_stats_huge_size_exits_2():
    done = run_capped("closure-stats", "--n", str(10**18), "--ell", "1", "--k", "1")
    assert done.returncode == 2, done.stderr
    assert "error:" in done.stderr


def test_huge_depth_finishes_in_time():
    """Neither growth check raises 6 to the full depth."""
    done = run_capped("verify", "--n", "16", "--ell", "30000000", "--random-k", "1")
    assert done.returncode == 0, done.stderr
    assert "bound_ok=True" in done.stdout
    # 6**ell is past the float range here, so the printed bound is inf
    done = run_capped("closure-stats", "--n", "16", "--ell", "30000000", "--k", "1")
    assert done.returncode == 0, done.stderr
    assert "bound=inf" in done.stdout


def test_closure_stats_size_past_int64_exits_2(monkeypatch, capsys):
    # the failure draw overflows before compute_closure allocates n bytes
    def no_closure(*args):
        raise AssertionError("compute_closure reached")

    monkeypatch.setattr(sp.experiments, "compute_closure", no_closure)
    assert main(["closure-stats", "--n", str(2**63), "--ell", "1", "--k", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_rejects_huge_stored_size(tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["build", "--n", "16", "--ell", "1", "--out", str(out)]) == 0
    scheme = tmp_path / "g.scheme.json"
    doc = json.loads(scheme.read_text())
    doc.update(n=10**18, m=sp.choose_m(10**18, 1))
    scheme.write_text(json.dumps(doc))
    done = run_capped("verify", "--graph", str(out))
    assert done.returncode == 2, done.stderr
    assert "error: stored cluster layout does not match" in done.stderr


def test_verify_failure_model_flags(tmp_path, capsys):
    assert main(["verify", "--n", "64", "--ell", "2", "--wipe-half", "1:3"]) == 0
    assert main(["verify", "--n", "64", "--ell", "1", "--wipe-interval", "10:20"]) == 0
    assert main(["verify", "--n", "64", "--ell", "1", "--wipe-half", "5:1"]) == 2
    assert main(["verify", "--n", "64", "--ell", "1", "--wipe-interval", "bad"]) == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--wipe-half", "1:999"], "half ordinal 999 out of range 1..72 at layer 1"),
        (["--wipe-interval", "9:3"], "bad interval [9, 3) for n=216"),
        (["--random-k", "999"], "need 0 <= k <= n, got k=999, n=216"),
    ],
)
def test_verify_rejects_failures_outside_the_stored_graph(tmp_path, capsys, flags, message):
    out = tmp_path / "g216"
    assert main(["build", "--n", "216", "--ell", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--graph", str(out), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_rejects_negative_samples(capsys):
    assert main(["verify", "--n", "700", "--pair-sample", "-1"]) == 2
    assert "pair_sample=-1" in capsys.readouterr().err
    assert main(["verify", "--n", "700", "--oracle-sample", "-3"]) == 2
    err = capsys.readouterr()
    assert "oracle_sample=-3" in err.err and "PASS" not in err.out


def test_verify_bad_failure_index(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("99\n")
    assert main(["verify", "--n", "16", "--failures", str(f)]) == 2


def test_scaling_outputs(tmp_path, capsys):
    csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
    code = main(
        ["scaling", "--ns", "16,36,64", "--ells", "1", "--csv", str(csv_path),
         "--json", str(json_path)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "slope ell=1" in text
    header, *rows = csv_path.read_text().splitlines()
    assert header.split(",")[:4] == ["n", "ell", "m", "edge_count"]
    assert len(rows) == 3
    doc = json.loads(json_path.read_text())
    assert [r["edge_count"] for r in doc["rows"]] == [78, 300, 756]
    assert "1" in doc["slopes"]


def test_scaling_single_size_has_no_slope(capsys):
    assert main(["scaling", "--ns", "64", "--ells", "1"]) == 0
    assert "slope" not in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--ns", "--ells"])
def test_scaling_rejects_empty_list(flag, tmp_path, capsys):
    csv_path = tmp_path / "s.csv"
    assert main(["scaling", flag, " , ", "--csv", str(csv_path)]) == 2
    captured = capsys.readouterr()
    assert "error: expected a comma-separated list" in captured.err
    assert captured.out == "" and not csv_path.exists()


def test_closure_stats_normal(tmp_path, capsys):
    json_path = tmp_path / "c.json"
    code = main(
        ["closure-stats", "--n", "100", "--ell", "1", "--k", "5", "--trials", "50",
         "--json", str(json_path)]
    )
    assert code == 0
    doc = json.loads(json_path.read_text())
    assert doc["summary"]["trials"] == 50
    assert doc["summary"]["offenders"] == 0
    assert all(r["within_bound"] for r in doc["rows"])


@pytest.mark.parametrize("ell", [396, 397, 1024])
def test_closure_stats_bound_past_the_float_range(ell, tmp_path, capsys):
    """6**396 is the last power of 6 a double holds; from depth 397 on the bound reads inf.

    The JSON file stays strict: an infinite bound is the string "inf", as in a
    verify report. A finite one is written as Python's ``json`` writes it.
    """
    json_path = tmp_path / "c.json"
    argv = ["closure-stats", "--n", "16", "--ell", str(ell), "--k", "1", "--trials", "2"]
    assert main(argv + ["--json", str(json_path)]) == 0
    bound = float(6**ell) if ell == 396 else float("inf")
    assert capsys.readouterr().out == (
        f"closure n=16 ell={ell} k=1 trials=2 max_ratio=1.000 mean_ratio=1.000 "
        f"bound={bound:.1f}\nwrote {json_path}\n"
    )
    def refuse(word):  # Infinity, -Infinity and NaN are not JSON (RFC 8259)
        raise ValueError(f"not strict JSON: {word}")

    text = json_path.read_text()
    doc = json.loads(text, parse_constant=refuse)
    written = bound if ell == 396 else "inf"
    assert doc["summary"]["bound"] == written
    assert [r["bound"] for r in doc["rows"]] == [written, written]
    if ell == 396:
        assert text == json.dumps(doc, indent=2) + "\n"


def test_closure_stats_flags_bound_breach(capsys):
    """A lone failure in the size-1 trailing half of n=145 exceeds 6x."""
    code = main(
        ["closure-stats", "--n", "145", "--ell", "1", "--k", "1", "--trials", "60",
         "--seed", "4"]
    )
    assert code == 1
    text = capsys.readouterr().out
    assert "bound exceeded" in text and "trial=40" in text


def test_closure_stats_bad_arguments(capsys):
    assert main(["closure-stats", "--n", "100", "--k", "0"]) == 2
    assert main(["closure-stats", "--n", "100", "--k", "5", "--trials", "0"]) == 2


def test_cli_reproducible_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["build", "--n", "100", "--ell", "2", "--model", "expgaps", "--seed", "13"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    for suffix in (".edges", ".scheme.json", ".points"):
        assert (tmp_path / f"a{suffix}").read_text() == (tmp_path / f"b{suffix}").read_text()


SCIPY_PROBE = """
import json, sys
from spanner1d.cli import main

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

g, w, h, report = sys.argv[1:]
codes = [
    main(["build", "--n", "216", "--ell", "2", "--out", g]),
    main(["scaling", "--ns", "16,32,64", "--ells", "1"]),
    main(["closure-stats", "--n", "100", "--k", "5", "--trials", "3"]),
    main(["verify", "--graph", g, "--oracle-sample", "0"]),
    main(["verify", "--graph", g]),
    main(["verify", "--graph", g, "--random-k", "10", "--seed", "1"]),
    main(["build", "--n", "500", "--ell", "2", "--model", "clustered", "--seed", "8", "--out", w]),
    main(["verify", "--graph", w, "--wipe-half", "1:9", "--seed", "8"]),
]
before = scipy_loaded()
codes.append(main(["verify", "--graph", h, "--report", report]))
print(json.dumps({"codes": codes, "before": before, "after": scipy_loaded()}))
"""


def test_scipy_loads_only_for_a_full_search(tmp_path):
    """A fresh CLI process loads scipy only when a verify prices a pair by Dijkstra.

    Building, the sweeps and the verifies of intact graphs leave scipy
    unloaded: the walks certify every oracle pair, or, under the
    half-cluster wipe, the depth-first search certifies those whose walk
    dead-ends. A graph with dropped edges has violations, priced on the
    full alive graph, so its verify loads scipy and reports what an
    in-process verify reports.
    """
    g, w, h = tmp_path / "g", tmp_path / "w", tmp_path / "h"
    report = tmp_path / "h.report.json"
    assert main(["build", "--n", "120", "--ell", "2", "--out", str(h)]) == 0
    edges = h.with_suffix(".edges")
    lines = edges.read_text().splitlines()
    edges.write_text("\n".join(lines[::3]) + "\n")
    src = str(Path(sp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(g), str(w), str(h), str(report)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["codes"] == [0, 0, 0, 0, 0, 0, 0, 0, 1]
    assert probe["before"] == []
    assert "scipy.sparse.csgraph" in probe["after"]
    prefix = str(h)
    scheme = sp.scheme_from_json(Path(prefix + ".scheme.json").read_text())
    rep = sp.verify_robust_spanner(
        sp.read_edge_list(prefix + ".edges", n=scheme.n),
        sp.load_points(prefix + ".points"),
        scheme,
        frozenset(),
    )
    assert rep.violations
    assert report.read_text() == rep.to_json() + "\n"
