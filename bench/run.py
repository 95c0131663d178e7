"""spanner1d benchmark: one workload per run, checked outputs, one JSON result.

Run from the root of a checkout:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of that checkout. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones named in BENCHMARK.json,
with ``--trace 1`` the per-layer ones, taken from spans that are also
written to ``.bench_out/``. The line before it records provenance. See
bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from refspeed import measured, ref_seconds  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
PINS = HERE / "pins.json"
SETUP_REPS = 3
IMPORT_REPS = 5
PAIR_SAMPLE = 20_000
ORACLE_SAMPLE = 500
EXHAUSTIVE_LIMIT = 512

# Workload sizes. "tiny" is for the self-test only.
SCALES = {
    "full": {
        "pipeline": {
            "n": 2048, "ell": 2, "model": "uniform", "k": 103, "verifies": 4, "cs_trials": 4, "probe_reps": 5,
        },
        "campaign": {
            "ns": (216, 500, 1024),
            "ells": (1, 2, 3),
            "trials": 3,
            "all_wipes_upto": 216,
            "wipe_sample": 4,
            "slice": {"n": 500, "ell": 2, "k": 25},
            "cs": {"n": 1024, "ell": 2, "trials": 10},
            "probe_reps": 5,
        },
        "closure_stats": {
            "n": 65536,
            "ell": 3,
            "trials": 2,
            "calls": 5,
            "companion": {"n": 1296, "ell": 3, "k": 65},
            "probe_reps": 5,
        },
    },
    "tiny": {
        "pipeline": {"n": 600, "ell": 2, "model": "uniform", "k": 30, "verifies": 2, "cs_trials": 2, "probe_reps": 1},
        "campaign": {
            "ns": (64, 100),
            "ells": (1, 2),
            "trials": 2,
            "all_wipes_upto": 64,
            "wipe_sample": 2,
            "slice": {"n": 100, "ell": 1, "k": 5},
            "cs": {"n": 100, "ell": 1, "trials": 2},
            "probe_reps": 1,
        },
        "closure_stats": {
            "n": 1296,
            "ell": 3,
            "trials": 2,
            "calls": 2,
            "companion": {"n": 256, "ell": 3, "k": 13},
            "probe_reps": 1,
        },
    },
}

sp = None
cli = None
np = None


def load_program() -> None:
    """Import spanner1d from ./src of the checkout."""
    global sp, cli, np
    pkg = ROOT / "src" / "spanner1d" / "__init__.py"
    if not pkg.is_file():
        raise FileNotFoundError(f"no spanner1d sources at {pkg.parent}")
    if sp is not None:
        return
    sys.path.insert(0, str(ROOT / "src"))
    sp = importlib.import_module("spanner1d")
    cli = importlib.import_module("spanner1d.cli")
    if Path(sp.__file__).resolve() != pkg.resolve():
        raise ImportError(f"spanner1d imported from {sp.__file__}, not {pkg}")
    np = importlib.import_module("numpy")


def import_runs() -> list:
    """Time to import spanner1d.cli in a fresh interpreter, as each CLI call does.

    numpy and scipy are imported first, untimed: their import (about 0.5 s)
    does not follow the reference loop through the host's slow phases, and
    counted in, it moved the median of setup_s by up to a third between two
    sets of runs. Returns one (seconds, reference loop seconds) pair per import.
    """
    code = (
        "import sys, time, numpy, scipy.sparse.csgraph; sys.path[:0] = sys.argv[1:3]; "
        "from refspeed import ref_loop_seconds; before = ref_loop_seconds(); t = time.perf_counter(); "
        "import spanner1d.cli; t = time.perf_counter() - t; print(t, (before + ref_loop_seconds()) / 2)"
    )
    argv = [sys.executable, "-c", code, str(ROOT / "src"), str(HERE)]
    runs = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
        runs.append(tuple(float(x) for x in proc.stdout.split()))
    return runs


# ---------------------------------------------------------------- checks


class Checker:
    """Counts checked operations and those with any wrong output.

    With ``record`` set, pinned values are stored instead of compared
    (used by pin.py to regenerate pins.json).
    """

    def __init__(self, pins: dict, record: bool = False):
        self.pins = pins
        self.record = record
        self.attempted = 0
        self.failed = 0

    def op(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"check failed: {what}: {'; '.join(problems)}", file=sys.stderr)

    def pinned(self, key: str, value) -> list:
        if self.record:
            self.pins[key] = value
            return []
        if key not in self.pins:
            return [f"no pinned value for {key}"]
        if not _same(self.pins[key], value):
            return [f"{key} = {value!r}, pinned {self.pins[key]!r}"]
        return []


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and (
            math.isclose(a, b, rel_tol=1e-9)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def edge_digest(edges) -> dict:
    """Count and sha256 of the edge set as a sorted (E, 2) little-endian int64 array."""
    arr = np.sort(np.asarray(edges, dtype="<i8").reshape(-1, 2), axis=1)
    arr = np.ascontiguousarray(arr[np.lexsort((arr[:, 1], arr[:, 0]))])
    return {"count": int(arr.shape[0]), "sha256": hashlib.sha256(arr.tobytes()).hexdigest()}


def report_problems(doc: dict, n: int, oracle: bool, strong: bool) -> list:
    """Problems in one verification report (the JSON form the CLI writes)."""
    out = []
    if doc["violations"]:
        out.append(f"{len(doc['violations'])} violations")
    if doc["oracle_mismatches"]:
        out.append(f"{len(doc['oracle_mismatches'])} oracle mismatches")
    if not doc["pass"]:
        out.append("report did not pass")
    targets = n - doc["f_star_size"]
    exhaustive = n <= EXHAUSTIVE_LIMIT
    if exhaustive:
        want_pairs = targets * (targets - 1) // 2
    else:
        want_pairs = PAIR_SAMPLE if targets >= 2 else 0
    want_oracle = min(ORACLE_SAMPLE, 4 * targets) if oracle and targets >= 2 else 0
    if doc["exhaustive"] != exhaustive:
        out.append(f"exhaustive={doc['exhaustive']}")
    if doc["pairs_checked"] != want_pairs:
        out.append(f"pairs_checked={doc['pairs_checked']}, want {want_pairs}")
    if doc["exact_pairs"] != doc["pairs_checked"]:
        out.append(f"exact_pairs={doc['exact_pairs']} of {doc['pairs_checked']}")
    if doc["oracle_checked"] != want_oracle:
        out.append(f"oracle_checked={doc['oracle_checked']}, want {want_oracle}")
    # the stricter variant is reported, not required: it is a bool when run
    if (doc["strong_variant_ok"] is None) == strong:
        out.append(f"strong_variant_ok={doc['strong_variant_ok']}")
    return out


def _report_summary(doc: dict) -> dict:
    keys = ("f_size", "f_star_size", "pairs_checked", "oracle_checked", "strong_variant_ok")
    return {k: doc[k] for k in keys} | {"max_stretch": doc["max_stretch_over_ignored"]}


# ---------------------------------------------------------------- session


class Session:
    """State of one run: the program, inputs, tracer, checker and timings."""

    def __init__(self, seed, params, tracer, checker, tmp):
        self.seed = seed
        self.p = params
        self.tracer = tracer
        self.check = checker
        self.tmp = tmp
        self.steps = []  # (wall, reference loop) seconds of each timed step of the current pass
        self.sets = 0  # failure sets handled in the current pass
        self.summary = {}
        self.probe_spec = None
        self.points = {}  # generated coordinates the .points files must equal

    @contextlib.contextmanager
    def timed(self, name: str):
        """Time one step of a pass; every pass runs the same steps in the same order."""
        with measured(self.steps), self.tracer.span(name):
            yield

    def expected_points(self, n: int, model: str):
        key = (n, model)
        if key not in self.points:
            self.points[key] = sp.generate_points(n, model, self.seed).coords
        return self.points[key]

    def run_cli(self, command: str, argv: list):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), self.timed("cli." + command):
            rc = cli.main(argv)
        return rc, out.getvalue()

    # each CLI step runs the command, then checks its outputs untimed

    def cli_build(self, prefix: Path, n: int, ell: int, model: str) -> None:
        argv = ["build", "--n", str(n), "--ell", str(ell), "--model", model]
        rc, out = self.run_cli("build", argv + ["--seed", str(self.seed), "--out", str(prefix)])
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if rc == 0:
            edges = np.loadtxt(f"{prefix}.edges", dtype=np.int64, comments="#", ndmin=2)
            digest = edge_digest(edges)
            problems += self.check.pinned(f"edges/{n},{ell}", digest)
            if f"edges={digest['count']} " not in out:
                problems.append(f"summary line does not report edges={digest['count']}")
            coords = np.loadtxt(f"{prefix}.points", dtype=np.float64, ndmin=1)
            if not np.array_equal(coords, self.expected_points(n, model)):
                problems.append("points file differs from the generated points")
        self.check.op(f"cli build n={n} ell={ell} model={model}", problems)

    def cli_verify(self, prefix: Path, n: int, failure_args: list, seed: int | None = None) -> dict:
        report = Path(f"{prefix}.report.json")
        seed = self.seed if seed is None else seed
        argv = ["verify", "--graph", str(prefix), *failure_args]
        rc, _ = self.run_cli("verify", argv + ["--seed", str(seed), "--report", str(report)])
        self.sets += 1
        problems = [] if rc == 0 else [f"exit code {rc}"]
        doc = None
        if report.is_file():
            doc = json.loads(report.read_text())
            report.unlink()
            problems += report_problems(doc, n, oracle=True, strong=True)
        else:
            problems.append("no report written")
        self.check.op(f"cli verify n={n} {' '.join(failure_args)}", problems)
        return _report_summary(doc) if doc else {}

    def cli_closure_stats(self, n: int, ell: int, k: int, trials: int, seed: int | None = None) -> dict:
        out_json = self.tmp / "closure.json"
        seed = self.seed if seed is None else seed
        argv = ["closure-stats", "--n", str(n), "--ell", str(ell), "--k", str(k)]
        argv += ["--trials", str(trials), "--seed", str(seed), "--json", str(out_json)]
        rc, _ = self.run_cli("closure_stats", argv)
        self.sets += trials
        problems = [] if rc == 0 else [f"exit code {rc}"]
        summary = {}
        if out_json.is_file():
            summary = json.loads(out_json.read_text())["summary"]
            out_json.unlink()
            if summary["trials"] != trials or summary["offenders"] != 0:
                problems.append(f"summary {summary}")
        else:
            problems.append("no closure summary written")
        self.check.op(f"cli closure-stats n={n} ell={ell} k={k}", problems)
        return summary


# ---------------------------------------------------------------- workloads
#
# Every workload runs each CLI command at least once, so every per-layer
# metric is measured on every workload; they differ in which layers do
# most of the work.


def pipeline_setup(s: Session) -> None:
    p = s.p
    s.points.clear()
    s.expected_points(p["n"], p["model"])


def pipeline_pass(s: Session) -> None:
    p = s.p
    n, ell = p["n"], p["ell"]
    prefix = s.tmp / "graph"
    s.cli_build(prefix, n, ell, p["model"])
    # the oracle's cost follows |F*|, which varies from draw to draw: average over several
    s.summary["verify"] = [
        s.cli_verify(prefix, n, ["--random-k", str(p["k"])], seed=s.seed * 1000 + j) for j in range(p["verifies"])
    ]
    s.summary["closure"] = s.cli_closure_stats(n, ell, math.ceil(n / 5), p["cs_trials"])
    s.probe_spec = (prefix, n, p["k"])


def _wipes(scheme, n: int, rng, p) -> list:
    """Half-cluster wipes per layer plus a ladder of interval wipes.

    Up to ``all_wipes_upto`` points every wipe is used; above, a seeded
    sample of ``wipe_sample`` half-cluster wipes per layer and as many
    intervals from the ladder.
    """
    sample = n > p["all_wipes_upto"]

    def pick(items):
        if not sample or len(items) <= p["wipe_sample"]:
            return list(items)
        chosen = sorted(rng.choice(len(items), size=p["wipe_sample"], replace=False).tolist())
        return [items[i] for i in chosen]

    out = []
    for layer in range(1, scheme.ell + 1):
        ordinals = range(1, len(sp.half_clusters_of_layer(scheme, layer)) + 1)
        out += [sp.half_cluster_wipe(scheme, layer, o) for o in pick(ordinals)]
    ladder = []
    for length in (math.ceil(n / 16), math.ceil(n / 8), math.ceil(n / 4)):
        start = int(rng.integers(0, length))
        ladder += [(lo, lo + length) for lo in range(start, n - length + 1, length)]
    out += [sp.interval_wipe(n, lo, hi) for lo, hi in pick(ladder)]
    return out


def campaign_setup(s: Session) -> None:
    p = s.p
    s.graphs = {}
    for n in p["ns"]:
        ps = sp.generate_points(n, "uniform", s.seed)
        for ell in p["ells"]:
            scheme = sp.build_scheme(n, ell)
            graph = sp.build_spanner(ps, scheme)
            rng = np.random.default_rng([s.seed, n, ell])
            s.graphs[n, ell] = (ps, scheme, graph, _wipes(scheme, n, rng, p))
    sl = p["slice"]
    s.slice_wipe = 1 + s.seed % len(sp.half_clusters_of_layer(sp.build_scheme(sl["n"], sl["ell"]), 1))


def campaign_check_setup(s: Session) -> None:
    for (n, ell), (_, _, graph, _) in s.graphs.items():
        s.check.op(f"build n={n} ell={ell}", s.check.pinned(f"edges/{n},{ell}", edge_digest(graph.edges)))


def campaign_pass(s: Session) -> None:
    p = s.p
    totals = defaultdict(int)
    for (n, ell), (ps, scheme, graph, wipes) in s.graphs.items():
        flags = {"oracle_sample": 0, "strong_check": False}
        cases = []
        for k in (1, math.ceil(n / 20), math.ceil(n / 5)):
            with s.timed("campaign.random_sets"):
                for t in range(p["trials"]):
                    fseed = s.seed * 1000 + t
                    fs = sp.random_failures(n, k, fseed)
                    rep = sp.verify_robust_spanner(graph, ps, scheme, fs, seed=fseed, **flags)
                    cases.append((f"random n={n} ell={ell} k={k} seed={fseed}", rep))
        with s.timed("campaign.wipes"):
            for i, fs in enumerate(wipes):
                rep = sp.verify_robust_spanner(graph, ps, scheme, fs, seed=s.seed, **flags)
                cases.append((f"wipe #{i} n={n} ell={ell}", rep))
        for what, rep in cases:
            doc = json.loads(rep.to_json())
            s.check.op(what, report_problems(doc, n, oracle=False, strong=False))
            totals["verifies"] += 1
            totals["f_star"] += doc["f_star_size"]
            totals["pairs"] += doc["pairs_checked"]
        s.sets += len(cases)
    s.summary["in_library"] = dict(totals)

    sl = p["slice"]
    for model in ("clustered", "expgaps"):
        prefix = s.tmp / f"slice-{model}"
        s.cli_build(prefix, sl["n"], sl["ell"], model)
        s.summary[model] = [
            s.cli_verify(prefix, sl["n"], ["--random-k", str(sl["k"])]),
            s.cli_verify(prefix, sl["n"], ["--wipe-half", f"1:{s.slice_wipe}"]),
        ]
    cs = p["cs"]
    s.summary["closure"] = s.cli_closure_stats(cs["n"], cs["ell"], math.ceil(cs["n"] / 5), cs["trials"])
    s.probe_spec = (s.tmp / "slice-clustered", sl["n"], sl["k"])


def closure_setup(s: Session) -> None:
    c = s.p["companion"]
    s.points.clear()
    s.expected_points(c["n"], "uniform")


def closure_pass(s: Session) -> None:
    p = s.p
    c = p["companion"]
    prefix = s.tmp / "companion"
    s.cli_build(prefix, c["n"], c["ell"], "uniform")
    s.summary["companion"] = s.cli_verify(prefix, c["n"], ["--random-k", str(c["k"])])
    # several short commands rather than one long one: each is a timed step
    s.summary["closure"] = [
        s.cli_closure_stats(p["n"], p["ell"], math.ceil(p["n"] / 5), p["trials"], seed=s.seed * 1000 + j)
        for j in range(p["calls"])
    ]
    s.probe_spec = (prefix, c["n"], c["k"])


WORKLOADS = {
    "pipeline": (pipeline_setup, None, pipeline_pass),
    "campaign": (campaign_setup, campaign_check_setup, campaign_pass),
    "closure_stats": (closure_setup, None, closure_pass),
}


def verify_probe(s: Session, reps: int) -> dict:
    """Split one verify call into graph-cache, core, oracle and strong costs.

    Reads the graph afresh each repetition, then times the call with the
    oracle and the strong check off, cold and again warm, then with only
    the strong check and with only the default oracle added. Returns the
    median over repetitions of each, the last two less the warm call of
    the same repetition, in reference seconds.
    """
    prefix, n, k = s.probe_spec
    ps = sp.load_points(f"{prefix}.points")
    scheme = sp.scheme_from_json(Path(f"{prefix}.scheme.json").read_text())
    fs = sp.random_failures(n, k, s.seed)
    runs = defaultdict(list)
    steps = (
        ("cold", False, False),
        ("core", False, False),
        ("strong", False, True),
        ("oracle", True, False),
    )
    for _ in range(reps):
        graph = sp.read_edge_list(f"{prefix}.edges", n=n)
        for step, oracle, strong in steps:
            flags = {"oracle_sample": ORACLE_SAMPLE if oracle else 0, "strong_check": strong}
            with measured(runs[step]):
                rep = sp.verify_robust_spanner(graph, ps, scheme, fs, seed=s.seed, **flags)
            doc = json.loads(rep.to_json())
            s.check.op(f"probe {step} n={n}", report_problems(doc, n, oracle, strong))
    ref = {step: [ref_seconds(x) for x in v] for step, v in runs.items()}

    def added(step):
        return statistics.median(a - b for a, b in zip(ref[step], ref["core"]))

    return {
        "verify.cold_s": statistics.median(ref["cold"]),
        "verify.core_s": statistics.median(ref["core"]),
        "verify.oracle_s": added("oracle"),
        "verify.strong_s": added("strong"),
    }


# ---------------------------------------------------------------- metrics


def per_step_median(pass_steps: list, value) -> float:
    """One pass as the sum over its steps of value(step) at its median over the passes.

    Taking the median of each step rather than of whole passes keeps a
    stretch of slow seconds from spoiling more than the steps it overlaps.
    """
    if len({len(steps) for steps in pass_steps}) != 1:
        raise RuntimeError("passes ran different numbers of timed steps")
    return sum(statistics.median(value(step) for step in steps) for steps in zip(*pass_steps))


def _percentile_ms(durations, pct: int) -> float:
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[pct - 1] * 1e3


def layer_metrics(spans, pass_steps: list) -> dict:
    """Per-layer metrics: seconds and counts per set-up plus per pass."""
    passes = len(pass_steps)
    dur = [x["end"] - x["start"] for x in spans]
    child = defaultdict(float)
    for i, x in enumerate(spans):
        if x["parent"] is not None:
            child[x["parent"]] += dur[i]
    phase = [x["request"].split("-")[0] for x in spans]
    per = {"setup": 1.0 / SETUP_REPS, "pass": 1.0 / passes}

    def total(name, value=lambda i: dur[i]):
        return sum(value(i) * per[phase[i]] for i, x in enumerate(spans) if x["name"] == name and phase[i] in per)

    def count(name, key):
        return total(name, lambda i: spans[i].get("counts", {}).get(key, 0))

    def pass_durations(name):
        return [dur[i] for i, x in enumerate(spans) if x["name"] == name and phase[i] == "pass"]

    out = {}
    out["cli.self_s"] = sum(
        (dur[i] - child[i]) * per[phase[i]]
        for i, x in enumerate(spans)
        if x["name"].startswith("cli.") and phase[i] in per
    )
    for name in (
        "cli.build",
        "cli.verify",
        "cli.closure_stats",
        "experiments.generate_points",
        "experiments.random_failures",
        "experiments.run_closure_stats",
        "scheme.build_scheme",
        "scheme.to_json",
        "scheme.from_json",
        "builder.build_spanner",
        "builder.write_edge_list",
        "builder.read_edge_list",
        "core.write_points",
        "core.load_points",
        "closure.compute_closure",
    ):
        out[name + "_s"] = total(name)
    out["builder.edges"] = count("builder.build_spanner", "edges")
    out["verify.total_s"] = total("verify.verify_robust_spanner")
    for layer, name in (("closure", "closure.compute_closure"), ("verify", "verify.verify_robust_spanner")):
        calls = pass_durations(name)
        out[f"{layer}.call_p50_ms"] = _percentile_ms(calls, 50)
        out[f"{layer}.call_p99_ms"] = _percentile_ms(calls, 99)
        out[f"{layer}.calls"] = len(calls)
    out["verify.pairs_checked"] = count("verify.verify_robust_spanner", "pairs_checked")
    out["verify.oracle_checked"] = count("verify.verify_robust_spanner", "oracle_checked")
    out["closure.triggers"] = count("closure.compute_closure", "triggers")
    out["closure.f_size"] = count("closure.compute_closure", "f")
    out["closure.f_star_over_f"] = count("closure.compute_closure", "f_star") / out["closure.f_size"]

    # the timed steps of each pass; library calls of the untimed checks are left out
    top_level = defaultdict(list)
    for i, x in enumerate(spans):
        parent = x["parent"]
        if parent is not None and spans[parent]["name"] == "pass" and x["name"].startswith(("cli.", "campaign.")):
            top_level[parent].append(dur[i])
    out["trace.wall_ref_s"] = per_step_median(pass_steps, ref_seconds)
    out["trace.wall_s"] = per_step_median(pass_steps, lambda step: step[0])
    out["trace.top_level_s"] = per_step_median(list(top_level.values()), lambda d: d)
    out["trace.ref_loop_ms"] = statistics.median(loop for steps in pass_steps for _, loop in steps) * 1e3
    out["trace.spans"] = sum(1 for i in range(len(spans)) if phase[i] == "pass") / passes
    return out


# ---------------------------------------------------------------- one run


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        pins: dict | None = None, record: bool = False) -> dict:
    """Run one workload; returns the result object (metrics keyed by name)."""
    load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if pins is None:
        pins = json.loads(PINS.read_text())
    checker = Checker(pins, record)
    tracer = Tracer() if trace else NullTracer()
    setup, check_setup, one_pass = WORKLOADS[workload]
    params = SCALES[scale][workload]

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"tmp-{workload}-", dir=OUT))
    s = Session(seed, params, tracer, checker, tmp)
    try:
        with tracer.instrumented():
            setup_runs = []
            for rep in range(SETUP_REPS):
                tracer.request = f"setup-{rep}"
                with measured(setup_runs):
                    setup(s)
            if check_setup:
                check_setup(s)

            pass_steps, pass_sets, summaries = [], set(), []
            start = time.perf_counter()
            while True:
                tracer.request = f"pass-{len(pass_steps)}"
                s.steps, s.sets, s.summary = [], 0, {}
                with tracer.span("pass"):
                    one_pass(s)
                pass_steps.append(s.steps)
                pass_sets.add(s.sets)
                summaries.append(s.summary)
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / len(pass_steps) > seconds:
                    break

            probe = {}
            if trace:
                tracer.request = "probe"
                probe = verify_probe(s, params["probe_reps"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for i, summary in enumerate(summaries[1:], 1):
        s.check.op(f"pass {i} repeats pass 0", [] if _same(summary, summaries[0]) else ["outputs differ"])
    if seed == 0:
        s.check.op("seed-0 summary", s.check.pinned(f"summary/{scale}/{workload}", summaries[0]))

    if trace:
        values = layer_metrics(tracer.spans, pass_steps) | probe
        tracer.dump(OUT / f"spans-{workload}-seed{seed}.json")
    else:
        if len(pass_sets) != 1:
            raise RuntimeError("passes handled different numbers of failure sets")
        (sets,) = pass_sets
        wall_ref_s = per_step_median(pass_steps, ref_seconds)
        values = {
            "wall_ref_s": wall_ref_s,
            "setup_s": statistics.median(map(ref_seconds, import_runs()))
            + statistics.median(map(ref_seconds, setup_runs)),
            "sets_per_ref_s": sets / wall_ref_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    missing = units.keys() - values.keys()
    if missing:
        raise KeyError(f"metrics not computed: {sorted(missing)}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def provenance(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {
        "git_commit": _git_commit(),
        "spanner1d": sp.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.import_module("scipy").__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": SCALES[scale][workload],
    }


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, ImportError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": provenance(args.workload, args.seed, args.seconds, bool(args.trace))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
