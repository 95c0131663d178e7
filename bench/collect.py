"""Run the benchmark over several seeds and summarise the spread of each metric.

Run from the root of a checkout, one run at a time:

    python3 bench/collect.py --seeds 1-10 --out bench/results/BENCH_<label>.json
    python3 bench/collect.py --seeds 1-5 --workloads pipeline --traced 0

Each run is ``bench/run.py`` in its own process. For every workload and
metric the output gives the values in seed order, their median, first and
third quartile (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median. Traced runs (``--traced`` seeds from the start of the
list) give the per-layer medians and the tracing overhead: traced minus
untraced ``wall_ref_s`` on the same seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SPEC = json.loads((Path.cwd() / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2])["provenance"]
    result["elapsed_s"] = elapsed
    return result


def spread(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "values": values,
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--traced", type=int, default=2, help="how many seeds also run traced")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    doc = {"run_seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        # each traced run follows the untraced run of its seed, so both see
        # the same machine load when the overhead is taken
        runs, traced = [], []
        for i, seed in enumerate(seeds):
            runs.append(one_run(workload, seed, 0))
            if i < args.traced:
                traced.append(one_run(workload, seed, 1))
        entry = {
            "correct": all(r["correct"] for r in runs + traced),
            "attempted": sum(r["attempted"] for r in runs + traced),
            "failed": sum(r["failed"] for r in runs + traced),
            "elapsed_s": spread([r["elapsed_s"] for r in runs]),
            "end_to_end": {},
            "per_layer": {},
        }
        for name in runs[0]["metrics"]:
            entry["end_to_end"][name] = spread([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name]["unit"] = runs[0]["metrics"][name]["unit"]
            s = entry["end_to_end"][name]["spread"]
            print(f"{workload:14} {name:14} median {entry['end_to_end'][name]['median']:.4g} "
                  f"spread {s:.4f} (bound {bounds[name]})", flush=True)
        if traced:
            for name in traced[0]["metrics"]:
                entry["per_layer"][name] = spread([r["metrics"][name]["value"] for r in traced])
                entry["per_layer"][name]["unit"] = traced[0]["metrics"][name]["unit"]
            untraced = [r["metrics"]["wall_ref_s"]["value"] for r in runs[: len(traced)]]
            traced_ref = [r["metrics"]["trace.wall_ref_s"]["value"] for r in traced]
            traced_wall = [r["metrics"]["trace.wall_s"]["value"] for r in traced]
            top = [r["metrics"]["trace.top_level_s"]["value"] for r in traced]
            entry["tracing"] = {
                "untraced_wall_ref_s": untraced,
                "traced_wall_ref_s": traced_ref,
                "overhead_ref_s": [t - u for t, u in zip(traced_ref, untraced)],
                "top_level_minus_traced_wall_s": [t - w for t, w in zip(top, traced_wall)],
            }
            print(f"{workload:14} tracing overhead {entry['tracing']['overhead_ref_s']}", flush=True)
        entry["provenance"] = runs[0]["provenance"]
        doc["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
