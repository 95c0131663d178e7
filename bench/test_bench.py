"""Self-test of the benchmark: tiny workloads, metric names and units, negative controls.

Run from the root of a checkout (it is not part of the tier-1 suite):

    python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_workload_reports_every_metric(workload, trace):
    result = run.run(workload, 0, 0, trace, scale="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units(section)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


def _drop_consecutive_edge(build_spanner):
    """A build_spanner that omits the edge (u, u+1) for the smallest such u."""

    def broken(ps, scheme, *args, **kwargs):
        graph = build_spanner(ps, scheme, *args, **kwargs)
        edges = [tuple(e) for e in graph.edges.tolist()]
        drop = next(e for e in edges if e[1] == e[0] + 1)
        return run.sp.SpannerGraph(graph.n, [e for e in edges if e != drop])

    return broken


def test_dropped_edge_in_campaign_graphs_raises_error_rate(monkeypatch):
    run.load_program()
    monkeypatch.setattr(run.sp, "build_spanner", _drop_consecutive_edge(run.sp.build_spanner))
    result = run.run("campaign", 1, 0, False, scale="tiny")
    p = run.SCALES["tiny"]["campaign"]
    graphs = len(p["ns"]) * len(p["ells"])
    # one failed digest check per graph, plus the verifies that miss the edge
    assert not result["correct"] and result["failed"] > graphs


def test_dropped_edge_in_cli_build_raises_error_rate(monkeypatch):
    run.load_program()
    monkeypatch.setattr(run.cli, "build_spanner", _drop_consecutive_edge(run.cli.build_spanner))
    result = run.run("pipeline", 1, 0, False, scale="tiny")
    assert not result["correct"] and result["failed"] >= 1


def test_tampered_digest_raises_error_rate():
    pins = copy.deepcopy(json.loads(run.PINS.read_text()))
    key = "edges/{n},{ell}".format(**run.SCALES["tiny"]["pipeline"])
    pins[key]["sha256"] = "0" * 64
    result = run.run("pipeline", 1, 0, False, scale="tiny", pins=pins)
    assert not result["correct"] and result["failed"] == 1


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["--workload", "pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        SPEC["command"] + argv, cwd=tmp_path, capture_output=True, text=True, timeout=180
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
