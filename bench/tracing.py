"""Spans around calls into spanner1d's layers, kept in memory for one run.

A span records a name, start and end (``time.perf_counter`` seconds), the
index of the span open when it began (its parent), the id of the request it
belongs to (a set-up repetition, a timed pass or the verify probe) and any
counts read off the call's result. Spans are written out once, when the run
ends.

Library calls are traced by swapping each function listed in ``SPANNED`` for
a recording wrapper wherever a ``spanner1d`` module or the package itself
binds it, so calls the CLI makes into a layer, and calls one layer makes into
another, are recorded without changing the program. The swap is undone on
exit.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager, nullcontext


def _edges(graph):
    return {"edges": graph.edge_count}


def _closure(trace):
    return {
        "triggers": len(trace.triggered),
        "f": len(trace.failures),
        "f_star": len(trace.f_star),
    }


def _report(rep):
    return {"pairs_checked": rep.pairs_checked, "oracle_checked": rep.oracle_checked}


# span name -> (defining module, function name, counts read off the result)
SPANNED = {
    "experiments.generate_points": ("spanner1d.experiments", "generate_points", None),
    "experiments.random_failures": ("spanner1d.experiments", "random_failures", None),
    "experiments.run_closure_stats": ("spanner1d.experiments", "run_closure_stats", None),
    "scheme.build_scheme": ("spanner1d.scheme", "build_scheme", None),
    "scheme.to_json": ("spanner1d.scheme", "scheme_to_json", None),
    "scheme.from_json": ("spanner1d.scheme", "scheme_from_json", None),
    "builder.build_spanner": ("spanner1d.builder", "build_spanner", _edges),
    "builder.write_edge_list": ("spanner1d.builder", "write_edge_list", None),
    "builder.read_edge_list": ("spanner1d.builder", "read_edge_list", None),
    "core.write_points": ("spanner1d.core", "write_points", None),
    "core.load_points": ("spanner1d.core", "load_points", None),
    "closure.compute_closure": ("spanner1d.closure", "compute_closure", _closure),
    "verify.verify_robust_spanner": ("spanner1d.verify", "verify_robust_spanner", _report),
}


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._open = []

    def _begin(self, name: str) -> dict:
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "request": self.request,
        }
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        s = self._begin(name)
        try:
            yield
        finally:
            self._end(s)

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(s)
            if counts is not None:
                s["counts"] = counts(out)
            return out

        return traced

    @contextmanager
    def instrumented(self):
        """Swap every binding of a SPANNED function for a traced wrapper."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "spanner1d" or key.startswith("spanner1d.")
        ]
        swapped = []
        for name, (modname, attr, counts) in SPANNED.items():
            fn = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, fn, counts)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is fn]:
                    swapped.append((mod, key, fn))
                    setattr(mod, key, wrapper)
        try:
            yield
        finally:
            for mod, key, fn in reversed(swapped):
                setattr(mod, key, fn)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


class NullTracer:
    """Stand-in for untraced runs: no spans, no wrappers."""

    spans = ()
    request = None

    def span(self, name: str):
        return nullcontext()

    def instrumented(self):
        return nullcontext()
