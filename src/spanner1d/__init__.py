"""Failure-tolerant exact spanners on points of a line.

Build sparse graphs over sorted 1-D point sets whose shortest paths
realise every pairwise distance exactly, and keep doing so after any
set of vertex failures once a bounded ignored set is set aside.
"""

from .builder import SpannerGraph, build_spanner, read_edge_list
from .closure import compute_closure
from .core import load_points, make_point_set
from .experiments import generate_points, half_cluster_wipe, interval_wipe, random_failures
from .scheme import build_scheme, half_clusters_of_layer, scheme_from_json
from .verify import TooLarge, brute_force_oracle, verify_robust_spanner

__version__ = "0.1.0"

__all__ = [
    "SpannerGraph",
    "TooLarge",
    "brute_force_oracle",
    "build_scheme",
    "build_spanner",
    "compute_closure",
    "generate_points",
    "half_cluster_wipe",
    "half_clusters_of_layer",
    "interval_wipe",
    "load_points",
    "make_point_set",
    "random_failures",
    "read_edge_list",
    "scheme_from_json",
    "verify_robust_spanner",
]
