"""Failure-tolerant exact spanners on points of a line.

Build sparse graphs over sorted 1-D point sets whose shortest paths
realise every pairwise distance exactly, and keep doing so after any
set of vertex failures once a bounded ignored set is set aside.
"""

from .builder import (
    SchemeMismatch,
    SpannerGraph,
    build_spanner,
    edge_count_bound,
    read_edge_list,
    write_edge_list,
)
from .closure import (
    ClosureTrace,
    compute_closure,
    half_threshold,
    within_spec_bound,
)
from .core import (
    DuplicateCoordinate,
    EmptyInput,
    IndexOutOfRange,
    PointSet,
    check_failures,
    load_failures,
    load_points,
    make_point_set,
    parse_failures,
    parse_points,
    write_points,
)
from .experiments import (
    generate_points,
    half_cluster_wipe,
    interval_wipe,
    random_failures,
    run_closure_stats,
    run_scaling,
)
from .scheme import (
    HalfClusterRef,
    InvalidEpsilon,
    LayeredScheme,
    LayerOutOfRange,
    build_scheme,
    choose_ell_for_epsilon,
    choose_m,
    half_clusters_of_layer,
    scheme_from_json,
    scheme_to_json,
)
from .verify import (
    TooLarge,
    VerificationReport,
    brute_force_oracle,
    verify_robust_spanner,
)

__version__ = "0.1.0"

__all__ = [
    "ClosureTrace",
    "DuplicateCoordinate",
    "EmptyInput",
    "HalfClusterRef",
    "IndexOutOfRange",
    "InvalidEpsilon",
    "LayerOutOfRange",
    "LayeredScheme",
    "PointSet",
    "SchemeMismatch",
    "SpannerGraph",
    "TooLarge",
    "VerificationReport",
    "brute_force_oracle",
    "build_scheme",
    "build_spanner",
    "check_failures",
    "choose_ell_for_epsilon",
    "choose_m",
    "compute_closure",
    "edge_count_bound",
    "generate_points",
    "half_cluster_wipe",
    "half_clusters_of_layer",
    "half_threshold",
    "interval_wipe",
    "load_failures",
    "load_points",
    "make_point_set",
    "parse_failures",
    "parse_points",
    "random_failures",
    "read_edge_list",
    "run_closure_stats",
    "run_scaling",
    "scheme_from_json",
    "scheme_to_json",
    "verify_robust_spanner",
    "within_spec_bound",
    "write_edge_list",
    "write_points",
]
