"""Discriminating geometric graphs with WL-style refinement tests.

A geometric graph couples an attributed graph with node positions and
optional vector features in R^d. This package decides, exactly at desk
scale, whether two such graphs can be told apart up to permutation,
rotation (optionally reflection), and translation — by colour refinement
(WL), by geometry-propagating refinement (GWL), by its first-hop
invariant variant (IGWL), and by k-body-restricted invariants — and
validates every verdict against a brute-force congruence oracle.
"""
from .engines import (
    RefinementTrace,
    TraceRow,
    Verdict,
    i_hash_k,
    run_gwl,
    run_igwl,
    run_igwl_k,
    run_wl,
)
from .generators import (
    PairSpec,
    gen_kchain,
    gen_lfold,
    gen_onehop_identical_pair,
    gen_random_cloud,
    gen_triangles_vs_hexagon,
    load_counterexample,
    random_isometry,
)
from .graph import (
    GeometricGraph,
    GraphError,
    GroupSpec,
    IsometryWitness,
    apply_isometry,
    build_radial_graph,
    dump_graph,
    geometric_graph,
    induced_subgraph,
    load_graph,
    neighborhood_subgraph,
)
from .numeric import (
    DEFAULT_EPS,
    FragileComparisonWarning,
    NumericContext,
    exact_context,
    float_context,
)
from .objects import Child, Leaf, Node, orbit_equal
from .oracle import OracleCapExceeded, geometric_isomorphism_oracle
from .properties import (
    PropertyReport,
    bounding_box_metrics,
    centroid,
    centroid_distance_multiset,
    dihedral_cos,
    property_report,
)
from .registry import OrbitRegistry
from .so2 import (
    So2Hash,
    StabilizerInfo,
    equivariant_sum_demo,
    run_so2_gwl,
    so2_hash,
    so2_registry,
    stabilizer_order,
)

__version__ = "0.1.0"
