"""Discrete Morse matchings on finite simplicial complexes.

The package computes acyclic matchings on the face poset: an
approximation algorithm with a per-dimension guarantee (frontier), two
greedy elimination heuristics (coreduction, reduction), and exhaustive
small-instance oracles for optimal matchings, collapsibility, and
2-complex erasability.  Everything is deterministic; randomness only
enters through explicit seeds in the generators.
"""
from .complexes import (
    SimplicialComplex,
    Simplex,
    betti_gf2,
    boundary_matrix_gf2,
    canonical_key,
    euler_characteristic,
    facets_of,
    from_maximal_simplices,
    gf2_rank,
    is_connected,
    simplex,
)
from .fileio import (
    ParseError,
    parse_complex,
    parse_matching,
    read_complex,
    serialize_complex,
    serialize_matching,
    write_complex,
)
from .frontier import (
    EdgeComponent,
    FrontierResult,
    frontier_edges_matching,
)
from .generators import (
    amplified,
    dunce_hat,
    full_simplex,
    random_complex,
    rp2,
    simplex_boundary,
    wedge,
)
from .hasse import (
    InvalidMatching,
    OrientedHasse,
    Pair,
    hasse,
    max_cardinality_matching,
    orient,
)
from .heuristics import coreduction_matching, reduction_matching
from .morse import (
    CriticalProfile,
    MorseInequalityReport,
    MorseMatching,
    canonicalize_single_critical_vertex,
    certify,
    check_morse_inequalities,
    collapse_sequence,
    critical_profile,
    gamma_graph,
    is_acyclic,
)
from .oracle import (
    CollapsibilityResult,
    ErasabilityResult,
    OracleResult,
    erasability,
    is_collapsible,
    optimal_morse_matching,
)

__version__ = "0.1.0"

__all__ = [
    "CollapsibilityResult",
    "CriticalProfile",
    "EdgeComponent",
    "ErasabilityResult",
    "FrontierResult",
    "InvalidMatching",
    "MorseInequalityReport",
    "MorseMatching",
    "OracleResult",
    "OrientedHasse",
    "Pair",
    "ParseError",
    "Simplex",
    "SimplicialComplex",
    "amplified",
    "betti_gf2",
    "boundary_matrix_gf2",
    "canonical_key",
    "canonicalize_single_critical_vertex",
    "certify",
    "check_morse_inequalities",
    "collapse_sequence",
    "coreduction_matching",
    "critical_profile",
    "dunce_hat",
    "erasability",
    "euler_characteristic",
    "facets_of",
    "from_maximal_simplices",
    "frontier_edges_matching",
    "full_simplex",
    "gamma_graph",
    "gf2_rank",
    "hasse",
    "is_acyclic",
    "is_collapsible",
    "is_connected",
    "max_cardinality_matching",
    "optimal_morse_matching",
    "orient",
    "parse_complex",
    "parse_matching",
    "random_complex",
    "read_complex",
    "reduction_matching",
    "rp2",
    "serialize_complex",
    "serialize_matching",
    "simplex",
    "simplex_boundary",
    "wedge",
    "write_complex",
]
