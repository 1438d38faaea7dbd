"""Exact computation of adjacency-commuting matrices with edge support.

For a finite graph with adjacency matrix A, the space of matrices B with
B A = A B whose entries vanish at distinct non-adjacent vertex pairs is
computed exactly over the rationals and split into symmetric and
antisymmetric parts.  For hypercubes the closed-form bases are constructed
and every defining identity can be verified exactly.
"""

from .exactlinalg import (
    CapExceeded,
    ExactMatrix,
    ExactVector,
    SubspaceBasis,
    kron,
    nullspace,
    rank,
    span_equal,
    unvectorize,
    vectorize,
)
from .hypercube import (
    EigenData,
    Graph,
    HypercubeContext,
    adjacency,
    alpha,
    alpha_star,
    alpha_star_via_kron,
    alpha_via_kron,
    cube_adjacency,
    eigen_data,
    graph_from_dict,
    load_graph,
    scaled_eigenvector,
)
from .alike import (
    AlikeCheck,
    AlikeDecomposition,
    GroupResult,
    VerificationReport,
    b_matrix,
    bij_action_on_wS,
    characterization_cases,
    characterization_residual,
    closed_form_antisym_basis,
    closed_form_sym_basis,
    is_alike,
    restriction_to_E1,
    solve_alike,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "AlikeCheck",
    "AlikeDecomposition",
    "CapExceeded",
    "EigenData",
    "ExactMatrix",
    "ExactVector",
    "Graph",
    "GroupResult",
    "HypercubeContext",
    "SubspaceBasis",
    "VerificationReport",
    "adjacency",
    "alpha",
    "alpha_star",
    "alpha_star_via_kron",
    "alpha_via_kron",
    "b_matrix",
    "bij_action_on_wS",
    "characterization_cases",
    "characterization_residual",
    "closed_form_antisym_basis",
    "closed_form_sym_basis",
    "cube_adjacency",
    "eigen_data",
    "graph_from_dict",
    "is_alike",
    "kron",
    "load_graph",
    "nullspace",
    "rank",
    "restriction_to_E1",
    "scaled_eigenvector",
    "solve_alike",
    "span_equal",
    "unvectorize",
    "vectorize",
    "verify_all",
]
