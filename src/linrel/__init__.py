"""Exact calculus of linear relations over the rationals.

Relations (multivalued linear operators) between finite-dimensional rational
inner-product spaces, with canonical subspace arithmetic, adjoints, and
factorization solvers that decide A = B∘T and A = T∘B and construct verified
witnesses.
"""

from .exact import (
    EchelonForm,
    Matrix,
    Rational,
    canonical_echelon,
    nullspace,
    parse_rational,
    rank,
    solve_linear,
    vector,
)
from .factor import (
    Condition,
    FactorizationReport,
    solve_adjoint_left,
    solve_adjoint_right,
    solve_left_operator,
    solve_left_relation,
    solve_right_operator,
    solve_right_relation,
    verify,
)
from .files import (
    parse_relation_file,
    parse_relation_text,
    serialize_relation,
    write_relation_file,
)
from .harness import (
    RelationSpec,
    SuiteResult,
    brute_force_left_witness,
    brute_force_right_witness,
    list_suites,
    oracle_product_membership,
    random_relation,
    run_suite,
)
from .relation import (
    LinearRelation,
    RelationProfile,
    compose,
    cw_sum,
    graph_projection,
    graph_section,
    identity_on,
    profile,
    zero_times,
)
from .subspace import Subspace

__version__ = "0.1.0"

__all__ = [
    "Condition",
    "EchelonForm",
    "FactorizationReport",
    "LinearRelation",
    "Matrix",
    "Rational",
    "RelationProfile",
    "RelationSpec",
    "Subspace",
    "SuiteResult",
    "brute_force_left_witness",
    "brute_force_right_witness",
    "canonical_echelon",
    "compose",
    "cw_sum",
    "graph_projection",
    "graph_section",
    "identity_on",
    "list_suites",
    "nullspace",
    "oracle_product_membership",
    "parse_rational",
    "parse_relation_file",
    "parse_relation_text",
    "profile",
    "random_relation",
    "rank",
    "run_suite",
    "serialize_relation",
    "solve_adjoint_left",
    "solve_adjoint_right",
    "solve_left_operator",
    "solve_left_relation",
    "solve_linear",
    "solve_right_operator",
    "solve_right_relation",
    "vector",
    "verify",
    "write_relation_file",
    "zero_times",
]
