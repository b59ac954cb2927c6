"""Boundary-independent broadcasts on trees.

A broadcast assigns integer strengths to vertices (at most each vertex's
eccentricity); it is boundary independent when any vertex heard by two
broadcasters sits on the boundary sphere of both.  The package computes the
maximum weight of such a broadcast on trees exactly, evaluates structural
lower/upper bounds with constructive witnesses, applies the known closed
formulas, and searches tree corpora for counterexamples to the conjectured
sharper upper bound.
"""

__version__ = "0.1.0"

from .broadcasts import (
    BnViolation,
    Broadcast,
    BroadcastAnalysis,
    analyze,
    bn_violation,
    format_broadcast,
    hearing_violation,
    is_bn_independent,
    is_dominating,
    is_hearing_independent,
    is_maximal_bn,
    parse_broadcast,
)
from .corpus import (
    CaterpillarSpec,
    DoubleSpiderSpec,
    FamilySpec,
    PathSpec,
    SpiderSpec,
    build_family,
    emit_graph6,
    enumerate_trees,
    looks_like_family,
    parse_edge_list,
    parse_family_spec,
    parse_graph6,
)
from .errors import (
    BadSpec,
    BadVertexIndex,
    BudgetExceeded,
    GraphError,
    InternalInconsistency,
    InvalidBroadcast,
    NegativeStrength,
    NoBranchVertices,
    NotATree,
    NotBnIndependent,
    ParseError,
    ShapeMismatch,
    StrengthExceedsEccentricity,
    UnsupportedLongForm,
)
from .solve import (
    BoundsReport,
    SolveResult,
    bn_number,
    bn_number_dp,
    bn_number_enum,
    bn_number_restricted,
    caterpillar_value,
    compute_bounds,
    conjectured_upper_bound,
    hearing_number,
    independence_number,
    lower_bound_witness,
    path_spider_value,
    two_branch_value,
    upper_bound,
)
from .trees import (
    LeafDistances,
    Shape,
    Tree,
    TreeProfile,
    classify_shape,
)
