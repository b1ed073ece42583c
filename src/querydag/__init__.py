"""Deciding DAGs of SAT queries with few oracle queries.

The library compresses a query graph along a balanced separator tree,
weights the result with an admissible weighting function, and recovers the
answer through a short binary search of threshold oracle queries; an
arithmetization pipeline, imported on its own as querydag.arithmetize,
cross-checks everything against exact polynomial maximization.
"""

from .compress import (
    build_compressed,
    compute_output,
    expected_expanded_size,
    lift_query_string,
    plan,
)
from .errors import (
    CapacityError,
    GenerationError,
    ParseError,
    PipelineError,
    QueryDagError,
    ValidationError,
    WireValueError,
)
from .oracle import (
    BruteForceBackend,
    EvaluationBackend,
    OracleStats,
    ProofOracle,
    max_t_for_assignment,
    sat_exists_proof,
    threshold_oracle,
)
from .querygraph import (
    QueryNode,
    build_dag,
    evaluate,
    is_correct_query_string,
    parse_dag,
    serialize_dag,
)
from .separator import (
    SeparatorTree,
    Supervertex,
    build_depth_bounded_tree,
    build_separator_tree,
)
from .solver import (
    binary_search_T,
    decide_compress,
    decide_depth,
    decide_direct,
    extract_query_string,
    search_budget,
)
from .weighting import (
    check_admissible,
    levels,
    omega_weights,
    rho_weights,
    total_weight,
    weight_report,
)

__version__ = "0.1.0"
