"""Exact rank-method bounds and finite-scheme barrier verification.

Everything runs over the rationals or a prime field; no floats anywhere.
"""

from .fields import QQ, PolyRing, PrimeField
from .exactalg import (
    DEFAULT_PRIME,
    Matrix,
    Subspace,
    nullspace,
    rank,
    rank_of_rows,
    solve_membership,
    span_sum,
    subspace_contains,
    subspace_from_vectors,
    subspaces_equal,
)
from .varieties import (
    Germ,
    VarietyParam,
    evaluate,
    parse_variety,
    random_point,
)
from .schemes import (
    CurvilinearGerm,
    FiniteScheme,
    FirstNeighborhood,
    ReducedPoint,
    SpanFamily,
    limit_of_spans,
    random_scheme,
    scheme_span,
    span_of_limit_vs_limit_of_spans,
)
from .rankmethods import (
    DenseTensor,
    LinearMatrixMap,
    RankMethod,
    SymmetricForm,
    builtin_methods,
    catalecticant,
    check_k_consistency,
    estimate_k,
    evaluate_map,
    flattening,
    koszul_flattening,
    lower_bound,
    parse_method,
)
from .barrier import (
    BarrierReport,
    CeilingReport,
    ceilings,
    grassmann_containment,
    minimal_factor_subspace,
    verify_instance,
    verify_join_decomposition,
)

__version__ = "0.1.0"
