"""Exact rank-method bounds and finite-scheme barrier verification.

Everything is exact over the rationals, with a rank screen mod a prime; no floats anywhere.
"""

from .fields import POLY, QQ, PolyRing
from .exactalg import (
    DEFAULT_PRIME,
    Matrix,
    Subspace,
    nullspace,
    rank,
    rank_of_rows,
    subspace_from_vectors,
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
