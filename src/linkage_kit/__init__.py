"""Exact-arithmetic strong-linkage combinatorics for split root systems.

Core objects: root systems in fundamental-weight coordinates, weights and
locally analytic characters spread over an embedding set, standard
parabolic subsets, and the linkage search producing Verma factor sets,
parabolic candidate sets and non-criticality obstruction lists.

The search kernel is pure Python on arbitrary-precision ints (see
linkage_kit._kernel); linkage_kit.kernel_implementation names it.
"""

from .errors import (
    ContextMismatch,
    IndexOutOfRange,
    InvalidCartan,
    LinkageKitError,
    NotIntegral,
    NotParabolicDominant,
    OrbitGuardExceeded,
    RankMismatch,
)
from .linkage import (
    DEFAULT_ORBIT_GUARD,
    LinkageChain,
    LinkageResult,
    noncritical_obstruction_set,
    strongly_linked_set,
    up_link_candidates,
    verma_factor_candidates,
    verma_factors_borel,
)
from .oracle import dot_orbit, stabilized_chain_set, verify_closure
from .parabolic import ParabolicSubset, central_class_key, equal_on_center, in_lambda_p_plus
from .rootsys import RootSystem, build_root_system, positive_root_count
from .weights_chars import (
    CONVENTIONS,
    EmbeddingContext,
    GlobalRoot,
    LocAnChar,
    WeightL,
    dot_action,
    dot_reflect,
    dot_reflect_char,
    global_pairing,
    is_alpha_dominant,
    is_alpha_integral,
)

__version__ = "0.1.0"

kernel_implementation = "python"

__all__ = [
    "CONVENTIONS",
    "ContextMismatch",
    "DEFAULT_ORBIT_GUARD",
    "EmbeddingContext",
    "GlobalRoot",
    "IndexOutOfRange",
    "InvalidCartan",
    "LinkageChain",
    "LinkageKitError",
    "LinkageResult",
    "LocAnChar",
    "NotIntegral",
    "NotParabolicDominant",
    "OrbitGuardExceeded",
    "ParabolicSubset",
    "RankMismatch",
    "RootSystem",
    "WeightL",
    "build_root_system",
    "central_class_key",
    "dot_action",
    "dot_orbit",
    "dot_reflect",
    "dot_reflect_char",
    "equal_on_center",
    "global_pairing",
    "in_lambda_p_plus",
    "is_alpha_dominant",
    "is_alpha_integral",
    "kernel_implementation",
    "noncritical_obstruction_set",
    "positive_root_count",
    "stabilized_chain_set",
    "strongly_linked_set",
    "up_link_candidates",
    "verma_factor_candidates",
    "verma_factors_borel",
    "verify_closure",
]
