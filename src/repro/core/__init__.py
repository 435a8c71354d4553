"""The paper's contribution: min-max boundary decomposition (Theorem 4)."""

from .balance import (
    is_almost_strictly_balanced,
    is_strictly_balanced,
    max_deviation,
    strict_balance_margin,
    weak_balance_ratio,
)
from .binpack import binpack_merge, binpack_strict, extract_chunk
from .boundary_balance import boundary_balanced_coloring
from .coloring import Coloring
from .decompose import DecompositionResult, min_max_partition, theorem4_bound
from .measures import (
    class_measure,
    dynamic_mono_measure,
    measure_norms,
    splitting_cost,
    splitting_cost_measure,
)
from .multibalance import (
    RebalanceStats,
    multi_balanced_bicolor,
    multi_balanced_coloring,
    rebalance,
)
from .params import DecompositionParams
from .shrink import (
    ShrinkDiagnostics,
    extract_light_part,
    extract_representative_part,
    iterative_partition,
    shrink,
)
from .hierarchy import HierarchicalResult, hierarchical_partition
from .kernels import (
    DEFAULT_KERNEL,
    fm_pair_pass,
    fm_pair_pass_bucket,
    fm_pair_pass_reference,
    run_pair_kernel,
    use_kernel,
)
from .refine import kway_refine, pairwise_refine
from .strictify import improve_balance

__all__ = [
    "Coloring",
    "DecompositionParams",
    "DecompositionResult",
    "min_max_partition",
    "theorem4_bound",
    "boundary_balanced_coloring",
    "multi_balanced_bicolor",
    "multi_balanced_coloring",
    "rebalance",
    "RebalanceStats",
    "improve_balance",
    "kway_refine",
    "HierarchicalResult",
    "hierarchical_partition",
    "pairwise_refine",
    "DEFAULT_KERNEL",
    "fm_pair_pass",
    "fm_pair_pass_bucket",
    "fm_pair_pass_reference",
    "run_pair_kernel",
    "use_kernel",
    "binpack_merge",
    "binpack_strict",
    "extract_chunk",
    "shrink",
    "ShrinkDiagnostics",
    "iterative_partition",
    "extract_light_part",
    "extract_representative_part",
    "splitting_cost_measure",
    "splitting_cost",
    "class_measure",
    "measure_norms",
    "dynamic_mono_measure",
    "is_strictly_balanced",
    "is_almost_strictly_balanced",
    "strict_balance_margin",
    "max_deviation",
    "weak_balance_ratio",
]
