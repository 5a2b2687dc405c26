"""Communication-cost model (paper §5.3, Eqs. 2-7)."""

from .contention import ContentionModel, contention_factor, contention_factor_scalar
from .hops import effective_hops, effective_hops_scalar, hop_bytes
from .leafpair import (
    PatternPlan,
    clear_leaf_pair_cache,
    leaf_pair_cost,
    pattern_plan,
)
from .model import CostModel, adjusted_runtime, allocation_cost

__all__ = [
    "ContentionModel",
    "contention_factor",
    "contention_factor_scalar",
    "effective_hops",
    "effective_hops_scalar",
    "hop_bytes",
    "leaf_pair_cost",
    "PatternPlan",
    "pattern_plan",
    "clear_leaf_pair_cache",
    "CostModel",
    "adjusted_runtime",
    "allocation_cost",
]
