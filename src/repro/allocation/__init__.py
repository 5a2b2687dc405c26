"""Node allocation algorithms (paper §4, SLURM baselines, literature zoo).

The full catalogue — families, citations, tunable parameters — lives in
``docs/allocators.md`` and is generated from :data:`ALLOCATOR_REGISTRY`;
see that guide for the allocator contract and a worked registration
example.
"""

from .base import (
    AllocationError,
    Allocator,
    find_lowest_level_switch,
    leaves_below,
)
from .adaptive import AdaptiveAllocator, AdaptiveDecision
from .annealing import SimulatedAnnealingAllocator
from .balanced import BalancedAllocator, balanced_split
from .contiguous import ContiguousAllocator
from .default_slurm import DefaultSlurmAllocator
from .fault_aware import FaultAwareAllocator
from .greedy import GreedyAllocator
from .io_aware import IOAwareAllocator
from .linear import LinearAllocator
from .spread import SpreadAllocator
from .registry import (
    ALLOCATOR_FACTORIES,
    ALLOCATOR_REGISTRY,
    AllocatorInfo,
    AllocatorParam,
    PAPER_ALLOCATORS,
    allocator_catalogue,
    allocator_names,
    catalogue_markdown,
    get_allocator,
    parse_allocator_spec,
    register_allocator,
)

__all__ = [
    "AllocationError",
    "Allocator",
    "find_lowest_level_switch",
    "leaves_below",
    "AdaptiveAllocator",
    "AdaptiveDecision",
    "BalancedAllocator",
    "balanced_split",
    "ContiguousAllocator",
    "DefaultSlurmAllocator",
    "FaultAwareAllocator",
    "GreedyAllocator",
    "IOAwareAllocator",
    "LinearAllocator",
    "SimulatedAnnealingAllocator",
    "SpreadAllocator",
    "ALLOCATOR_FACTORIES",
    "ALLOCATOR_REGISTRY",
    "AllocatorInfo",
    "AllocatorParam",
    "PAPER_ALLOCATORS",
    "allocator_catalogue",
    "allocator_names",
    "catalogue_markdown",
    "get_allocator",
    "parse_allocator_spec",
    "register_allocator",
]
