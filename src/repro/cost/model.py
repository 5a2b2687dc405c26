"""Job-level communication cost (Eq. 6) and runtime rescaling (Eq. 7).

Eq. 6 sums, over the steps of the job's collective algorithm, the
*maximum* effective hop count among that step's simultaneously
communicating node pairs — the slowest pair paces a lock-step collective
phase::

    Cost = sum_n  max_{(i,j) in S_n} Hops(i, j)

§5.3 additionally notes that hop-*bytes* (hops x msize) "gives an
indication of communication time" and that vector-doubling algorithms
double msize per step. :class:`CostModel` therefore supports weighting
each step by its relative message size (the default used throughout the
experiments; pass ``weight_by_msize=False`` for the literal Eq. 6).

Eq. 7 rescales a communication-intensive job's runtime by the ratio of
its job-aware allocation cost to the default allocation cost::

    T' = T_compute + T_comm * Cost_jobaware / Cost_default

Evaluation goes through the leaf-pair kernel
(:mod:`repro.cost.leafpair`): distance and contention depend only on the
pair's leaf switches, so each step's max is taken over unique leaf pairs
(O(L²)) instead of node pairs (O(P)). Finished totals are memoized on
the state against its version counter; :meth:`CostModel.
allocation_cost_pairwise` keeps the direct per-node-pair evaluation as
the reference the property tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from ..obs import runtime as obs_runtime
from ..cluster.job import Job
from ..cluster.state import ClusterState
from ..patterns.base import CommunicationPattern
from .contention import PAPER_CONTENTION, ContentionModel
from .hops import effective_hops
from .leafpair import leaf_pair_cost

__all__ = ["CostModel", "allocation_cost", "adjusted_runtime"]


@lru_cache(maxsize=1024)
def _cached_steps(pattern: CommunicationPattern, nranks: int) -> Tuple:
    """Step lists are deterministic per (pattern, nranks); cache them.

    A continuous run evaluates the same pattern at the same power-of-two
    sizes thousands of times; regenerating the pair arrays dominated the
    profile before this cache. Patterns hash by type (plus parameters),
    so distinct configurations get distinct entries.
    """
    return tuple(pattern.steps(nranks))


def _node_array(nodes: Sequence[int]) -> np.ndarray:
    """``nodes`` as a non-empty 1-D int64 array."""
    node_arr = np.asarray(nodes, dtype=np.int64)
    if node_arr.ndim != 1 or node_arr.size == 0:
        raise ValueError("nodes must be a non-empty 1-D sequence")
    return node_arr


def _check_node_ids(node_arr: np.ndarray, n_nodes: int) -> None:
    """Reject ids outside ``[0, n_nodes)``; numpy would wrap ``-1``."""
    lo = int(node_arr.min())
    hi = int(node_arr.max())
    if lo < 0 or hi >= n_nodes:
        bad = lo if lo < 0 else hi
        raise ValueError(f"node id {bad} outside [0, {n_nodes})")


@dataclass(frozen=True)
class CostModel:
    """Configuration of the Eq. 6 evaluation.

    Attributes
    ----------
    weight_by_msize:
        Weight each step's max-hops by the step's relative message size
        (hop-bytes, §5.3). ``False`` gives the literal Eq. 6.
    contention:
        Eq. 3 upper-switch weighting; defaults to the paper's fat-tree
        value (see :class:`~repro.cost.contention.ContentionModel` for
        the §7 other-topology generalization).
    """

    weight_by_msize: bool = True
    contention: ContentionModel = PAPER_CONTENTION

    def allocation_cost(
        self,
        state: ClusterState,
        nodes: Sequence[int],
        pattern: CommunicationPattern,
    ) -> float:
        """Eq. 6 cost of running ``pattern`` on ``nodes`` under ``state``.

        Ranks ``0..len(nodes)-1`` map to ``nodes`` in order, so the
        allocation order chosen by the allocator (which blocks of ranks
        land on which switch) is what gets priced. ``state`` should
        already include the job's own allocation — the paper's worked
        example counts the job's own nodes in ``L_comm``. A
        :class:`~repro.cluster.state.CommOverlay` view (the base state
        plus the hypothetical job) is accepted in place of a full state.
        Raises ``ValueError`` for a node id outside ``[0, n_nodes)``.
        """
        node_arr = _node_array(nodes)
        if node_arr.size == 1:
            _check_node_ids(node_arr, state.topology.n_nodes)
            return 0.0
        cache_key = (self, pattern, node_arr.size, node_arr.tobytes())
        cached = state.cost_cache_get(cache_key)
        if cached is not None:
            obs_runtime.count("cost.cache_hits")
            return cached
        # a hit means these exact ids were checked when they were priced
        _check_node_ids(node_arr, state.topology.n_nodes)
        obs_runtime.count("cost.cache_misses")
        obs_runtime.count("cost.kernel_nodes", node_arr.size)
        # Rank layouts (srun -m block/cyclic) legally repeat node ids —
        # several ranks per node, intra-node pairs free. The kernel then
        # runs over node-id runs and drops same-node pairs; allocations
        # (always unique ids) run over leaf runs.
        with obs_runtime.timer("cost.kernel"):
            seen = np.zeros(state.topology.n_nodes, dtype=bool)
            seen[node_arr] = True
            unique_nodes = int(seen.sum()) == node_arr.size
            total = leaf_pair_cost(
                state,
                node_arr,
                pattern,
                _cached_steps(pattern, int(node_arr.size)),
                self.contention,
                self.weight_by_msize,
                unique_nodes,
            )
        state.cost_cache_put(cache_key, total)
        return total

    def allocation_cost_pairwise(
        self,
        state: ClusterState,
        nodes: Sequence[int],
        pattern: CommunicationPattern,
    ) -> float:
        """Reference per-node-pair Eq. 6 evaluation (uncached, O(P)).

        Kept as the ground truth the leaf-pair kernel is property-tested
        against, and as the baseline the benchmark snapshot compares to.
        Raises ``ValueError`` for a node id outside ``[0, n_nodes)``.
        """
        node_arr = _node_array(nodes)
        _check_node_ids(node_arr, state.topology.n_nodes)
        if node_arr.size == 1:
            return 0.0
        total = 0.0
        for step in _cached_steps(pattern, int(node_arr.size)):
            if step.n_pairs == 0:
                continue
            src = node_arr[step.pairs[:, 0]]
            dst = node_arr[step.pairs[:, 1]]
            worst = float(effective_hops(state, src, dst, self.contention).max())
            weight = step.msize if self.weight_by_msize else 1.0
            total += worst * weight * step.repeat
        return total


    def job_cost(
        self,
        state: ClusterState,
        nodes: Sequence[int],
        job: Job,
    ) -> Dict[CommunicationPattern, float]:
        """Eq. 6 cost per communication component of ``job``."""
        return {
            comp.pattern: self.allocation_cost(state, nodes, comp.pattern)
            for comp in job.comm
        }

    def runtime_ratio(self, cost_jobaware: float, cost_default: float) -> float:
        """``Cost_jobaware / Cost_default`` with a both-zero guard.

        Zero cost happens for single-node jobs (no network traffic); the
        ratio is then 1 (no change). A zero default cost with a non-zero
        job-aware cost cannot arise from Eq. 5 (hops are >= distance > 0
        whenever two distinct nodes communicate), so it is rejected.
        """
        if cost_default < 0 or cost_jobaware < 0:
            raise ValueError("costs must be non-negative")
        if cost_default == 0.0:
            if cost_jobaware == 0.0:
                return 1.0
            raise ValueError("default cost is 0 but job-aware cost is not")
        return cost_jobaware / cost_default

    def adjusted_runtime(
        self,
        job: Job,
        cost_jobaware: Dict[CommunicationPattern, float],
        cost_default: Dict[CommunicationPattern, float],
    ) -> float:
        """Eq. 7: rescale each communication component by its cost ratio.

        ``T' = T * (compute_fraction + sum_c frac_c * ratio_c)``. Compute
        jobs (no components) return the logged runtime unchanged.
        """
        factor = job.compute_fraction
        for comp in job.comm:
            ratio = self.runtime_ratio(
                cost_jobaware[comp.pattern], cost_default[comp.pattern]
            )
            factor += comp.fraction * ratio
        return job.runtime * factor


# Module-level conveniences using the default (msize-weighted) model.
_DEFAULT = CostModel()


def allocation_cost(
    state: ClusterState, nodes: Sequence[int], pattern: CommunicationPattern
) -> float:
    """Eq. 6 under the default :class:`CostModel`."""
    return _DEFAULT.allocation_cost(state, nodes, pattern)


def adjusted_runtime(
    job: Job,
    cost_jobaware: Dict[CommunicationPattern, float],
    cost_default: Dict[CommunicationPattern, float],
) -> float:
    """Eq. 7 under the default :class:`CostModel`."""
    return _DEFAULT.adjusted_runtime(job, cost_jobaware, cost_default)
