"""Adaptive allocation — paper §4.3.

Runs greedy and balanced, prices both candidate allocations with the
effective-hops cost model (Eqs. 2-6), and keeps the cheaper one for a
communication-intensive job (the *costlier* one for a compute-intensive
job, preserving the good placement for future communication-intensive
work). Ties go to balanced, which the paper finds stronger on average.

Costs are evaluated on a hypothetical view that includes the candidate
allocation itself, matching the paper's worked example where a job's own
nodes count toward switch contention. The view is a cheap
:meth:`~repro.cluster.state.ClusterState.comm_overlay` (per-leaf
counters only), not a full state copy — adaptive prices two candidates
per job start, which made the O(n_nodes) copies a hot path of their own.
Both candidates are :class:`~repro.cluster.state.Takes`, priced without
building node ids; only the winner gets node ids, when the job starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..obs import runtime as obs_runtime
from ..cluster.job import CommComponent, Job, JobKind
from ..cluster.state import ClusterState, Takes
from ..cost.model import CostModel
from ..patterns.base import CommunicationPattern
from ..patterns.recursive_doubling import RecursiveDoubling
from .balanced import BalancedAllocator
from .base import Allocator, AllocationError, find_lowest_level_switch
from .greedy import GreedyAllocator

__all__ = ["AdaptiveAllocator", "AdaptiveDecision"]


@dataclass(frozen=True)
class AdaptiveDecision:
    """Diagnostics of one adaptive arbitration (exposed for tests/ablation)."""

    chosen: str  # "greedy" or "balanced"
    greedy_cost: float
    balanced_cost: float
    greedy_takes: Takes
    balanced_takes: Takes

    @property
    def takes(self) -> Takes:
        """Per-leaf takes of the placement that won the arbitration."""
        return self.greedy_takes if self.chosen == "greedy" else self.balanced_takes


class AdaptiveAllocator(Allocator):
    """Cost-model arbitration between greedy and balanced placements.

    Parameters
    ----------
    cost_model:
        Eq. 6 configuration; defaults to the msize-weighted model.
    probe_pattern:
        Pattern used to price *compute-intensive* jobs, which carry no
        communication components of their own (the paper prices them
        too, picking the worse placement). Defaults to recursive
        doubling.
    """

    name = "adaptive"

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        probe_pattern: Optional[CommunicationPattern] = None,
    ) -> None:
        self.cost_model = cost_model or CostModel()
        self.probe_pattern = probe_pattern or RecursiveDoubling()
        self._greedy = GreedyAllocator()
        self._balanced = BalancedAllocator()
        #: decision of the most recent :meth:`select` call (diagnostics)
        self.last_decision: Optional[AdaptiveDecision] = None

    def _candidate_cost(self, state: ClusterState, job: Job, takes: Takes) -> float:
        """Fraction-weighted Eq. 6 cost of ``takes`` with the job applied."""
        with obs_runtime.timer("adaptive.pricing"):
            view = state.comm_overlay(takes, job.kind)
            components = job.comm or (CommComponent(self.probe_pattern, 1.0),)
            return sum(
                comp.fraction * self.cost_model.allocation_cost(view, takes, comp.pattern)
                for comp in components
            )

    def decide(self, state: ClusterState, job: Job) -> AdaptiveDecision:
        """Run both allocators and price their placements.

        The lowest-level switch search (identical for both candidates:
        it only reads subtree free counts) runs once and is shared, and
        both candidates rank leaves off the same version-cached Eq. 1
        vector — together with the overlay-based pricing this is what
        closed the ~9x adaptive-vs-greedy gap BENCH_PR1 exposed.
        """
        self._greedy.precheck(state, job)
        switch = find_lowest_level_switch(state, job.nodes)
        if switch is None:
            raise AllocationError(
                f"no switch with {job.nodes} free nodes for job {job.job_id}"
            )
        greedy_takes = self._greedy.postcheck(
            job, self._greedy.select_under(state, job, switch)
        )
        balanced_takes = self._balanced.postcheck(
            job, self._balanced.select_under(state, job, switch)
        )
        greedy_cost = self._candidate_cost(state, job, greedy_takes)
        if greedy_takes == balanced_takes:
            # identical candidate -> identical cost; ties always go to
            # balanced, so the arbitration outcome is already decided
            # (common for small jobs that fit inside one leaf)
            balanced_cost = greedy_cost
        else:
            balanced_cost = self._candidate_cost(state, job, balanced_takes)
        if job.kind is JobKind.COMM:
            chosen = "greedy" if greedy_cost < balanced_cost else "balanced"
        else:
            chosen = "greedy" if greedy_cost > balanced_cost else "balanced"
        return AdaptiveDecision(
            chosen=chosen,
            greedy_cost=greedy_cost,
            balanced_cost=balanced_cost,
            greedy_takes=greedy_takes,
            balanced_takes=balanced_takes,
        )

    def select(self, state: ClusterState, job: Job) -> Takes:
        """Return the cheaper of greedy's and balanced's placements (§4.3)."""
        decision = self.decide(state, job)
        self.last_decision = decision
        return decision.takes
