"""Simulated-annealing allocation over leaf assignments.

A search-based allocator in the spirit of Lan et al. (arXiv
2302.03517), who anneal topology-aware job placements on a production
cluster (their neural proposal distribution is replaced here by simple
power-of-two take moves, keeping the allocator dependency-free and
deterministic). The state space is the per-leaf *take vector* under the
lowest feasible switch — how many nodes the job draws from each leaf —
seeded from the greedy (Algorithm 1) placement and perturbed by moving
chunks between leaves while annealing the Eq. 6 effective-hops cost.

Design constraints honoured:

* **Deterministic:** the proposal RNG is a pure function of the
  configured ``seed`` and the job id, so identical (state, job) inputs
  always produce identical placements — replays and the property suite
  rely on this.
* **Budget-bounded:** exactly ``iters`` cost evaluations per
  communication-intensive job, no restarts, so 100k-job replays stay
  tractable; compute-intensive jobs skip the search entirely (their
  placement is priced only indirectly by the paper's model) and fall
  back to the greedy fill.
* **No node ids while searching:** every move is priced from its takes
  (:meth:`~repro.cost.model.CostModel.allocation_cost` reads only each
  rank's leaf); node ids are built once, when the job starts.
* **Fault-safe for free:** candidate takes are bounded by
  ``state.leaf_free``, which counts only free **and** UP nodes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cluster.job import CommComponent, Job
from ..cluster.state import ClusterState, Takes
from ..cost.model import CostModel
from ..patterns.base import CommunicationPattern
from ..patterns.recursive_doubling import RecursiveDoubling
from .base import (
    Allocator,
    AllocationError,
    fill_takes,
    find_lowest_level_switch,
    leaves_below,
    ordered_takes,
)
from .greedy import GreedyAllocator

__all__ = ["SimulatedAnnealingAllocator"]


class SimulatedAnnealingAllocator(Allocator):
    """Anneal per-leaf takes toward a lower Eq. 6 cost (budget-bounded).

    Parameters
    ----------
    iters:
        Proposal budget per communication-intensive job (cost
        evaluations; the dominant per-job cost knob).
    seed:
        Base seed of the proposal RNG; combined with the job id so each
        job gets an independent but reproducible proposal stream.
    t0:
        Initial temperature as a *fraction of the seed placement's
        cost*, making acceptance behaviour scale-free across topologies.
    alpha:
        Geometric cooling factor applied after every proposal.
    cost_model:
        Eq. 6 configuration; defaults to the msize-weighted model.
    probe_pattern:
        Pattern used to price jobs that carry no communication
        components. Defaults to recursive doubling.
    """

    name = "sa"

    def __init__(
        self,
        iters: int = 120,
        seed: int = 0,
        t0: float = 0.08,
        alpha: float = 0.95,
        cost_model: Optional[CostModel] = None,
        probe_pattern: Optional[CommunicationPattern] = None,
    ) -> None:
        if iters < 0:
            raise ValueError(f"iters must be >= 0, got {iters}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.iters = int(iters)
        self.seed = int(seed)
        self.t0 = float(t0)
        self.alpha = float(alpha)
        self.cost_model = cost_model or CostModel()
        self.probe_pattern = probe_pattern or RecursiveDoubling()
        self._greedy = GreedyAllocator()

    def _cost(self, state: ClusterState, job: Job, takes: Takes) -> float:
        """Fraction-weighted Eq. 6 cost of ``takes`` with the job applied."""
        view = state.comm_overlay(takes, job.kind)
        components = job.comm or (CommComponent(self.probe_pattern, 1.0),)
        return sum(
            comp.fraction * self.cost_model.allocation_cost(view, takes, comp.pattern)
            for comp in components
        )

    def select(self, state: ClusterState, job: Job) -> Takes:
        """Greedy seed, then anneal take moves under the chosen switch."""
        switch = find_lowest_level_switch(state, job.nodes)
        if switch is None:
            raise AllocationError(
                f"no switch with {job.nodes} free nodes for job {job.job_id}"
            )
        if switch.is_leaf:
            # a single leaf serves the request; nothing to search over
            return Takes([switch.leaf_lo], [job.nodes])
        if not job.is_comm_intensive or self.iters == 0:
            # compute-intensive jobs gain nothing from annealing their
            # own (probe-priced) cost; keep them on the greedy fill
            return self._greedy.select_under(state, job, switch)

        leaves = leaves_below(state, switch)
        free = state.leaf_free[leaves].astype(np.int64)
        if leaves.size <= 1:
            return self._greedy.select_under(state, job, switch)

        # seed takes = greedy's comm-intensive fill along the Eq. 1 order,
        # but *stored* in ascending-leaf order so move indices are stable
        ratio = state.communication_ratio_cached()[leaves]
        order = np.lexsort((leaves, -free, ratio))
        seeded = np.zeros(leaves.size, dtype=np.int64)
        seeded[order] = ordered_takes(free[order], job.nodes)

        current = seeded
        current_takes = fill_takes(leaves, current)
        current_cost = self._cost(state, job, current_takes)
        best_takes, best_cost = current_takes, current_cost

        rng = np.random.default_rng([self.seed, job.job_id])
        temperature = max(self.t0 * max(current_cost, 1e-12), 1e-12)
        headroom = free - current
        for _ in range(self.iters):
            donors = np.flatnonzero(current > 0)
            receivers = np.flatnonzero(headroom > 0)
            if donors.size == 0 or receivers.size == 0:
                break
            donor = int(donors[rng.integers(donors.size)])
            receiver = int(receivers[rng.integers(receivers.size)])
            if donor == receiver:
                temperature *= self.alpha
                continue
            limit = min(int(current[donor]), int(headroom[receiver]))
            # power-of-two move sizes echo the balanced allocator's
            # chunking and let the search jump between coarse splits
            delta = min(int(2 ** rng.integers(0, 6)), limit)
            candidate = current.copy()
            candidate[donor] -= delta
            candidate[receiver] += delta
            candidate_takes = fill_takes(leaves, candidate)
            candidate_cost = self._cost(state, job, candidate_takes)
            accept = candidate_cost <= current_cost or (
                rng.random()
                < np.exp((current_cost - candidate_cost) / temperature)
            )
            if accept:
                current, current_cost = candidate, candidate_cost
                headroom = free - current
                if current_cost < best_cost:
                    best_takes, best_cost = candidate_takes, current_cost
            temperature *= self.alpha
        return best_takes

    def __repr__(self) -> str:
        return (
            f"SimulatedAnnealingAllocator(iters={self.iters}, seed={self.seed}, "
            f"t0={self.t0}, alpha={self.alpha})"
        )
