"""Mutable cluster occupancy state.

Tracks, per leaf switch, the three counters the paper's formulas use
(Table 1): ``L_nodes`` (capacity, static on the topology), ``L_busy``
(allocated nodes) and ``L_comm`` (nodes running communication-intensive
jobs). Node-granular state is an int8 array so "lowest free node ids on
leaf k" is a single vectorized scan.

Allocators never mutate this class directly — the scheduler engine
applies their returned node sets through :meth:`ClusterState.allocate`,
and hypothetical allocations are priced on :meth:`copy` snapshots or —
far cheaper — on :meth:`comm_overlay` views that only materialize the
per-leaf counters the cost model reads.

Every mutation bumps :attr:`ClusterState.version`; derived vectors
(the Eq. 2 contention-share vector) and Eq. 6 cost results are cached
against that counter, so the many repeated pricings of an unchanged
state (individual runs, adaptive arbitration, counterfactuals) skip
recomputation entirely.

Orthogonal to occupancy, every node carries a SLURM-style
*availability* state (UP / DOWN / DRAINING, see :mod:`repro.faults`).
``leaf_free`` always means *allocatable* — free **and** UP — so every
allocator's leaf ordering routes around failed switches without
knowing faults exist; ``leaf_offline`` counts the unoccupied non-UP
nodes so ``leaf_busy`` (and the Eq. 1 ratios built on it) stays exact
under failures. Availability transitions bump :attr:`version` like any
other mutation, keeping the Eq. 6 cost caches honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..topology.tree import SwitchInfo, TreeTopology
from .job import JobKind

__all__ = [
    "ClusterState",
    "CommOverlay",
    "AllocationRecord",
    "NODE_FREE",
    "NODE_COMPUTE",
    "NODE_COMM",
    "NODE_IO",
    "AVAIL_UP",
    "AVAIL_DOWN",
    "AVAIL_DRAINING",
]

#: entries kept in a state's Eq. 6 cost cache before it is wiped; keys
#: embed the priced node set, so the cap bounds memory, not correctness.
_COST_CACHE_MAX = 256

NODE_FREE = 0
NODE_COMPUTE = 1
NODE_COMM = 2
NODE_IO = 3

#: per-node availability states (orthogonal to the occupancy states above)
AVAIL_UP = 0
AVAIL_DOWN = 1
AVAIL_DRAINING = 2

_KIND_TO_NODE_STATE = {
    JobKind.COMPUTE: NODE_COMPUTE,
    JobKind.COMM: NODE_COMM,
    JobKind.IO: NODE_IO,
}


@dataclass(frozen=True)
class AllocationRecord:
    """Nodes held by one running job."""

    job_id: int
    nodes: np.ndarray  # int64 node ids
    kind: JobKind


class ClusterState:
    """Free/busy/comm bookkeeping over a :class:`TreeTopology`.

    Invariants (checked by :meth:`validate`):

    * ``leaf_free + leaf_busy + leaf_offline == topology.leaf_sizes``;
    * ``leaf_free`` counts exactly the free **and** UP nodes,
      ``leaf_offline`` the free-but-not-UP ones;
    * ``leaf_comm <= leaf_busy``;
    * per-leaf counters agree with the node-granular ``node_state``;
    * every allocated node belongs to exactly one running job;
    * no running job occupies a DOWN node (DRAINING is allowed: the
      node finishes its current job, then stops accepting new ones).
    """

    def __init__(self, topology: TreeTopology) -> None:
        self.topology = topology
        self.node_state = np.full(topology.n_nodes, NODE_FREE, dtype=np.int8)
        self.node_avail = np.full(topology.n_nodes, AVAIL_UP, dtype=np.int8)
        self.leaf_free = topology.leaf_sizes.copy()
        self.leaf_offline = np.zeros(topology.n_leaves, dtype=np.int64)
        self.leaf_comm = np.zeros(topology.n_leaves, dtype=np.int64)
        self.leaf_io = np.zeros(topology.n_leaves, dtype=np.int64)
        #: availability history: per-leaf count of node DOWN transitions
        #: since cluster start (monotonic, never decremented by repair);
        #: the fault-aware allocator reads it to bias placements away
        #: from failure-correlated leaves.
        self.leaf_faults = np.zeros(topology.n_leaves, dtype=np.int64)
        #: node id -> owning job id, -1 when unoccupied; the node->job
        #: index the fault path reads (jobs_on) instead of scanning all
        #: running records against an O(n_nodes) hit mask.
        self.node_job = np.full(topology.n_nodes, -1, dtype=np.int64)
        self.running: Dict[int, AllocationRecord] = {}
        #: bumped by every :meth:`allocate` / :meth:`release`; tags the caches
        self.version = 0
        self._derived_cache: Dict[str, object] = {}
        self._cost_cache: Dict[object, float] = {}

    def _invalidate(self) -> None:
        """Advance :attr:`version` and drop version-tagged caches."""
        self.version += 1
        if self._derived_cache:
            self._derived_cache.clear()
        if self._cost_cache:
            self._cost_cache.clear()

    # ------------------------------------------------------------------
    # derived counters
    # ------------------------------------------------------------------

    @property
    def leaf_busy(self) -> np.ndarray:
        """``L_busy`` per leaf (allocated nodes; offline nodes excluded)."""
        return self.topology.leaf_sizes - self.leaf_free - self.leaf_offline

    @property
    def total_free(self) -> int:
        """Allocatable nodes: free *and* UP."""
        return int(self.leaf_free.sum())

    @property
    def total_busy(self) -> int:
        """Number of occupied nodes (UP or not)."""
        return self.topology.n_nodes - self.total_free - int(self.leaf_offline.sum())

    @property
    def total_down(self) -> int:
        """Nodes currently marked DOWN."""
        return int(np.count_nonzero(self.node_avail == AVAIL_DOWN))

    @property
    def total_draining(self) -> int:
        """Nodes currently marked DRAINING."""
        return int(np.count_nonzero(self.node_avail == AVAIL_DRAINING))

    def subtree_free(self, switch: SwitchInfo) -> int:
        """Free nodes in ``switch``'s subtree."""
        return int(self.leaf_free[switch.leaf_lo : switch.leaf_hi].sum())

    def communication_ratio(self, leaf_index: Optional[np.ndarray] = None) -> np.ndarray:
        """Paper Eq. 1: ``L_comm / L_busy + L_busy / L_nodes`` per leaf.

        An idle leaf (``L_busy == 0``) has no contention: the first term
        is defined as 0 there, giving idle leaves the minimum ratio —
        exactly the switches a communication-intensive job should prefer.
        """
        busy = self.leaf_busy
        comm = self.leaf_comm
        sizes = self.topology.leaf_sizes
        if leaf_index is not None:
            idx = np.asarray(leaf_index, dtype=np.int64)
            busy, comm, sizes = busy[idx], comm[idx], sizes[idx]
        first = np.divide(
            comm, busy, out=np.zeros(len(busy), dtype=np.float64), where=busy > 0
        )
        return first + busy / sizes

    def io_ratio(self, leaf_index: Optional[np.ndarray] = None) -> np.ndarray:
        """Eq. 1 analogue for I/O load: ``L_io / L_busy + L_busy / L_nodes``.

        Used by the §7 I/O-aware allocator the same way the greedy
        algorithm uses the communication ratio.
        """
        busy = self.leaf_busy
        io = self.leaf_io
        sizes = self.topology.leaf_sizes
        if leaf_index is not None:
            idx = np.asarray(leaf_index, dtype=np.int64)
            busy, io, sizes = busy[idx], io[idx], sizes[idx]
        first = np.divide(
            io, busy, out=np.zeros(len(busy), dtype=np.float64), where=busy > 0
        )
        return first + busy / sizes

    def leaf_comm_share(self) -> np.ndarray:
        """``L_comm / L_nodes`` per leaf — the per-switch contention term.

        Cached against :attr:`version`: the Eq. 6 kernel reads this
        vector on every evaluation, and between mutations it cannot
        change. The returned array is read-only.
        """
        share = self._derived_cache.get("comm_share")
        if share is None:
            share = self.leaf_comm / self.topology.leaf_sizes
            share.setflags(write=False)
            self._derived_cache["comm_share"] = share
        return share

    def _derived(self, key: str, builder) -> np.ndarray:
        """Version-tagged read-only derived vector (see ``_derived_cache``)."""
        value = self._derived_cache.get(key)
        if value is None:
            value = builder()
            value.setflags(write=False)
            self._derived_cache[key] = value
        return value

    def leaf_free_cumsum(self) -> np.ndarray:
        """``[0, cumsum(leaf_free)]`` — subtree free counts in O(1) each.

        ``cs[hi] - cs[lo]`` is the free-node count under any switch with
        leaf range ``[lo, hi)``; the vectorized lowest-level-switch
        search evaluates a whole level at once from this. Cached against
        :attr:`version` like every derived vector.
        """
        return self._derived(
            "free_cumsum",
            lambda: np.concatenate(
                ([0], np.cumsum(self.leaf_free))
            ).astype(np.int64),
        )

    def leaf_busy_cached(self) -> np.ndarray:
        """Read-only :attr:`leaf_busy`, cached against :attr:`version`."""
        return self._derived("leaf_busy", lambda: np.asarray(self.leaf_busy))

    def allocatable_mask(self) -> np.ndarray:
        """Per-node boolean: unoccupied *and* UP, cached against :attr:`version`.

        One vector op shared by a whole node-gathering pass (see
        :func:`repro.allocation.base.gather_nodes`) instead of two
        comparisons per leaf inside :meth:`free_nodes_on_leaf`.
        """
        return self._derived(
            "allocatable",
            lambda: (self.node_state == NODE_FREE) & (self.node_avail == AVAIL_UP),
        )

    def communication_ratio_cached(self) -> np.ndarray:
        """Full Eq. 1 ratio vector, cached against :attr:`version`.

        The adaptive allocator prices a greedy and a balanced candidate
        from the same state: with the ranking version-tagged here, the
        second candidate (and any pass over an unmutated state) reuses
        the scan instead of recomputing ``L_comm/L_busy + L_busy/L_n``
        per call. Same numbers as :meth:`communication_ratio`.
        """
        return self._derived("comm_ratio", self.communication_ratio)

    def io_ratio_cached(self) -> np.ndarray:
        """Full I/O-analogue ratio vector, cached against :attr:`version`."""
        return self._derived("io_ratio", self.io_ratio)

    # ------------------------------------------------------------------
    # version-tagged cost cache (read by the Eq. 6 kernel)
    # ------------------------------------------------------------------

    def cost_cache_get(self, key: object) -> Optional[float]:
        """Cached Eq. 6 result for ``key``, valid for the current version."""
        return self._cost_cache.get(key)

    def cost_cache_put(self, key: object, value: float) -> None:
        """Memoize an Eq. 6 total for the current state version (capped FIFO)."""
        if len(self._cost_cache) >= _COST_CACHE_MAX:
            self._cost_cache.clear()
        self._cost_cache[key] = value

    def comm_overlay(
        self, nodes: Iterable[int], kind: JobKind, *, validate: bool = True
    ) -> "CommOverlay":
        """A pricing view of this state plus one hypothetical allocation.

        Captures only the per-leaf counters the Eq. 2-6 kernel reads —
        O(len(nodes) + n_leaves) instead of the O(n_nodes) of a full
        :meth:`copy`. Validates the nodes like :meth:`allocate` would
        (in range, free, no duplicates). The view's counters are copied
        at capture time, so it stays numerically valid even if this
        state mutates afterwards.

        ``validate=False`` skips the checks; only for node sets that
        just came out of an allocator against this same state (the
        adaptive pricing and counterfactual hot paths — the checks cost
        more than the capture itself there, and allocators already
        guarantee validity).
        """
        node_arr = np.asarray(list(nodes) if not isinstance(nodes, np.ndarray) else nodes,
                              dtype=np.int64)
        if node_arr.ndim != 1 or node_arr.size == 0:
            raise ValueError("overlay must contain at least one node")
        if validate:
            # a scatter into a seen-mask and an unsorted bincount (below)
            # check duplicates and histogram leaves in O(len(nodes) +
            # n_leaves) without sorting the node set
            if node_arr.min() < 0 or node_arr.max() >= self.topology.n_nodes:
                raise ValueError("node id out of range")
            seen = np.zeros(self.topology.n_nodes, dtype=bool)
            seen[node_arr] = True
            if int(np.count_nonzero(seen)) != node_arr.size:
                raise ValueError("duplicate node ids in overlay allocation")
            if np.any(self.node_state[node_arr] != NODE_FREE):
                busy = node_arr[self.node_state[node_arr] != NODE_FREE]
                raise ValueError(f"nodes already busy: {busy[:8].tolist()}")
            if np.any(self.node_avail[node_arr] != AVAIL_UP):
                down = node_arr[self.node_avail[node_arr] != AVAIL_UP]
                raise ValueError(f"nodes unavailable (DOWN/DRAINING): {down[:8].tolist()}")
        leaf_comm = self.leaf_comm.copy()
        if kind is JobKind.COMM:
            leaf_comm += np.bincount(
                self.topology.leaf_of_node[node_arr],
                minlength=self.topology.n_leaves,
            )
        return CommOverlay(self, leaf_comm, (kind.name, node_arr.tobytes()))

    # ------------------------------------------------------------------
    # node selection
    # ------------------------------------------------------------------

    def free_nodes_on_leaf(self, leaf_index: int, count: Optional[int] = None) -> np.ndarray:
        """Lowest-id allocatable node ids on ``leaf_index``.

        A node is allocatable when it is unoccupied *and* UP — DOWN and
        DRAINING nodes never appear here, which is how every allocator
        stays fault-safe without fault-specific logic.
        """
        lo = int(self.topology.leaf_node_offset[leaf_index])
        hi = int(self.topology.leaf_node_offset[leaf_index + 1])
        free = np.flatnonzero(self.allocatable_mask()[lo:hi]) + lo
        if count is not None:
            if count > free.size:
                raise ValueError(
                    f"leaf {leaf_index} has {free.size} free nodes, requested {count}"
                )
            free = free[:count]
        # flatnonzero yields a fresh intp array (int64 here), so this
        # normalizes dtype without copying on the common platform
        return free.astype(np.int64, copy=False)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def allocate(self, job_id: int, nodes: Iterable[int], kind: JobKind) -> AllocationRecord:
        """Mark ``nodes`` as held by ``job_id``.

        Raises ``ValueError`` if the job id is already running, any node
        is already busy, a node id is out of range, or the same node id
        appears more than once (a duplicate would silently shrink the
        allocation — always an allocator bug).
        """
        if job_id in self.running:
            raise ValueError(f"job {job_id} is already running")
        if isinstance(nodes, np.ndarray) and nodes.dtype == np.int64:
            raw = nodes
        else:
            raw = np.asarray([int(n) for n in nodes], dtype=np.int64)
        # np.sort + adjacent-equality replaces np.unique (same sorted
        # result, same error, half the per-call overhead on the ~10^5
        # allocations of a long trace)
        node_arr = np.sort(raw)
        if node_arr.size and np.any(node_arr[1:] == node_arr[:-1]):
            raise ValueError(
                f"duplicate node ids in allocation for job {job_id} "
                f"({raw.size - np.unique(raw).size} repeated)"
            )
        if node_arr.size == 0:
            raise ValueError("allocation must contain at least one node")
        if node_arr[0] < 0 or node_arr[-1] >= self.topology.n_nodes:
            raise ValueError("node id out of range")
        if np.any(self.node_state[node_arr] != NODE_FREE):
            busy = node_arr[self.node_state[node_arr] != NODE_FREE]
            raise ValueError(f"nodes already busy: {busy[:8].tolist()}")
        if np.any(self.node_avail[node_arr] != AVAIL_UP):
            down = node_arr[self.node_avail[node_arr] != AVAIL_UP]
            raise ValueError(f"nodes unavailable (DOWN/DRAINING): {down[:8].tolist()}")
        self.node_state[node_arr] = _KIND_TO_NODE_STATE[kind]
        self.node_job[node_arr] = job_id
        counts = np.bincount(
            self.topology.leaf_of_node[node_arr], minlength=self.topology.n_leaves
        )
        self.leaf_free -= counts
        if kind is JobKind.COMM:
            self.leaf_comm += counts
        elif kind is JobKind.IO:
            self.leaf_io += counts
        record = AllocationRecord(job_id=job_id, nodes=node_arr, kind=kind)
        self.running[job_id] = record
        self._invalidate()
        return record

    def release(self, job_id: int) -> AllocationRecord:
        """Free the nodes of a finished job; raises ``KeyError`` if unknown.

        Nodes that went DRAINING while the job ran are freed into
        ``leaf_offline``, not ``leaf_free`` — they never become
        allocatable again until :meth:`mark_up`.
        """
        record = self.running.pop(job_id)
        self.node_state[record.nodes] = NODE_FREE
        self.node_job[record.nodes] = -1
        n_leaves = self.topology.n_leaves
        job_leaves = self.topology.leaf_of_node[record.nodes]
        counts = np.bincount(job_leaves, minlength=n_leaves)
        up_mask = self.node_avail[record.nodes] == AVAIL_UP
        if up_mask.all():
            self.leaf_free += counts
        else:
            self.leaf_free += np.bincount(
                job_leaves[up_mask], minlength=n_leaves
            )
            self.leaf_offline += np.bincount(
                job_leaves[~up_mask], minlength=n_leaves
            )
        if record.kind is JobKind.COMM:
            self.leaf_comm -= counts
        elif record.kind is JobKind.IO:
            self.leaf_io -= counts
        self._invalidate()
        return record

    def release_many(self, job_ids: Iterable[int]) -> List[AllocationRecord]:
        """Free several finished jobs with one set of counter updates.

        Same-timestamp event batches release every job finishing at one
        clock tick; doing it per job costs one bincount pass and one
        cache invalidation *each*. This concatenates all their node
        sets, applies one bincount per affected counter, and bumps
        :attr:`version` once. Release order cannot matter: every job's
        nodes are disjoint (allocation guarantees it) and the per-leaf
        updates are integer sums, so the resulting counters are
        bit-identical to sequential :meth:`release` calls — the
        batching equivalence suite holds the engine to that.

        Raises ``KeyError`` on the first unknown job id and
        ``ValueError`` on an id listed twice; both are checked before
        anything is mutated.
        """
        ids = list(job_ids)
        recs = [self.running[job_id] for job_id in ids]
        if len(set(ids)) != len(ids):
            repeated = next(job_id for k, job_id in enumerate(ids) if job_id in ids[:k])
            raise ValueError(f"job {repeated} is listed more than once")
        if not recs:
            return []
        if len(recs) == 1:
            return [self.release(ids[0])]
        for job_id in ids:
            del self.running[job_id]
        nodes = np.concatenate([rec.nodes for rec in recs])
        self.node_state[nodes] = NODE_FREE
        self.node_job[nodes] = -1
        n_leaves = self.topology.n_leaves
        leaves = self.topology.leaf_of_node[nodes]
        up_mask = self.node_avail[nodes] == AVAIL_UP
        if up_mask.all():
            self.leaf_free += np.bincount(leaves, minlength=n_leaves)
        else:
            self.leaf_free += np.bincount(leaves[up_mask], minlength=n_leaves)
            self.leaf_offline += np.bincount(leaves[~up_mask], minlength=n_leaves)
        comm_nodes = [rec.nodes for rec in recs if rec.kind is JobKind.COMM]
        if comm_nodes:
            comm = np.concatenate(comm_nodes)
            self.leaf_comm -= np.bincount(
                self.topology.leaf_of_node[comm], minlength=n_leaves
            )
        io_nodes = [rec.nodes for rec in recs if rec.kind is JobKind.IO]
        if io_nodes:
            io = np.concatenate(io_nodes)
            self.leaf_io -= np.bincount(
                self.topology.leaf_of_node[io], minlength=n_leaves
            )
        self._invalidate()
        return recs

    # ------------------------------------------------------------------
    # availability (fault subsystem, see repro.faults)
    # ------------------------------------------------------------------

    def _avail_nodes_arg(self, nodes: Iterable[int]) -> np.ndarray:
        node_arr = np.unique(np.asarray([int(n) for n in nodes], dtype=np.int64))
        if node_arr.size == 0:
            return node_arr
        if node_arr[0] < 0 or node_arr[-1] >= self.topology.n_nodes:
            raise ValueError("node id out of range")
        return node_arr

    def jobs_on(self, nodes: Iterable[int]) -> List[int]:
        """Ids of running jobs holding any of ``nodes`` (ascending)."""
        node_arr = self._avail_nodes_arg(nodes)
        if node_arr.size == 0:
            return []
        ids = np.unique(self.node_job[node_arr])
        return ids[ids >= 0].tolist()

    def mark_down(self, nodes: Iterable[int]) -> np.ndarray:
        """Transition ``nodes`` to DOWN; returns the ids actually changed.

        Nodes already DOWN are left alone (overlapping faults are legal
        in user-supplied traces). Occupied nodes are rejected — the
        caller must interrupt/release their jobs first, which is what
        keeps the "no running job on a DOWN node" invariant airtight.
        """
        node_arr = self._avail_nodes_arg(nodes)
        occupied = node_arr[self.node_state[node_arr] != NODE_FREE]
        if occupied.size:
            raise ValueError(
                f"cannot mark occupied nodes DOWN: {occupied[:8].tolist()} "
                "(interrupt their jobs first)"
            )
        take = node_arr[self.node_avail[node_arr] != AVAIL_DOWN]
        if take.size == 0:
            return take
        was_up = take[self.node_avail[take] == AVAIL_UP]
        self.node_avail[take] = AVAIL_DOWN
        if was_up.size:
            leaves, counts = np.unique(
                self.topology.leaf_of_node[was_up], return_counts=True
            )
            self.leaf_free[leaves] -= counts
            self.leaf_offline[leaves] += counts
        # every DOWN transition (including DRAINING -> DOWN) goes into
        # the per-leaf availability history the fault-aware allocator reads
        fault_leaves, fault_counts = np.unique(
            self.topology.leaf_of_node[take], return_counts=True
        )
        self.leaf_faults[fault_leaves] += fault_counts
        self._invalidate()
        return take

    def mark_drain(self, nodes: Iterable[int]) -> np.ndarray:
        """Transition UP nodes to DRAINING; returns the ids changed.

        A draining node may still be occupied — it finishes its current
        job (``release`` then parks it in ``leaf_offline``) but is never
        handed out again until :meth:`mark_up`. DOWN nodes stay DOWN.
        """
        node_arr = self._avail_nodes_arg(nodes)
        take = node_arr[self.node_avail[node_arr] == AVAIL_UP]
        if take.size == 0:
            return take
        free = take[self.node_state[take] == NODE_FREE]
        self.node_avail[take] = AVAIL_DRAINING
        if free.size:
            leaves, counts = np.unique(
                self.topology.leaf_of_node[free], return_counts=True
            )
            self.leaf_free[leaves] -= counts
            self.leaf_offline[leaves] += counts
        self._invalidate()
        return take

    def mark_up(self, nodes: Iterable[int]) -> np.ndarray:
        """Transition DOWN/DRAINING nodes back to UP; returns ids changed."""
        node_arr = self._avail_nodes_arg(nodes)
        take = node_arr[self.node_avail[node_arr] != AVAIL_UP]
        if take.size == 0:
            return take
        free = take[self.node_state[take] == NODE_FREE]
        self.node_avail[take] = AVAIL_UP
        if free.size:
            leaves, counts = np.unique(
                self.topology.leaf_of_node[free], return_counts=True
            )
            self.leaf_offline[leaves] -= counts
            self.leaf_free[leaves] += counts
        self._invalidate()
        return take

    # ------------------------------------------------------------------
    # checkpoint support (engine snapshot/restore)
    # ------------------------------------------------------------------

    def snapshot_dict(self) -> Dict[str, object]:
        """Plain-JSON state for engine checkpoints.

        Only the node-granular arrays, the running set (in insertion
        order — scheduling iterates it), the version counter, and the
        :attr:`leaf_faults` availability history are stored; the other
        per-leaf counters are derived quantities and are rebuilt from
        the arrays on restore, so a checkpoint can never smuggle in a
        counter that violates the class invariants. ``leaf_faults`` is
        genuine history (not derivable from the current arrays), so it
        rides along verbatim; checkpoints written before it existed
        restore with an all-zero history.
        """
        return {
            "node_state": self.node_state.tolist(),
            "node_avail": self.node_avail.tolist(),
            "leaf_faults": self.leaf_faults.tolist(),
            "version": self.version,
            "running": [
                {
                    "job_id": rec.job_id,
                    "nodes": rec.nodes.tolist(),
                    "kind": rec.kind.value,
                }
                for rec in self.running.values()
            ],
        }

    @classmethod
    def from_snapshot_dict(
        cls, topology: TreeTopology, data: Dict[str, object]
    ) -> "ClusterState":
        """Inverse of :meth:`snapshot_dict`; validates every invariant."""
        state = cls(topology)
        node_state = np.asarray(data["node_state"], dtype=np.int8)
        node_avail = np.asarray(data["node_avail"], dtype=np.int8)
        if node_state.shape != (topology.n_nodes,) or node_avail.shape != (
            topology.n_nodes,
        ):
            raise ValueError(
                f"checkpoint state has {node_state.size} nodes; the "
                f"topology has {topology.n_nodes}"
            )
        state.node_state = node_state
        state.node_avail = node_avail
        free_mask = (node_state == NODE_FREE) & (node_avail == AVAIL_UP)
        offline_mask = (node_state == NODE_FREE) & (node_avail != AVAIL_UP)
        leaf_of = topology.leaf_of_node
        state.leaf_free = np.bincount(
            leaf_of[free_mask], minlength=topology.n_leaves
        ).astype(np.int64)
        state.leaf_offline = np.bincount(
            leaf_of[offline_mask], minlength=topology.n_leaves
        ).astype(np.int64)
        state.leaf_comm = np.bincount(
            leaf_of[node_state == NODE_COMM], minlength=topology.n_leaves
        ).astype(np.int64)
        state.leaf_io = np.bincount(
            leaf_of[node_state == NODE_IO], minlength=topology.n_leaves
        ).astype(np.int64)
        state.leaf_faults = np.asarray(
            data.get("leaf_faults", np.zeros(topology.n_leaves)), dtype=np.int64
        )
        if state.leaf_faults.shape != (topology.n_leaves,):
            raise ValueError(
                f"checkpoint leaf_faults has {state.leaf_faults.size} leaves; "
                f"the topology has {topology.n_leaves}"
            )
        for rec in data["running"]:
            record = AllocationRecord(
                job_id=int(rec["job_id"]),
                nodes=np.asarray(rec["nodes"], dtype=np.int64),
                kind=JobKind(rec["kind"]),
            )
            state.running[record.job_id] = record
            state.node_job[record.nodes] = record.job_id
        state.version = int(data["version"])
        state.validate()
        return state

    def copy(self) -> "ClusterState":
        """Independent snapshot sharing the (immutable) topology."""
        clone = ClusterState.__new__(ClusterState)
        clone.topology = self.topology
        clone.node_state = self.node_state.copy()
        clone.node_avail = self.node_avail.copy()
        clone.node_job = self.node_job.copy()
        clone.leaf_offline = self.leaf_offline.copy()
        clone.leaf_free = self.leaf_free.copy()
        clone.leaf_comm = self.leaf_comm.copy()
        clone.leaf_io = self.leaf_io.copy()
        clone.leaf_faults = self.leaf_faults.copy()
        clone.running = dict(self.running)  # records are frozen, share them
        # Caches are never shared: a snapshot starts cold so stale entries
        # cannot leak between a state and its copies (the counterfactual
        # pricing path depends on this).
        clone.version = self.version
        clone._derived_cache = {}
        clone._cost_cache = {}
        return clone

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Assert all counter invariants; raises ``AssertionError`` on drift."""
        topo = self.topology
        free_mask = (self.node_state == NODE_FREE) & (self.node_avail == AVAIL_UP)
        offline_mask = (self.node_state == NODE_FREE) & (self.node_avail != AVAIL_UP)
        free_from_nodes = np.bincount(
            topo.leaf_of_node[free_mask], minlength=topo.n_leaves
        )
        offline_from_nodes = np.bincount(
            topo.leaf_of_node[offline_mask], minlength=topo.n_leaves
        )
        comm_from_nodes = np.bincount(
            topo.leaf_of_node[self.node_state == NODE_COMM], minlength=topo.n_leaves
        )
        io_from_nodes = np.bincount(
            topo.leaf_of_node[self.node_state == NODE_IO], minlength=topo.n_leaves
        )
        assert np.array_equal(free_from_nodes, self.leaf_free), "leaf_free drifted"
        assert np.array_equal(
            offline_from_nodes, self.leaf_offline
        ), "leaf_offline drifted"
        assert np.array_equal(comm_from_nodes, self.leaf_comm), "leaf_comm drifted"
        assert np.array_equal(io_from_nodes, self.leaf_io), "leaf_io drifted"
        assert np.all(self.leaf_free >= 0) and np.all(self.leaf_free <= topo.leaf_sizes)
        assert np.all(self.leaf_offline >= 0)
        assert np.all(self.leaf_comm <= self.leaf_busy), "leaf_comm exceeds leaf_busy"
        assert np.all(self.leaf_io <= self.leaf_busy), "leaf_io exceeds leaf_busy"
        assert np.all(self.leaf_faults >= 0), "leaf_faults went negative"
        seen = np.zeros(topo.n_nodes, dtype=bool)
        for record in self.running.values():
            assert not seen[record.nodes].any(), "node held by two jobs"
            seen[record.nodes] = True
            assert np.all(
                self.node_job[record.nodes] == record.job_id
            ), f"node_job index drifted for job {record.job_id}"
            assert not np.any(
                self.node_avail[record.nodes] == AVAIL_DOWN
            ), f"running job {record.job_id} occupies a DOWN node"
        assert np.array_equal(seen, self.node_state != NODE_FREE), "running set drifted"
        assert np.array_equal(seen, self.node_job >= 0), "node_job index drifted"

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        down = self.total_down + self.total_draining
        offline = f", offline={down}" if down else ""
        return (
            f"ClusterState(free={self.total_free}/{self.topology.n_nodes}, "
            f"jobs={len(self.running)}{offline})"
        )


class CommOverlay:
    """Read-only pricing view: a base state plus one hypothetical job.

    Exposes exactly the surface the Eq. 2-6 kernel reads from a
    :class:`ClusterState` — ``topology``, ``leaf_comm``,
    :meth:`leaf_comm_share`, and the cost cache — without copying any
    node-granular state. Built via :meth:`ClusterState.comm_overlay`.

    Cost-cache entries are shared with the base state (keyed by the
    overlay's own allocation) while the base is unmutated, so e.g. the
    default-allocator counterfactual of one job is priced once and
    reused across every allocator of an individual run. If the base
    state has mutated since capture, the view falls back to a private
    cache — its copied counters stay correct, but nothing is written
    into the base's now-unrelated epoch.
    """

    __slots__ = (
        "topology",
        "leaf_comm",
        "_base",
        "_base_version",
        "_okey",
        "_share",
        "_local_cache",
    )

    def __init__(
        self, base: ClusterState, leaf_comm: np.ndarray, okey: object
    ) -> None:
        self.topology = base.topology
        self.leaf_comm = leaf_comm
        self.leaf_comm.setflags(write=False)
        self._base = base
        self._base_version = base.version
        self._okey = okey
        self._share: Optional[np.ndarray] = None
        self._local_cache: Dict[object, float] = {}

    def leaf_comm_share(self) -> np.ndarray:
        """Per-leaf communication share with the overlay job included (Eq. 1)."""
        if self._share is None:
            share = self.leaf_comm / self.topology.leaf_sizes
            share.setflags(write=False)
            self._share = share
        return self._share

    def cost_cache_get(self, key: object) -> Optional[float]:
        """Read through to the base state's Eq. 6 cache unless it went stale."""
        if self._base.version == self._base_version:
            return self._base.cost_cache_get((self._okey, key))
        return self._local_cache.get(key)

    def cost_cache_put(self, key: object, value: float) -> None:
        """Write to the base state's Eq. 6 cache unless it went stale."""
        if self._base.version == self._base_version:
            self._base.cost_cache_put((self._okey, key), value)
        else:
            self._local_cache[key] = value
